"""Grothendieck lattice of a tubular weighted projective line.

Basis and sign conventions, fixed once and validated at build time:

* coordinate 0 holds the class of the structure sheaf O;
* for each weight p_i there are p_i - 1 consecutive coordinates for the
  exceptional simples S_{i,j} = O(j x_i)/O((j-1) x_i), j = 1..p_i-1.
  The remaining simple S_{i,0} of that tube (the one with
  Hom(O, S_{i,0}) = k) keeps the implicit class fiber - sum_j S_{i,j};
* the last coordinate is the fiber class, the class of an ordinary
  simple sheaf.

Twisting by x_i sends S_{i,j} to S_{i,j+1} (index mod p_i) and fixes
the simples of the other tubes; the Auslander-Reiten translate tau is
the twist by omega and sends S_{i,j} to S_{i,j-1}.

The Euler form restricted to (rank, simple coordinates) is the affine
D4/E6/E7/E8 form, positive semidefinite with one null direction, and
the fiber coordinate is a second radical direction.  The root
enumerator `enumerate_roots_at`, which exploits this, lives in `roots`
with the chart oracle built on it; this module re-exports it on first
access, so the runtime never compiles it.
"""

from __future__ import annotations

from .errors import InternalConsistencyError, NotSheafLike
from .intmat import (
    Matrix,
    apply_rows,
    dot,
    identity,
    mat_mul,
    mat_pow,
    mat_vec,
    sparse_rows,
    transpose,
)
from .intmat import det as int_det
from .records import Record, setfield
from .slopes import INF, Slope
from .weights import LElement, WeightData, l_neg, omega


class K0Class(Record):
    """Integer vector in the fixed context basis."""

    __slots__ = ("vec",)
    vec: tuple[int, ...]

    def __init__(self, vec: tuple[int, ...]) -> None:
        setfield(self, "vec", vec)

    def __add__(self, other: "K0Class") -> "K0Class":
        return K0Class(tuple(a + b for a, b in zip(self.vec, other.vec)))

    def __sub__(self, other: "K0Class") -> "K0Class":
        return K0Class(tuple(a - b for a, b in zip(self.vec, other.vec)))

    def __neg__(self) -> "K0Class":
        return K0Class(tuple(-a for a in self.vec))


class K0Context:
    """Immutable lattice data plus memo tables for derived quantities."""

    def __init__(
        self,
        weights: WeightData,
        basis_labels: tuple[str, ...],
        euler: Matrix,
        rank_form: tuple[int, ...],
        deg_form: tuple[int, ...],
        tube_offsets: tuple[int, ...],
    ):
        self.weights = weights
        self.n = weights.n
        self.p = weights.p
        self.basis_labels = basis_labels
        self.euler = euler
        self.euler_det = int_det(euler)  # det(E), the Gram determinant of a basis
        self.rank_form = rank_form
        self.deg_form = deg_form
        self.tube_offsets = tube_offsets  # start coordinate of each tube block
        self.idx_o = 0
        self.idx_f = weights.n - 1
        self._eb: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._charts: dict[Slope, object] = {}
        self._shifts: tuple | None = None  # set by tubes._tube_shifts
        self._t_can: object | None = None  # set by tilting.t_can
        # class vector -> its decoded ExcObject, see tubes.exc_from_class
        self._decode: dict[tuple[int, ...], object] = {}
        # (x, y) class vectors -> (hom(x, y), ext(x, y)), see tubes._hom_ext
        self._pairs: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, int]] = {}
        # The complement table of tilting.mutate and connect.explore_graph.
        # An almost complete key (a class key with one summand left out,
        # still in canonical order) maps to the complements known for it,
        # as the flat tuple (holder, complement[, holder, complement]):
        # each holder is the tilting object of the key plus its complement.
        # Happel-Unger allows at most two (tilting._enter_complement).
        self._complements: dict[tuple, tuple] = {}
        # The relation table of connect._mutation_forecast, cleared with the
        # complement table: a target's class key maps each class vector seen
        # in a search towards it to its bit mask of target summands it has
        # ext with (or, for a target summand j, to -(1 << j)).
        self._relations: dict[tuple, dict[tuple[int, ...], int]] = {}
        # The proof table of the verifier (tilting.is_tilting and
        # connect._node_is_tilting): a class key maps to the summands of
        # the tilting object proved under it (ext pairs, then the basis
        # check).  A repeat is answered only for equal summands,
        # coordinates included (tilting._is_proved); nothing else writes
        # it (tilting._enter_proved).
        self._proved: dict[tuple, tuple] = {}
        self.omega = omega(weights)
        self.tau: Matrix = twist_matrix(self, self.omega)
        self.tau_inv: Matrix = twist_matrix(self, l_neg(self.omega))
        self.chibar: Matrix = _chibar_matrix(self)
        # Sparse rows (intmat.sparse_rows) of the maps that `_check_context`
        # and the batched chart checks of `tubes` apply to many vectors at once.
        self.euler_rows = sparse_rows(euler)
        self.tau_inv_rows = sparse_rows(self.tau_inv)
        self.rank_deg_rows = sparse_rows((rank_form, deg_form))

    # -- basis bookkeeping -------------------------------------------------

    def simple_index(self, i: int, j: int) -> int:
        """Coordinate of [S_{i,j}] for 1 <= j <= p_i - 1."""
        return self.tube_offsets[i] + (j - 1)

    def eb(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        """Memoized product euler @ vec (used by every chi evaluation)."""
        got = self._eb.get(vec)
        if got is None:
            got = mat_vec(self.euler, vec)
            self._eb[vec] = got
        return got

    def __repr__(self) -> str:  # pragma: no cover
        return f"K0Context(weights={self.weights.weights})"


def line_bundle_class(ctx: K0Context, x: LElement) -> K0Class:
    """Class of the line bundle O(x) for x in normal form."""
    vec = [0] * ctx.n
    vec[ctx.idx_o] = 1
    for i, a in enumerate(x.coeffs):
        for j in range(1, a + 1):
            vec[ctx.simple_index(i, j)] = 1
    vec[ctx.idx_f] = x.c
    return K0Class(tuple(vec))


def twist_matrix(ctx: K0Context, v: LElement) -> Matrix:
    """Action of the twist by v on the lattice (columns = basis images)."""
    n = ctx.n
    w = ctx.weights
    cols: list[tuple[int, ...]] = [()] * n
    cols[ctx.idx_o] = line_bundle_class(ctx, v).vec
    ef = [0] * n
    ef[ctx.idx_f] = 1
    cols[ctx.idx_f] = tuple(ef)
    for i, p_i in enumerate(w.weights):
        for j in range(1, p_i):
            jj = (j + v.coeffs[i]) % p_i
            img = [0] * n
            if jj == 0:
                img[ctx.idx_f] = 1
                for jk in range(1, p_i):
                    img[ctx.simple_index(i, jk)] = -1
            else:
                img[ctx.simple_index(i, jj)] = 1
            cols[ctx.simple_index(i, j)] = tuple(img)
    return tuple(tuple(cols[c][r] for c in range(n)) for r in range(n))


def build_context(w: WeightData) -> K0Context:
    """Assemble the Euler matrix, forms and twist action; self-check.

    A fresh context per call: nothing is shared between contexts.  The
    cold cost is the twist matrices of tau and tau^-1, the averaged form
    (`_chibar_matrix`) and the six checks of `_check_context`; every
    matrix product among them runs through the nonzero entries of its
    left factor (`intmat.apply_rows`), and the lattice maps are sparse."""
    n = w.n
    offsets = []
    pos = 1
    for p_i in w.weights:
        offsets.append(pos)
        pos += p_i - 1
    idx_f = n - 1
    labels = ["O"]
    for i, p_i in enumerate(w.weights):
        labels.extend(f"S{i + 1},{j}" for j in range(1, p_i))
    labels.append("f")

    e = [[0] * n for _ in range(n)]
    e[0][0] = 1
    e[0][idx_f] = 1
    e[idx_f][0] = -1
    for i, p_i in enumerate(w.weights):
        base = offsets[i]
        for j in range(1, p_i):
            u = base + (j - 1)
            if j == 1:
                e[u][0] = -1
            for k in range(1, p_i):
                v = base + (k - 1)
                e[u][v] = (1 if j == k else 0) - (1 if k == j - 1 else 0)
    euler = tuple(tuple(row) for row in e)

    rank_form = tuple(1 if u == 0 else 0 for u in range(n))
    deg = [0] * n
    for i, p_i in enumerate(w.weights):
        for j in range(1, p_i):
            deg[offsets[i] + (j - 1)] = w.p // p_i
    deg[idx_f] = w.p
    deg_form = tuple(deg)

    ctx = K0Context(w, tuple(labels), euler, rank_form, deg_form, tuple(offsets))
    _check_context(ctx)
    return ctx


def _check_context(ctx: K0Context) -> None:
    """The lattice data agree with the theory, or InternalConsistencyError:
    the Euler matrix E is unimodular, tau preserves the Euler form, tau
    and tau^-1 are inverse, tau^p = 1, Serre duality chi(a, b) =
    -chi(b, tau a) holds and the averaged form is rank(a) deg(b) -
    deg(a) rank(b); tested in this order.

    Every product has a sparse left factor (`intmat.mat_mul`): E tau is
    taken once from `ctx.euler_rows` and serves both the Euler form,
    tau^T (E tau) = E, and Serre duality, E = -(E tau)^T."""
    e, t = ctx.euler, ctx.tau
    if abs(ctx.euler_det) != 1:
        raise InternalConsistencyError("Euler matrix is not unimodular")
    et = tuple(apply_rows(ctx.euler_rows, t))
    if mat_mul(transpose(t), et) != e:
        raise InternalConsistencyError("tau does not preserve the Euler form")
    if mat_mul(t, ctx.tau_inv) != identity(ctx.n):
        raise InternalConsistencyError("tau inverse mismatch")
    if mat_pow(t, ctx.p) != identity(ctx.n):
        raise InternalConsistencyError("tau does not have order p")
    # Serre duality on classes: chi(a, b) = -chi(b, tau a).
    if e != tuple(tuple(-x for x in row) for row in transpose(et)):
        raise InternalConsistencyError("Serre duality fails on the lattice")
    # Averaged form equals the rank/degree determinant form.
    if ctx.chibar != tuple(
        tuple(
            ctx.rank_form[u] * ctx.deg_form[v] - ctx.deg_form[u] * ctx.rank_form[v]
            for v in range(ctx.n)
        )
        for u in range(ctx.n)
    ):
        raise InternalConsistencyError("averaged Euler form is not the determinant form")


def _chibar_matrix(ctx: K0Context) -> Matrix:
    """Sum of (tau^T)^j euler over j = 0..p-1.

    By Horner's rule, E + T (E + T (... + T E)) with T = tau^T: p - 1
    products, each through the nonzero entries of T, listed once."""
    tt = sparse_rows(transpose(ctx.tau))
    acc = ctx.euler
    for _ in range(ctx.p - 1):
        acc = apply_rows(tt, acc, ctx.euler)
    return tuple(acc)


def chi(ctx: K0Context, a: K0Class, b: K0Class) -> int:
    """Euler pairing dim Hom - dim Ext^1 on classes."""
    return dot(a.vec, ctx.eb(b.vec))


def chi_bar(ctx: K0Context, a: K0Class, b: K0Class) -> int:
    """Averaged Euler form, equal to rank(a) deg(b) - deg(a) rank(b)."""
    return dot(a.vec, mat_vec(ctx.chibar, b.vec))


def rank_of(ctx: K0Context, c: K0Class) -> int:
    return dot(ctx.rank_form, c.vec)


def deg_of(ctx: K0Context, c: K0Class) -> int:
    return dot(ctx.deg_form, c.vec)


def slope_of(ctx: K0Context, c: K0Class) -> Slope:
    """deg/rank as an exact slope; infinite for torsion classes."""
    r = rank_of(ctx, c)
    d = deg_of(ctx, c)
    if r > 0:
        return Slope(d, r)
    if r == 0 and d > 0:
        return INF
    raise NotSheafLike(f"rank {r}, degree {d} is not the shape of a sheaf class")


# the root oracle and the helpers its tests drive, in `roots`
_ROOT_ORACLE = frozenset(
    "enumerate_roots_at _emit _min_tube_norm _svec_from_d _tube_dvectors _tube_entries".split()
)


def __getattr__(name: str):
    if name in _ROOT_ORACLE:
        from . import roots

        return getattr(roots, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
