"""Tubular weight sequences and the rank-one grading group they generate.

The grading group attached to weights (p_1, ..., p_t) is

    L = < x_1, ..., x_t | p_1 x_1 = ... = p_t x_t =: c >,

an abelian group of rank one.  Every element has a unique normal form
sum_i a_i x_i + a c with 0 <= a_i < p_i; in this form equality is
coordinate-wise, effectivity is just a >= 0, and the degree
homomorphism delta (with delta(x_i) = p/p_i, p = lcm of the weights)
is a dot product.  Weights are kept sorted ascending, so p = p_t and
delta(x_t) = 1 gives a unit slope shift.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Sequence

from .errors import NonTubularWeights
from .records import Record, setfield

TUBULAR_TYPES = ((2, 2, 2, 2), (2, 3, 6), (2, 4, 4), (3, 3, 3))


class WeightData(Record):
    """A validated tubular weight sequence with its derived constants."""

    __slots__ = ("weights", "p", "n", "genus")
    weights: tuple[int, ...]
    p: int
    n: int
    genus: int

    def __init__(self, weights: tuple[int, ...], p: int, n: int, genus: int) -> None:
        setfield(self, "weights", weights)
        setfield(self, "p", p)
        setfield(self, "n", n)
        setfield(self, "genus", genus)

    @property
    def t(self) -> int:
        return len(self.weights)


def make_weights(seq: Iterable[int]) -> WeightData:
    """Sort, validate and pack a weight sequence.

    Raises NonTubularWeights unless `seq` is an iterable of ints (bools
    excluded) whose sorted form is one of the four tubular types.
    """
    if isinstance(seq, (str, bytes)):
        raise NonTubularWeights(f"{seq!r} is a string, not a weight sequence")
    try:
        raw = tuple(seq)
    except TypeError:
        raise NonTubularWeights(f"{seq!r} is not a weight sequence") from None
    if not all(isinstance(q, int) and not isinstance(q, bool) for q in raw):
        raise NonTubularWeights(f"{raw!r} has a weight that is not an integer")
    ws = tuple(sorted(raw))
    if ws not in TUBULAR_TYPES:
        raise NonTubularWeights(f"{raw} is not a tubular weight sequence")
    p = lcm(*ws)
    t = len(ws)
    # 1 + ((t - 2) p - sum_i p / p_i) / 2 in integers: the bracket is 0 on every tubular type
    genus = 1 + ((t - 2) * p - sum(p // q for q in ws)) // 2
    n = 2 + sum(q - 1 for q in ws)
    return WeightData(ws, p, n, genus)


class LElement(Record):
    """Group element in normal form: 0 <= coeffs[i] < weights[i], c free."""

    __slots__ = ("data", "coeffs", "c")
    data: WeightData
    coeffs: tuple[int, ...]
    c: int

    def __init__(self, data: WeightData, coeffs: tuple[int, ...], c: int) -> None:
        setfield(self, "data", data)
        setfield(self, "coeffs", coeffs)
        setfield(self, "c", c)

    def __add__(self, other: "LElement") -> "LElement":
        return l_add(self, other)

    def __sub__(self, other: "LElement") -> "LElement":
        return l_add(self, l_neg(other))

    def __neg__(self) -> "LElement":
        return l_neg(self)

    def __bool__(self) -> bool:
        return self.c != 0 or any(self.coeffs)


def l_normalize(w: WeightData, coeffs: Sequence[int], c: int) -> LElement:
    """Carry each coefficient into [0, p_i) using p_i x_i = c."""
    fixed = []
    for a, p_i in zip(coeffs, w.weights):
        q, rem = divmod(a, p_i)
        fixed.append(rem)
        c += q
    return LElement(w, tuple(fixed), c)


def l_add(x: LElement, y: LElement) -> LElement:
    if x.data != y.data:
        raise ValueError("elements belong to different weight data")
    return l_normalize(x.data, tuple(a + b for a, b in zip(x.coeffs, y.coeffs)), x.c + y.c)


def l_neg(x: LElement) -> LElement:
    return l_normalize(x.data, tuple(-a for a in x.coeffs), -x.c)


def l_zero(w: WeightData) -> LElement:
    return LElement(w, (0,) * w.t, 0)


def x_gen(w: WeightData, i: int) -> LElement:
    """The generator x_{i+1} (0-based index)."""
    coeffs = [0] * w.t
    coeffs[i] = 1
    return LElement(w, tuple(coeffs), 0)


def c_gen(w: WeightData) -> LElement:
    return LElement(w, (0,) * w.t, 1)


def delta(x: LElement) -> int:
    """Degree homomorphism: delta(x_i) = p/p_i, delta(c) = p."""
    w = x.data
    return sum(a * (w.p // p_i) for a, p_i in zip(x.coeffs, w.weights)) + x.c * w.p


def omega(w: WeightData) -> LElement:
    """The dualizing element sum_i (c - x_i) - 2c in normal form."""
    return l_normalize(w, (-1,) * w.t, w.t - 2)

