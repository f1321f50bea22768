"""Expression language for objects and tilting bundles.

Grammar (LL(1)):

    expr   := 'L' '(' lelem ')'
            | 'E' '(' slope ';' 't' '=' int ';' 's' '=' int ';' 'l' '=' int ')'
            | 'K' '[' ints ']'
            | 'Tcan' [ '(' lelem ')' ]
            | 'mu' '(' expr ',' int ')'
    lelem  := '0' | term (('+'|'-') term)*
    term   := [int '*'] ('x' int | 'c')
    slope  := 'inf' | int [ '/' int ]

`L` builds a line bundle from a grading-group element, `E` addresses a
chart window by coordinates, `K` gives a raw class vector, `Tcan` the
(twisted) canonical tilting bundle and `mu` a mutation at an index.
Parsing is context-free; evaluation validates against the active
weight data and raises ValidationError on mismatch.  The parser needs
no object of the category, so `eval_object` and `eval_tilting` import
`tubes` and `tilting` when they run, and importing this module loads
neither.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import ExprSyntaxError, NotExceptionalHere, NotSheafLike, ValidationError
from .k0 import K0Class, K0Context
from .records import Record, setfield
from .slopes import Slope
from .weights import LElement, l_normalize

if TYPE_CHECKING:
    from .tilting import TiltingObject
    from .tubes import ExcObject


class LExprData(Record):
    """Merged, ascending, nonzero x-terms plus the c coefficient."""

    __slots__ = ("xterms", "c")
    xterms: tuple[tuple[int, int], ...]  # (0-based generator index, coefficient)
    c: int

    def __init__(self, xterms: tuple[tuple[int, int], ...], c: int) -> None:
        setfield(self, "xterms", xterms)
        setfield(self, "c", c)


class LineBundleExpr(Record):
    """`L(lelem)`: the line bundle O(elt)."""

    __slots__ = ("elt",)
    elt: LExprData

    def __init__(self, elt: LExprData) -> None:
        setfield(self, "elt", elt)


class ChartCoordExpr(Record):
    """`E(slope; t=orbit; s=socle; l=len)`: a chart window."""

    __slots__ = ("slope", "orbit", "socle", "len")
    slope: Slope
    orbit: int
    socle: int
    len: int

    def __init__(self, slope: Slope, orbit: int, socle: int, len: int) -> None:
        setfield(self, "slope", slope)
        setfield(self, "orbit", orbit)
        setfield(self, "socle", socle)
        setfield(self, "len", len)


class RawClassExpr(Record):
    """`K[entries]`: a raw class vector."""

    __slots__ = ("entries",)
    entries: tuple[int, ...]

    def __init__(self, entries: tuple[int, ...]) -> None:
        setfield(self, "entries", entries)


class TcanExpr(Record):
    """`Tcan` or `Tcan(lelem)`: the canonical tilting bundle, twisted."""

    __slots__ = ("twist",)
    twist: LExprData | None

    def __init__(self, twist: LExprData | None) -> None:
        setfield(self, "twist", twist)


class MuExpr(Record):
    """`mu(expr, index)`: the mutation of `inner` at `index`."""

    __slots__ = ("inner", "index")
    inner: "ObjectExpr"
    index: int

    def __init__(self, inner: "ObjectExpr", index: int) -> None:
        setfield(self, "inner", inner)
        setfield(self, "index", index)


ObjectExpr = LineBundleExpr | ChartCoordExpr | RawClassExpr | TcanExpr | MuExpr


class _Tokens:
    SYMBOLS = "()[],;=+-*/"

    def __init__(self, src: str):
        self.src = src
        self.pos = 0
        self.line = 1
        self.col = 1
        self.items: list[tuple[str, str, int, int]] = []
        self._scan()
        self.idx = 0

    def _scan(self) -> None:
        src = self.src
        i = 0
        line, col = 1, 1
        while i < len(src):
            ch = src[i]
            if ch == "\n":
                line += 1
                col = 1
                i += 1
                continue
            if ch.isspace():
                i += 1
                col += 1
                continue
            start_col = col
            # ASCII only: str.isdigit also accepts characters such as
            # superscripts, which int() rejects
            if ch.isascii() and ch.isdigit():
                j = i
                while j < len(src) and src[j].isascii() and src[j].isdigit():
                    j += 1
                try:
                    int(src[i:j])
                except ValueError:  # past the interpreter's digit limit
                    raise ExprSyntaxError(
                        f"integer literal of {j - i} digits is too long", line, start_col
                    ) from None
                self.items.append(("int", src[i:j], line, start_col))
                col += j - i
                i = j
                continue
            if ch.isascii() and ch.isalpha():
                j = i
                while j < len(src) and src[j].isascii() and src[j].isalnum():
                    j += 1
                self.items.append(("name", src[i:j], line, start_col))
                col += j - i
                i = j
                continue
            if ch in self.SYMBOLS:
                self.items.append((ch, ch, line, start_col))
                i += 1
                col += 1
                continue
            raise ExprSyntaxError(f"unexpected character {ch!r}", line, start_col)
        self.items.append(("end", "", line, col))

    def peek(self) -> tuple[str, str, int, int]:
        return self.items[self.idx]

    def next(self) -> tuple[str, str, int, int]:
        tok = self.items[self.idx]
        self.idx += 1
        return tok

    def err_pos(self, tok: tuple[str, str, int, int]) -> tuple[int, int]:
        """Errors at end of input point at the last real token."""
        if tok[0] == "end" and self.items[0][0] != "end":
            prev = self.items[self.items.index(tok) - 1]
            return prev[2], prev[3]
        return tok[2], tok[3]

    def expect(self, kind: str) -> tuple[str, str, int, int]:
        tok = self.next()
        if tok[0] != kind:
            line, col = self.err_pos(tok)
            what = tok[1] or "end of input"
            raise ExprSyntaxError(f"expected {kind!r}, got {what!r}", line, col)
        return tok


def parse_expr(src: str) -> ObjectExpr:
    toks = _Tokens(src)
    ast = _parse_expr(toks)
    end = toks.peek()
    if end[0] != "end":
        raise ExprSyntaxError(f"trailing input {end[1]!r}", end[2], end[3])
    return ast


def _parse_int(toks: _Tokens) -> int:
    sign = 1
    tok = toks.peek()
    if tok[0] == "-":
        toks.next()
        sign = -1
    tok = toks.expect("int")
    return sign * int(tok[1])


def _parse_expr(toks: _Tokens) -> ObjectExpr:
    tok = toks.next()
    if tok[0] != "name":
        raise ExprSyntaxError(f"expected an expression, got {tok[1]!r}", tok[2], tok[3])
    head = tok[1]
    if head == "L":
        toks.expect("(")
        elt = _parse_lelem(toks)
        toks.expect(")")
        return LineBundleExpr(elt)
    if head == "E":
        toks.expect("(")
        slope = _parse_slope(toks)
        fields = {}
        for key in ("t", "s", "l"):
            toks.expect(";")
            name = toks.expect("name")
            if name[1] != key:
                raise ExprSyntaxError(f"expected field {key!r}", name[2], name[3])
            toks.expect("=")
            fields[key] = _parse_int(toks)
        toks.expect(")")
        return ChartCoordExpr(slope, fields["t"], fields["s"], fields["l"])
    if head == "K":
        toks.expect("[")
        entries = []
        if toks.peek()[0] != "]":
            entries.append(_parse_int(toks))
            while toks.peek()[0] == ",":
                toks.next()
                entries.append(_parse_int(toks))
        toks.expect("]")
        return RawClassExpr(tuple(entries))
    if head == "Tcan":
        if toks.peek()[0] == "(":
            toks.next()
            elt = _parse_lelem(toks)
            toks.expect(")")
            return TcanExpr(elt)
        return TcanExpr(None)
    if head == "mu":
        toks.expect("(")
        inner = _parse_expr(toks)
        toks.expect(",")
        idx = _parse_int(toks)
        toks.expect(")")
        return MuExpr(inner, idx)
    raise ExprSyntaxError(f"unknown expression head {head!r}", tok[2], tok[3])


def _parse_slope(toks: _Tokens) -> Slope:
    tok = toks.peek()
    if tok[0] == "name" and tok[1] == "inf":
        toks.next()
        return Slope.infinity()
    num = _parse_int(toks)
    if toks.peek()[0] == "/":
        toks.next()
        den = _parse_int(toks)
        if den == 0:
            raise ExprSyntaxError("zero denominator", tok[2], tok[3])
        return Slope(num, den)
    return Slope(num, 1)


def _parse_lelem(toks: _Tokens) -> LExprData:
    tok = toks.peek()
    if tok[0] == "int" and tok[1] == "0":
        nxt = toks.items[toks.idx + 1]
        if nxt[0] in (")", "end"):
            toks.next()
            return LExprData((), 0)
    xcoeffs: dict[int, int] = {}
    c = 0
    sign = 1
    first = True
    while True:
        tok = toks.peek()
        if not first:
            if tok[0] == "+":
                sign = 1
            elif tok[0] == "-":
                sign = -1
            else:
                break
            toks.next()
        elif tok[0] == "-":
            sign = -1
            toks.next()
        coeff = 1
        tok = toks.peek()
        if tok[0] == "int":
            coeff = int(toks.next()[1])
            toks.expect("*")
        tok = toks.expect("name")
        name = tok[1]
        if name == "c":
            c += sign * coeff
        elif name.startswith("x") and name[1:].isdigit():
            idx = int(name[1:]) - 1
            if idx < 0:
                raise ExprSyntaxError("generator index starts at 1", tok[2], tok[3])
            xcoeffs[idx] = xcoeffs.get(idx, 0) + sign * coeff
        else:
            raise ExprSyntaxError(f"unknown generator {name!r}", tok[2], tok[3])
        first = False
        sign = 1
    xterms = tuple(sorted((i, v) for i, v in xcoeffs.items() if v))
    return LExprData(xterms, c)


# -- printing -----------------------------------------------------------------


def _lelem_str(elt: LExprData) -> str:
    parts: list[str] = []
    for idx, coeff in elt.xterms:
        sign = "-" if coeff < 0 else ("+" if parts else "")
        mag = abs(coeff)
        head = f"x{idx + 1}" if mag == 1 else f"{mag}*x{idx + 1}"
        parts.append(f"{sign}{head}")
    if elt.c:
        sign = "-" if elt.c < 0 else ("+" if parts else "")
        mag = abs(elt.c)
        parts.append(f"{sign}{'c' if mag == 1 else f'{mag}*c'}")
    return "".join(parts) if parts else "0"


def print_expr(ast: ObjectExpr) -> str:
    if isinstance(ast, LineBundleExpr):
        return f"L({_lelem_str(ast.elt)})"
    if isinstance(ast, ChartCoordExpr):
        return f"E({ast.slope}; t={ast.orbit}; s={ast.socle}; l={ast.len})"
    if isinstance(ast, RawClassExpr):
        return f"K[{','.join(str(v) for v in ast.entries)}]"
    if isinstance(ast, TcanExpr):
        return "Tcan" if ast.twist is None else f"Tcan({_lelem_str(ast.twist)})"
    if isinstance(ast, MuExpr):
        return f"mu({print_expr(ast.inner)}, {ast.index})"
    raise TypeError(f"not an expression: {ast!r}")


# -- evaluation ---------------------------------------------------------------


def _eval_lelem(ctx: K0Context, elt: LExprData) -> LElement:
    w = ctx.weights
    coeffs = [0] * w.t
    for idx, coeff in elt.xterms:
        if idx >= w.t:
            raise ValidationError(
                f"generator x{idx + 1} does not exist for weights {w.weights}"
            )
        coeffs[idx] = coeff
    return l_normalize(w, coeffs, elt.c)


def eval_object(ctx: K0Context, ast: ObjectExpr) -> ExcObject:
    from .tubes import ExcObject, chart_for, exc_from_class, line_bundle_obj, window_class

    if isinstance(ast, LineBundleExpr):
        return line_bundle_obj(ctx, _eval_lelem(ctx, ast.elt))
    if isinstance(ast, ChartCoordExpr):
        chart = chart_for(ctx, ast.slope)
        if not 0 <= ast.orbit < len(chart.orbits):
            raise ValidationError(f"no orbit {ast.orbit} at slope {ast.slope}")
        r = len(chart.orbits[ast.orbit])
        if not 1 <= ast.len <= r - 1:
            raise ValidationError(f"quasi-length {ast.len} not rigid in a rank-{r} tube")
        socle = ast.socle % r
        cls = window_class(chart, ast.orbit, socle, ast.len)
        return ExcObject(cls, chart.slope, ast.orbit, socle, ast.len)
    if isinstance(ast, RawClassExpr):
        if len(ast.entries) != ctx.n:
            raise ValidationError(
                f"class vector has length {len(ast.entries)}, expected {ctx.n}"
            )
        try:
            return exc_from_class(ctx, K0Class(ast.entries))
        except (NotSheafLike, NotExceptionalHere) as exc:
            raise ValidationError(str(exc)) from exc
    raise ValidationError(f"{print_expr(ast)} is a tilting expression, not an object")


def eval_tilting(ctx: K0Context, ast: ObjectExpr) -> TiltingObject:
    from .tilting import mutate, t_can

    if isinstance(ast, TcanExpr):
        twist = None if ast.twist is None else _eval_lelem(ctx, ast.twist)
        return t_can(ctx, twist)
    if isinstance(ast, MuExpr):
        base = eval_tilting(ctx, ast.inner)
        if not 0 <= ast.index < ctx.n:
            raise ValidationError(f"mutation index {ast.index} out of range")
        return mutate(ctx, base, ast.index)[0]
    raise ValidationError(f"{print_expr(ast)} is an object expression, not a tilting")


__all__ = [
    "ObjectExpr",
    "LineBundleExpr",
    "ChartCoordExpr",
    "RawClassExpr",
    "TcanExpr",
    "MuExpr",
    "LExprData",
    "parse_expr",
    "print_expr",
    "eval_object",
    "eval_tilting",
]
