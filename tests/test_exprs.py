import pytest
from hypothesis import given, strategies as st

from tubtilt.errors import ExprSyntaxError, ValidationError
from tubtilt.exprs import (
    ChartCoordExpr,
    LExprData,
    LineBundleExpr,
    MuExpr,
    RawClassExpr,
    TcanExpr,
    eval_object,
    eval_tilting,
    parse_expr,
    print_expr,
)
from tubtilt.slopes import INF, Slope
from tubtilt.tilting import mutate, t_can
from tubtilt.weights import l_normalize, x_gen


def test_parse_line_bundle(ctx2222):
    ast = parse_expr("L(x1+x2-c)")
    obj = eval_object(ctx2222, ast)
    w = ctx2222.weights
    want = l_normalize(w, (1, 1, 0, 0), -1)
    from tubtilt.tubes import line_bundle_obj

    assert obj == line_bundle_obj(ctx2222, want)


def test_parse_zero_and_coefficients(ctx2222):
    from tubtilt.tubes import line_bundle_obj
    from tubtilt.weights import l_zero

    assert eval_object(ctx2222, parse_expr("L(0)")) == line_bundle_obj(
        ctx2222, l_zero(ctx2222.weights)
    )
    ast = parse_expr("L(2*x4-3*c)")
    obj = eval_object(ctx2222, ast)
    assert obj == line_bundle_obj(
        ctx2222, l_normalize(ctx2222.weights, (0, 0, 0, 2), -3)
    )


def test_parse_chart_coords(ctx2222):
    obj = eval_object(ctx2222, parse_expr("E(1/2; t=0; s=0; l=1)"))
    assert obj.slope == Slope(1, 2)
    assert obj.orbit == 0
    assert obj.len == 1


def test_parse_raw_class(ctx2222):
    obj = eval_object(ctx2222, parse_expr("K[3,1,1,1,1,0]"))
    assert obj.slope == Slope(4, 3)


def test_parse_tcan_and_mu(ctx2222):
    assert eval_tilting(ctx2222, parse_expr("Tcan")) == t_can(ctx2222)
    twisted = eval_tilting(ctx2222, parse_expr("Tcan(x4)"))
    assert twisted == t_can(ctx2222, x_gen(ctx2222.weights, 3))
    mu0 = eval_tilting(ctx2222, parse_expr("mu(Tcan, 0)"))
    assert mu0 == mutate(ctx2222, t_can(ctx2222), 0)[0]
    nested = eval_tilting(ctx2222, parse_expr("mu(mu(Tcan, 0), 1)"))
    assert nested == mutate(ctx2222, mu0, 1)[0]


def test_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("L(x1+")
    assert err.value.line == 1
    assert err.value.column == 5


def test_syntax_errors():
    for bad in ["", "Q(1)", "K[1,", "E(1/2; t=0)", "L(x1+2)", "Tcan(x1) junk"]:
        with pytest.raises(ExprSyntaxError):
            parse_expr(bad)


def test_validation_errors(ctx2222):
    with pytest.raises(ValidationError):
        eval_object(ctx2222, parse_expr("L(x5)"))  # no fifth generator
    with pytest.raises(ValidationError):
        eval_object(ctx2222, parse_expr("K[1,2,3]"))  # wrong length
    with pytest.raises(ValidationError):
        eval_object(ctx2222, parse_expr("K[0,0,0,0,0,1]"))  # not exceptional
    with pytest.raises(ValidationError):
        eval_object(ctx2222, parse_expr("E(1/2; t=9; s=0; l=1)"))  # no such orbit
    with pytest.raises(ValidationError):
        eval_object(ctx2222, parse_expr("E(1/2; t=0; s=0; l=2)"))  # not rigid
    with pytest.raises(ValidationError):
        eval_object(ctx2222, parse_expr("Tcan"))  # tilting, not object
    with pytest.raises(ValidationError):
        eval_tilting(ctx2222, parse_expr("L(0)"))  # object, not tilting
    with pytest.raises(ValidationError):
        eval_tilting(ctx2222, parse_expr("mu(Tcan, 17)"))  # index out of range


CANONICAL_ASTS = [
    TcanExpr(None),
    TcanExpr(LExprData(((0, 1), (3, -2)), 1)),
    MuExpr(MuExpr(TcanExpr(None), 0), 5),
    LineBundleExpr(LExprData((), 0)),
    LineBundleExpr(LExprData(((1, 2),), -1)),
    ChartCoordExpr(Slope(1, 2), 0, 1, 1),
    ChartCoordExpr(INF, 3, 2, 1),
    ChartCoordExpr(Slope(-2, 1), 0, 0, 2),
    RawClassExpr((1, 0, 0, 0, 0, 0)),
    RawClassExpr((-1, 2, 0)),
]


@pytest.mark.parametrize("ast", CANONICAL_ASTS, ids=print_expr)
def test_print_parse_identity(ast):
    assert parse_expr(print_expr(ast)) == ast


@given(
    coeffs=st.lists(
        st.tuples(st.integers(0, 3), st.integers(-9, 9).filter(bool)),
        max_size=4,
        unique_by=lambda kv: kv[0],
    ),
    c=st.integers(-9, 9),
)
def test_lelem_print_parse_roundtrip(coeffs, c):
    ast = LineBundleExpr(LExprData(tuple(sorted(coeffs)), c))
    assert parse_expr(print_expr(ast)) == ast


@pytest.mark.parametrize(
    "src, column",
    [("K[²]", 3), ("L(x²)", 4), ("mu(Tcan, ²)", 10), ("E(٣; t=0; s=0; l=1)", 3), ("Tcañ", 4)],
)
def test_non_ascii_digits_and_letters_are_unexpected(src, column):
    # str.isdigit and str.isalpha accept them; int() and the names do not
    with pytest.raises(ExprSyntaxError, match="unexpected character") as err:
        parse_expr(src)
    assert (err.value.line, err.value.column) == (1, column)


def test_integer_literal_past_the_digit_limit():
    with pytest.raises(ExprSyntaxError, match="5000 digits is too long") as err:
        parse_expr("mu(Tcan, " + "9" * 5000 + ")")
    assert (err.value.line, err.value.column) == (1, 10)
