import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tubtilt.slopes import INF, Slope

nonzero = st.integers(-40, 40).filter(bool)
slopes = st.one_of(
    st.just(INF),
    st.builds(Slope, st.integers(-120, 120), nonzero),
    st.builds(Slope, st.integers(-3, 3).filter(bool), st.just(0)),
)


def _key(q: Slope):
    # INF sits above every rational and is equal only to itself
    return (1, 0) if q.is_infinite else (0, Fraction(q.num, q.den))


@pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge, operator.eq])
@given(a=slopes, b=slopes)
def test_slope_order_matches_fraction(op, a, b):
    assert op(a, b) == op(_key(a), _key(b))
    assert op(a, a) == op(_key(a), _key(a))


@given(
    fracs=st.lists(st.fractions(max_denominator=10**6), max_size=12),
    infs=st.integers(0, 3),
    seed=st.randoms(use_true_random=False),
)
def test_sorted_slopes_follow_fraction_with_infinity_on_top(fracs, infs, seed):
    # each comparison is one cross-multiplication; the order it gives is
    # the rational order with INF above everything, whatever the input
    # sign of the denominator
    items = [
        Slope(-f.numerator, -f.denominator) if i % 2 else Slope(f.numerator, f.denominator)
        for i, f in enumerate(fracs)
    ] + [Slope(1 + i, 0) for i in range(infs)]
    seed.shuffle(items)
    got = sorted(items)
    assert got == [Slope(f.numerator, f.denominator) for f in sorted(fracs)] + [INF] * infs
    for a, b in zip(got, got[1:]):
        assert a <= b and b >= a and not b < a and not a > b
