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

