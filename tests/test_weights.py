import pytest
from hypothesis import given, strategies as st

from tubtilt.errors import NonTubularWeights
from tubtilt.weights import (
    TUBULAR_TYPES,
    c_gen,
    delta,
    l_add,
    l_neg,
    l_normalize,
    l_zero,
    make_weights,
    omega,
    x_gen,
)

W2222 = make_weights((2, 2, 2, 2))


def test_make_weights_2222():
    assert W2222.p == 2
    assert W2222.n == 6
    assert W2222.genus == 1


def test_make_weights_236():
    w = make_weights((2, 3, 6))
    assert w.p == 6
    assert w.n == 10
    assert w.genus == 1


def test_make_weights_sorts_input():
    assert make_weights((6, 2, 3)).weights == (2, 3, 6)


@pytest.mark.parametrize(
    "bad",
    [
        (2, 3, 5),
        (2, 2, 2),
        (7,),
        (2, 2),
        (3, 3, 4),
        (),
        "2222",
        (2, 2, 2, 2.5),
        (2, 3, 6.0),
        (2, 2, 2, "a"),
        (2, 2, 2, True),
        None,
        7,
    ],
)
def test_non_tubular_rejected(bad):
    with pytest.raises(NonTubularWeights):
        make_weights(bad)


def test_genus_exactly_one_for_all_types():
    for ws in TUBULAR_TYPES:
        assert make_weights(ws).genus == 1


def test_genus_is_an_exact_int():
    for ws in TUBULAR_TYPES:
        genus = make_weights(ws).genus
        assert type(genus) is int and genus == 1


def test_normalize_carries_relation():
    # 2 x_1 = c
    e = l_normalize(W2222, (2, 0, 0, 0), 0)
    assert e == c_gen(W2222)


def test_neg_of_generator():
    e = l_neg(x_gen(W2222, 0))
    assert e.coeffs == (1, 0, 0, 0)
    assert e.c == -1


def test_add_distinct_generators():
    e = l_add(x_gen(W2222, 0), x_gen(W2222, 1))
    assert e.coeffs == (1, 1, 0, 0)
    assert e.c == 0


def test_delta_values():
    assert delta(x_gen(W2222, 0)) == 1
    assert delta(c_gen(W2222)) == 2
    assert delta(omega(W2222)) == 0


def test_omega_normal_form_2222():
    om = omega(W2222)
    assert om.coeffs == (1, 1, 1, 1)
    assert om.c == -2
    assert l_add(om, om) == l_zero(W2222)


def test_omega_delta_zero_all_types():
    for ws in TUBULAR_TYPES:
        assert delta(omega(make_weights(ws))) == 0


def test_omega_order_equals_p():
    for ws in TUBULAR_TYPES:
        w = make_weights(ws)
        om = omega(w)
        acc = om
        order = 1
        while acc != l_zero(w):
            acc = l_add(acc, om)
            order += 1
            assert order <= w.p
        assert order == w.p


def is_effective(x):
    """x >= 0: the c coefficient of the normal form is >= 0."""
    return x.c >= 0


def test_effectivity():
    for ws in TUBULAR_TYPES:
        w = make_weights(ws)
        assert is_effective(l_zero(w))
        assert is_effective(c_gen(w))
        assert not is_effective(omega(w))
        for i in range(w.t):
            assert is_effective(x_gen(w, i))
            assert not is_effective(l_neg(x_gen(w, i)))


weights_strategy = st.sampled_from(TUBULAR_TYPES)
coeff_strategy = st.integers(min_value=-30, max_value=30)


@given(
    ws=weights_strategy,
    raw=st.tuples(*(coeff_strategy for _ in range(4))),
    c=coeff_strategy,
)
def test_normal_form_idempotent(ws, raw, c):
    w = make_weights(ws)
    e = l_normalize(w, raw[: w.t], c)
    again = l_normalize(w, e.coeffs, e.c)
    assert again == e
    assert all(0 <= a < p for a, p in zip(e.coeffs, w.weights))


@given(
    ws=weights_strategy,
    a=st.tuples(*(coeff_strategy for _ in range(4))),
    b=st.tuples(*(coeff_strategy for _ in range(4))),
    d=st.tuples(*(coeff_strategy for _ in range(4))),
    ca=coeff_strategy,
    cb=coeff_strategy,
    cd=coeff_strategy,
)
def test_group_laws(ws, a, b, d, ca, cb, cd):
    w = make_weights(ws)
    x = l_normalize(w, a[: w.t], ca)
    y = l_normalize(w, b[: w.t], cb)
    z = l_normalize(w, d[: w.t], cd)
    assert l_add(x, y) == l_add(y, x)
    assert l_add(l_add(x, y), z) == l_add(x, l_add(y, z))
    assert l_add(x, l_neg(x)) == l_zero(w)
    assert delta(l_add(x, y)) == delta(x) + delta(y)
