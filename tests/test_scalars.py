"""Scalar policy: int while integral, QQ otherwise, with unchanged values;
and the one sparse vector, Vec, that keeps it."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from combination import apply_combination
from threepv.fock import FockState, RepParams, seeded_states
from threepv.liealg import affine_bracket, heis_bracket, witt_bracket
from threepv.realization import (
    AFFINE_GENERATORS,
    WITT_REP_PAIRS,
    bracket_rhs_op,
    pi_vir_mode,
    tau_mode,
    witt_rep_gj,
)
from threepv.ring import RRingElem
from threepv.scalars import QQ, Vec, binom, qq


def test_qq_keeps_ints_and_demotes_integral_rationals():
    assert qq(7) == 7 and type(qq(7)) is int
    assert qq(Fraction(6, 3)) == 2 and type(qq(Fraction(6, 3))) is int
    assert qq(QQ(-4)) == -4 and type(qq(QQ(-4))) is int
    half = qq(Fraction(3, 2))
    assert half == Fraction(3, 2) and type(half) is QQ
    with pytest.raises(TypeError):
        qq(0.5)


def test_binom_is_an_exact_int():
    for m in range(0, 9):
        for j in range(0, 11):
            assert type(binom(m, j)) is int
            assert binom(m, j) == math.comb(m, j)
    for m in range(1, 7):
        for j in range(0, 6):
            # binom(-m, j) = (-1)^j binom(m + j - 1, j)
            assert binom(-m, j) == (-1) ** j * math.comb(m + j - 1, j)
    assert binom(3, -1) == 0


def _coeff_types(state):
    return {type(c) for c in state.terms.values()}


@pytest.mark.parametrize("r", (0, 1))
def test_integer_parameters_keep_every_coefficient_int(r):
    params = RepParams(r=r, kappa0=2, B0=-1, B1=((1, 2), (3, 1)))
    states = [FockState.vacuum()] + seeded_states(5, 3, 3)
    for m in range(-2, 3):
        op = tau_mode("e", m, params)
        assert {type(c) for c, _ in op.terms} <= {int}
        for s in states:
            assert _coeff_types(tau_mode("e", m, params).apply(s)) <= {int}
    for pair in WITT_REP_PAIRS:
        for m in range(-2, 3):
            rhs = bracket_rhs_op(witt_rep_gj(pair, r), m, 1 - m, params)
            coeffs = {type(c) for c, _ in rhs}
            coeffs |= {type(c) for _, op in rhs for c, _ in op.terms}
            coeffs |= {type(w) for _, op in rhs for q in op.sums
                       for w in (q.c0, q.c1)}
            assert coeffs <= {int}
            for s in states:
                assert _coeff_types(apply_combination(rhs, s)) <= {int}


def _mono(pairs, vpart):
    return (tuple(pairs), vpart)


def test_rational_parameters_give_the_fraction_values():
    # values recorded with every coefficient a fractions.Fraction
    params = RepParams(r=0, kappa0=Fraction(3, 2),
                       B1=((Fraction(1, 2), 2), (3, Fraction(1, 2))))
    s = seeded_states(5, 1, 2)[0]
    x0, y3, y2 = ((0, 0), 1), ((3, -3), 1), ((3, -2), 1)
    assert tau_mode("e1", 0, params).apply(s).terms == {
        _mono((x0,), 0): Fraction(21),
        _mono((x0,), 1): Fraction(4),
        _mono((x0, y3), 0): Fraction(27),
        _mono((x0, y3), 1): Fraction(9, 2),
        _mono((x0, y2), 0): Fraction(1, 2),
        _mono((x0, y2), 1): Fraction(2),
        _mono((((0, 1), 1),), 0): Fraction(-18),
        _mono((((0, 1), 1),), 1): Fraction(-54),
        _mono((((0, 2), 1),), 1): Fraction(-270),
    }
    y = ((2, -2), 1), ((2, -1), 1)
    assert pi_vir_mode("D1", 0, params).apply(s).terms == {
        _mono((), 0): Fraction(7),
        _mono((), 1): Fraction(4, 3),
        _mono((y[0],), 1): Fraction(-90),
        _mono((y[1],), 0): Fraction(-6),
        _mono((y[1],), 1): Fraction(-18),
        _mono((y3,), 0): Fraction(9),
        _mono((y3,), 1): Fraction(3, 2),
        _mono((y2,), 0): Fraction(1, 6),
        _mono((y2,), 1): Fraction(2, 3),
    }


# --- Vec ----------------------------------------------------------------------

keys = st.tuples(st.integers(min_value=-2, max_value=2),
                 st.integers(min_value=0, max_value=1))
coeffs = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3).map(QQ))
term_dicts = st.dictionaries(keys, coeffs, max_size=5)


def _assert_canonical(v, cls):
    assert type(v) is cls
    for c in v.terms.values():
        assert c != 0
        # an integral coefficient is stored as an int, never as QQ
        assert type(c) is int or (type(c) is QQ and c.denominator != 1)


@pytest.mark.parametrize("cls", [Vec, FockState, RRingElem])
@given(a=term_dicts, b=term_dicts, c=coeffs, key=keys)
def test_vec_arithmetic_stores_no_zero_and_keeps_ints(cls, a, b, c, key):
    a, b = cls(a), cls(b)
    _assert_canonical(a, cls)
    for v in (a + b, a - b, -a, a.scale(c), a + a.scale(-1), a.scale(0)):
        _assert_canonical(v, cls)
    assert (a + b) - b == a
    assert (a - a).is_zero() and (a + a.scale(-1)).is_zero()
    assert a.scale(c).terms == {k: v * c for k, v in a.terms.items() if v * c}
    v = cls(a.terms)
    v.add_term(key, c)
    _assert_canonical(v, cls)
    assert v.terms.get(key, 0) == a.terms.get(key, 0) + c
    v.add_term(key, -c)
    _assert_canonical(v, cls)
    assert v == a


def _witt_gens(window):
    return [(k, m) for k in ("d", "d1") for m in range(-window, window + 1)]


@pytest.mark.parametrize("bracket, families", [
    (witt_bracket, ("d", "d1")),
    (heis_bracket, ("b", "b1")),
    (affine_bracket, AFFINE_GENERATORS),
])
def test_brackets_return_int_coefficients_for_integral_values(bracket, families):
    gens = [(f, m) for f in families for m in range(-3, 4)]
    seen = set()
    for i in gens:
        for j in gens:
            for c in bracket(i, j).terms.values():
                seen.add(type(c))
                assert type(c) is int or c.denominator != 1, (i, j, c)
    assert int in seen
