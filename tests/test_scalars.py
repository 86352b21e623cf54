"""Scalar policy: int while integral, QQ otherwise, with unchanged values."""

import math
from fractions import Fraction

import pytest

from threepv.fock import FockState, RepParams, seeded_states
from threepv.realization import (
    WITT_REP_PAIRS,
    bracket_rhs_op,
    pi_vir_mode,
    tau_mode,
    witt_rep_gj,
)
from threepv.scalars import QQ, binom, qq


def test_qq_keeps_ints_and_demotes_integral_rationals():
    assert qq(7) == 7 and type(qq(7)) is int
    assert qq(Fraction(6, 3)) == 2 and type(qq(Fraction(6, 3))) is int
    assert qq(QQ(-4)) == -4 and type(qq(QQ(-4))) is int
    half = qq(Fraction(3, 2))
    assert half == Fraction(3, 2) and type(half) is QQ


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
            weights = {type(w) for q in rhs.sums for w in (q.c0, q.c1)}
            assert weights | {type(c) for c, _ in rhs.terms} <= {int}
            for s in states:
                assert _coeff_types(rhs.apply(s)) <= {int}


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
