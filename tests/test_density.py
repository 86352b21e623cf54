"""The weight-alpha module family: frozen action values and module axioms."""

import itertools

import pytest

from threepv import density
from threepv.density import density_act, density_module_check
from threepv.liealg import witt_bracket
from threepv.scalars import QQ, Vec


def test_frozen_action_example():
    # d1_2 . abar_1 at alpha = 1: (1+1+1) a_4 + 2(2+2+1) a_3
    v = Vec({("abar", 1): 1})
    got = density_act(("d1", 2), v, 1)
    assert got.terms == {("a", 4): QQ(3), ("a", 3): QQ(10)}


def test_action_is_linear():
    v = Vec({("a", 0): 2, ("abar", -1): -3})
    got = density_act(("d", 1), v, QQ(1, 2))
    want = density_act(("d", 1), Vec({("a", 0): 1}), QQ(1, 2)).scale(2)
    want += density_act(("d", 1), Vec({("abar", -1): 1}), QQ(1, 2)).scale(-3)
    assert got.terms == want.terms


def test_weight_zero_kills_a0():
    # at alpha = 0 the coefficient (alpha + i) of a_0 vanishes
    v = Vec({("a", 0): 1})
    assert density_act(("d", 3), v, 0).is_zero()
    assert density_act(("d1", 3), v, 0).is_zero()


@pytest.mark.parametrize("alpha", [0, QQ(1, 2), QQ(-3, 4), 2])
def test_module_axioms_window_4(alpha):
    assert density_module_check(alpha, 4) == []


def _reference_module_check(alpha, window):
    """The per-step Vec loop density_module_check replaces."""
    gens = [(k, m) for k in ("d", "d1") for m in range(-window, window + 1)]
    basis = [(b, i) for b in ("a", "abar") for i in range(-window, window + 1)]
    act = density.density_act
    bad = []
    for x, y in itertools.combinations(gens, 2):
        for key in basis:
            v = Vec({key: 1})
            lhs = Vec()
            for gen, c in witt_bracket(x, y).terms.items():
                lhs += act(gen, v, alpha).scale(c)
            rhs = act(x, act(y, v, alpha), alpha) - act(y, act(x, v, alpha), alpha)
            if not (lhs - rhs).is_zero():
                bad.append(((x, y, key), lhs - rhs))
    return bad


@pytest.fixture
def broken_d1_1(monkeypatch):
    """d1_1 also sends each basis vector to 1/3 a_0, linearly."""
    act = density.density_act

    def broken(gen, vec, alpha):
        out = act(gen, vec, alpha)
        if gen == ("d1", 1):
            for c in vec.terms.values():
                out.add_term(("a", 0), QQ(c, 3))
        return out

    monkeypatch.setattr(density, "density_act", broken)


@pytest.mark.parametrize("alpha", [QQ(1, 2), QQ(-3, 4)])
def test_module_residuals_match_the_reference(broken_d1_1, alpha):
    got = density_module_check(alpha, 2)
    want = _reference_module_check(alpha, 2)
    assert len(want) == 160
    assert [t for t, _ in got] == [t for t, _ in want]
    assert [repr(r) for _, r in got] == [repr(r) for _, r in want]
    assert [r.terms for _, r in got] == [r.terms for _, r in want]
    # an integral coefficient comes back as an int, as qq makes it
    values = [c for _, r in got for c in r.terms.values()]
    assert any(type(c) is int for c in values)
    assert all(type(c) is int for c in values if c.denominator == 1)


def test_float_weight_is_refused():
    with pytest.raises(TypeError):
        density_module_check(0.5, 2)
