"""The weight-alpha module family: frozen action values and module axioms."""

import pytest

from threepv.density import density_act, density_module_check
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
