"""Realized-operator checks: commutators against the closed bracket tables,
bracket identities translated from the formal-parameter form, and frozen
single-state evaluations."""

import itertools
import re

import pytest

from combination import apply_combination
from threepv import fock, realization, suites
from threepv.scalars import QQ, Vec, binom
from threepv.fock import (
    FockState,
    ModeOp,
    NormalSum,
    RepParams,
    combine,
    commutator_apply,
    seeded_states,
)
from threepv.liealg import affine_bracket, phi1, phi2, vir_bracket
from threepv.ring import RRingElem
from threepv.realization import (
    AFFINE_GENERATORS,
    PAIRS_ITEMS,
    WITT_REP_PAIRS,
    VirParams,
    bracket_rhs_op,
    central_charge,
    chi0,
    field_mode,
    pairs_gj,
    pi_vir_mode,
    pi_witt_mode,
    tau_mode,
    tau_realize,
    vir_realize,
    witt_rep_gj,
)

P0 = RepParams(r=0, kappa0=1)
P1 = RepParams(r=1, kappa0=1)
PARAMS = [P0, P1]
W = RRingElem.t_pow  # W(p) is the w-polynomial w^p


def residual(lhs_a, lhs_b, j_terms, m, n, params):
    """[A_m, B_n] state minus the mode-translated right-hand side on it."""
    op_a = field_mode(lhs_a, m, params)
    op_b = field_mode(lhs_b, n, params)
    rhs = bracket_rhs_op(j_terms, m, n, params)
    return lambda s: commutator_apply(op_a, op_b, s) - apply_combination(rhs, s)


# ---------------------------------------------------------------------------
# argument validation and parameter identities
# ---------------------------------------------------------------------------

def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        tau_mode("x", 0, P0)
    with pytest.raises(ValueError):
        tau_mode("w0", 0, P0)
    with pytest.raises(ValueError):
        pi_witt_mode("D", 0, P0)
    with pytest.raises(ValueError):
        pi_vir_mode("d", 0, P0)
    with pytest.raises(ValueError):
        VirParams.standard(0)
    with pytest.raises(ValueError):
        central_charge(2)
    with pytest.raises(ValueError):
        field_mode("gamma", 0, P0)
    with pytest.raises(ValueError):
        witt_rep_gj(("d1", "d"), 0)
    with pytest.raises(ValueError):
        pairs_gj(2, P0)


def test_vir_params_standard():
    vp = VirParams.standard(2)
    assert vp.nu == QQ(1, 4)
    assert vp.gamma1 == QQ(-1, 8)
    assert vp.gammaP == QQ(-1, 8)

    assert central_charge(0) == QQ(-1, 2)
    assert central_charge(1) == QQ(-1, 6)
    # the closed-form scalar equals the defining combination of coefficients
    for r in (0, 1):
        d0 = 1 if r == 0 else 0
        for kappa0 in (1, 2, 5, QQ(3, 7)):
            vp = VirParams.standard(kappa0)
            combo = -(QQ(d0, 3) + QQ(2, 3) * vp.nu ** 2 * QQ(kappa0) ** 2)
            assert combo == central_charge(r)


def test_builders_return_one_operator_per_parameter_set():
    params, other = RepParams(r=0, kappa0=QQ(3, 2)), RepParams(r=0, kappa0=QQ(3, 2))
    builds = (
        lambda p: tau_mode("e1", 2, p),
        lambda p: pi_witt_mode("d", -1, p),
        lambda p: field_mode("no_beta1_sq", 1, p),
        lambda p: pi_vir_mode("D1", 0, p, VirParams(nu=1, gamma1=2, gammaP=3)),
    )
    fock.hold(params)
    for build in builds:
        op = build(params)
        assert build(params) is op
        # an equal parameter set is the same object, and gets the same operator
        assert other is params and build(other) is op
    assert tau_mode("e1", 1, params) is not tau_mode("e1", 2, params)
    assert tau_mode("e1", 2, params) is not tau_mode("f1", 2, params)
    # another parameter set gets an operator of its own, and frees none
    op = tau_mode("e1", 2, params)
    other_r = RepParams(r=1, kappa0=QQ(3, 2))
    assert tau_mode("e1", 2, other_r) is not op
    assert tau_mode("e1", 2, params) is op
    # a hold of another set frees them: back at the first, each is rebuilt
    fock.hold(other_r)
    assert tau_mode("e1", 2, params) is not op


def test_default_and_standard_vir_params_share_one_operator():
    params = RepParams(r=1, kappa0=2)
    op = pi_vir_mode("D", 1, params)
    kept = len(fock._OPS)
    # keyed on the values of vparams, not on its identity (all kept alive)
    equal = [VirParams.standard(2), VirParams.standard(QQ(2)),
             VirParams(QQ(1, 4), QQ(-1, 8), QQ(-1, 8))]
    assert all(pi_vir_mode("D", 1, params, vp) is op for vp in equal)
    assert len(fock._OPS) == kept
    assert pi_vir_mode("D", 1, params, VirParams(nu=1)) is not op
    assert len(fock._OPS) == kept + 1


def test_chi0():
    assert chi0(P0) == 5
    assert chi0(P1) == 1
    assert chi0(RepParams(r=0, kappa0=QQ(1, 2))) == QQ(9, 2)


# ---------------------------------------------------------------------------
# tau: frozen evaluations and the closed affine table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("params", PARAMS, ids=["r0", "r1"])
def test_tau_f_is_minus_oscillator(params):
    states = [FockState.vacuum()] + seeded_states(21, 2, max_degree=2)
    for m in range(-2, 3):
        for s in states:
            for gen, fam in (("f", "a"), ("f1", "a1")):
                single = ModeOp(((1, ((fam, m),)),), (), params)
                assert tau_mode(gen, m, params).apply(s) == \
                    single.apply(s).scale(-1)


def test_tau_h_on_vacuum():
    vac = FockState.vacuum()
    # every mode with m >= 1 annihilates the vacuum; mode 0 acts by B0
    for m in range(1, 5):
        assert tau_mode("h", m, P0).apply(vac).is_zero()
    assert tau_mode("h", 0, P0).apply(vac) == vac.scale(P0.B0)
    pz = RepParams(r=0, kappa0=1, B0=0)
    for m in range(0, 5):
        assert tau_mode("h", m, pz).apply(vac).is_zero()


@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("kappa0", [1, 2])
def test_tau_e_f_commutator_on_vacuum(r, kappa0):
    params = RepParams(r=r, kappa0=kappa0)
    vac = FockState.vacuum()
    lhs = commutator_apply(
        tau_mode("e", 1, params), tau_mode("f", -1, params), vac
    )
    rhs = tau_mode("h", 0, params).apply(vac) - vac.scale(chi0(params))
    assert lhs == rhs
    assert lhs == vac.scale(params.B0 - chi0(params))


def test_tau_realize_classes():
    s = seeded_states(31, 1, max_degree=2)[0]
    vec = Vec({("w0", 0): QQ(2), ("w1", 0): QQ(7)})
    assert apply_combination(tau_realize(vec, P0), s) == s.scale(2 * chi0(P0))
    assert tau_realize(Vec({("w1", 0): QQ(3)}), P1) == ()


def _tau_closed_form(gen, m, x0):
    """The generators' terms and sums, written out by hand."""
    if gen == "f":
        return ((-1, (("a", m),)),), ()
    if gen == "f1":
        return ((-1, (("a1", m),)),), ()
    if gen == "h":
        return ((1, (("b", m),)),), (NormalSum(("a", "a*"), m, 2, 0),
                                     NormalSum(("a1", "a1*"), m, 2, 0))
    if gen == "h1":
        return ((1, (("b1", m),)),), (NormalSum(("a1", "a*"), m, 2, 0),
                                      NormalSum(("a", "a1*"), m + 2, 2, 0),
                                      NormalSum(("a", "a1*"), m + 1, 8, 0))
    if gen == "e":
        return ((-m * x0, (("a*", m),)),), (
            NormalSum(("a", "a*", "a*"), m, 1, 0),
            NormalSum(("a", "a1*", "a1*"), m + 2, 1, 0),
            NormalSum(("a", "a1*", "a1*"), m + 1, 4, 0),
            NormalSum(("a1", "a*", "a1*"), m, 2, 0),
            NormalSum(("b", "a*"), m, 1, 0),
            NormalSum(("b1", "a1*"), m, 1, 0),
        )
    return ((-(m + 1) * x0, (("a1*", m + 2),)), (-(4 * m + 2) * x0, (("a1*", m + 1),))), (
        NormalSum(("a1", "a*", "a*"), m, 1, 0),
        NormalSum(("a1", "a1*", "a1*"), m + 2, 1, 0),
        NormalSum(("a1", "a1*", "a1*"), m + 1, 4, 0),
        NormalSum(("a", "a*", "a1*"), m + 2, 2, 0),
        NormalSum(("a", "a*", "a1*"), m + 1, 8, 0),
        NormalSum(("b1", "a*"), m, 1, 0),
        NormalSum(("b", "a1*"), m + 2, 1, 0),
        NormalSum(("b", "a1*"), m + 1, 4, 0),
    )


@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("kappa0", [1, QQ(3, 2), QQ(2, 3)], ids=["k1", "k3/2", "k2/3"])
def test_tau_sums_pin_the_closed_forms(r, kappa0):
    params = RepParams(r=r, kappa0=kappa0)
    for gen in AFFINE_GENERATORS:
        for m in range(-20, 21):
            got = tau_mode(gen, m, params)
            want = ModeOp(*_tau_closed_form(gen, m, chi0(params)), params)
            assert (got.terms, got.sums, got.den) == (want.terms, want.sums, want.den), (gen, m)


@pytest.mark.parametrize("r", [0, 1])
def test_affine_commutators_small_window(r):
    params = RepParams(r=r, kappa0=1)
    states = [FockState.vacuum()] + seeded_states(11, 2, max_degree=2)
    for i, x in enumerate(AFFINE_GENERATORS):
        for y in AFFINE_GENERATORS[i:]:
            for m in (-1, 0, 1):
                for n in (-1, 0, 1):
                    op_x = tau_mode(x, m, params)
                    op_y = tau_mode(y, n, params)
                    rhs = tau_realize(
                        affine_bracket((x, m), (y, n)), params
                    )
                    for s in states:
                        lhs_val = commutator_apply(op_x, op_y, s)
                        assert lhs_val == apply_combination(rhs, s), (x, y, m, n, r)


# ---------------------------------------------------------------------------
# pi: the derivation families
# ---------------------------------------------------------------------------

def test_pi_witt_annihilates_vacuum():
    vac = FockState.vacuum()
    for m in range(0, 7):
        assert pi_witt_mode("d", m, P0).apply(vac).is_zero()
    for m in range(1, 7):
        assert pi_witt_mode("d1", m, P0).apply(vac).is_zero()
    # natural ordering: the starred modes annihilate the vacuum outright
    for m in range(-3, 4):
        assert pi_witt_mode("d", m, P1).apply(vac).is_zero()
        assert pi_witt_mode("d1", m, P1).apply(vac).is_zero()


def _witt_closed_form(kind, m):
    """The d and d1 mode sums, written out by hand."""
    if kind == "d":
        return [("a", "a*", m + 1, -m - 1, 1), ("a", "a*", m, -4 * m, 4),
                ("a1", "a1*", m + 1, -m, 1), ("a1", "a1*", m, 2 - 4 * m, 4)]
    return [("a1", "a*", m - 1, 1 - m, 1), ("a", "a1*", m + 1, -m, 1),
            ("a", "a1*", m, 2 - 4 * m, 4)]


def _weights(op):
    """op's sums with their weights divided back by op.den."""
    return [(*s.fams, s.M, QQ(s.c0) / op.den, QQ(s.c1) / op.den) for s in op.sums]


@pytest.mark.parametrize("params", PARAMS, ids=["r0", "r1"])
def test_pi_witt_sums_pin_the_closed_forms(params):
    for kind in ("d", "d1"):
        for m in range(-20, 21):
            op = pi_witt_mode(kind, m, params)
            assert op.den == 1
            assert _weights(op) == _witt_closed_form(kind, m), (kind, m)


@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("kappa0", [1, QQ(3, 2)], ids=["k1", "k3/2"])
def test_vir_sums_pin_the_closed_forms(r, kappa0):
    params = RepParams(r=r, kappa0=kappa0)
    nu, gamma = QQ(1) / (2 * kappa0), -QQ(1) / (4 * kappa0)
    for m in (-3, -1, 0, 2):
        D = _witt_closed_form("d", m + 1) + [
            ("b", "b", m + 2, gamma, 0), ("b", "b", m + 1, 4 * gamma, 0),
            ("b1", "b1", m, gamma, 0)]
        D1 = _witt_closed_form("d1", m + 1) + [("b", "b1", m, nu, 0)]
        assert _weights(pi_vir_mode("D", m, params)) == D, m
        assert _weights(pi_vir_mode("D1", m, params)) == D1, m


# ---------------------------------------------------------------------------
# the piece tables and the one rule behind every realized operator
# ---------------------------------------------------------------------------

def _is_w_polynomial(f):
    """f is a nonzero ring element in t = w alone: every key (p, u) has
    u = 0, the u-power the rules unpack and ignore, and p >= 0."""
    return (type(f) is RRingElem and not f.is_zero()
            and all(type(p) is int and p >= 0 and u == 0 for p, u in f.terms))


def test_every_table_piece_fits_the_rule():
    # what _field_op assumes of a piece (coeff, f, fams, i): a w-polynomial
    # f, known families, 0 to 3 of them, and a derivative only on a slot of
    # a one- or two-family piece, where a weight can carry the slot's mode
    assert realization._FAMILY_WEIGHT.keys() == fock.ANNIHILATES.keys()
    assert set(realization._TAU_PIECES) == set(AFFINE_GENERATORS)
    assert not set(realization._TAU_PIECES) & set(realization._FIELDS)
    lists = list(realization._FIELDS.values())
    lists += [part for parts in realization._TAU_PIECES.values() for part in parts]
    for pieces in lists:
        for coeff, f, fams, i in pieces:
            assert coeff and _is_w_polynomial(f), pieces
            assert type(fams) is tuple and len(fams) <= 3, pieces
            assert set(fams) <= realization._FAMILY_WEIGHT.keys(), pieces
            assert i is None or 1 <= len(fams) <= 2 and i in range(len(fams)), pieces
    # and what bracket_rhs_op assumes of a G_j row (j, coeff, f, name, nderiv)
    rows = [row for r in (0, 1) for pair in WITT_REP_PAIRS
            for row in witt_rep_gj(pair, r)]
    rows += [row for kappa0 in (1, QQ(3, 2)) for item in PAIRS_ITEMS
             for row in pairs_gj(item, RepParams(r=0, kappa0=kappa0))[1]]
    for row in rows:
        assert _is_w_polynomial(row[2]), row


def test_one_identity_base_and_no_generator_as_a_field():
    for params in (P0, RepParams(r=1, kappa0=QQ(3, 2))):
        assert realization._unit(params) is field_mode("1", -1, params)
    for gen in AFFINE_GENERATORS:
        with pytest.raises(ValueError):
            field_mode(gen, 0, P0)
        with pytest.raises(ValueError):
            bracket_rhs_op([(0, 1, W(0), gen, 0)], 0, 0, P0)


def test_quad_sums_ignore_the_order_of_the_pieces():
    pieces = realization._FIELDS["pi_d1"] + ((QQ(1, 3), W(0), ("b1", "b1"), 0),
                                             (2, W(1), ("b",), 0))
    for k in (-2, 0, 3):
        want = realization._field_op(pieces, k, P0)
        for perm in itertools.permutations(pieces):
            got = realization._field_op(perm, k, P0)
            assert set(got.sums) == set(want.sums), (perm, k)
            assert got.terms == want.terms and got.den == want.den, (perm, k)


def _empty(op):
    """op is a whole operator with neither terms nor sums, which combine
    drops, leaving the zero operator."""
    return (type(op) is ModeOp and (op.terms, op.sums, op.den) == ((), (), 1)
            and combine(((1, op),)) == ())


def test_quad_sums_drop_zero_and_cancelling_pieces():
    def op(pieces, k):
        return realization._field_op(pieces, k, P0)

    d = realization._FIELDS["pi_d"]
    negated = tuple((-c, *rest) for c, *rest in d)
    for k in range(-3, 4):
        assert _empty(op(((0, W(1), ("a", "a*"), 1), (0, W(0), ("b", "b1"), None)), k))
        assert _empty(op(((1, W(0), ("b", "b1"), None), (-1, W(0), ("b", "b1"), None)), k))
        assert _empty(op(((2, W(1), ("a", "a*", "a1*"), None), (1, W(0), ("b",), None),
                          (-2, W(1), ("a", "a*", "a1*"), None), (-1, W(0), ("b",), None)), k))
        assert _empty(op(d + negated, k))
        # P's w-powers cancel against the same powers written out
        assert _empty(op(((1, realization._P, ("b", "b1"), None),
                          (-1, W(2), ("b", "b1"), None), (-4, W(1), ("b", "b1"), None)), k))
        assert op(d + ((0, W(0), ("b", "b"), None),), k).sums == op(d, k).sums
        # k :a1 a1*: cancels the constant weight of w :a1 da1*: at mode k,
        # and the merged sum keeps its p-weight
        cut = op(((1, W(1), ("a1", "a1*"), 1), (k, W(0), ("a1", "a1*"), None)), k)
        assert cut.sums == (NormalSum(("a1", "a1*"), k, 0, 1),)


@pytest.mark.parametrize("params", PARAMS, ids=["r0", "r1"])
def test_quad_sums_derivative_on_either_side(params):
    # :(d b1) b1: (i = 0) and :b1 (d b1): (i = 1) are one field, written as
    # two different mode sums
    states = [FockState.vacuum()] + seeded_states(43, 3, max_degree=2)
    for k in range(-3, 4):
        op_l = realization._field_op(((1, W(0), ("b1", "b1"), 0),), k, params)
        op_r = realization._field_op(((1, W(0), ("b1", "b1"), 1),), k, params)
        assert op_l.sums != op_r.sums
        for s in states:
            assert op_l.apply(s) == op_r.apply(s), k


def test_one_family_pieces_merge_into_terms():
    # chi0 (P da1* + (dP/2) a1*), e1's two chi0 pieces of four w-powers in
    # all, is two terms
    params = RepParams(r=0, kappa0=QQ(3, 2))
    x0 = chi0(params)
    pieces = tuple((x0 * c, *rest) for c, *rest in realization._TAU_PIECES["e1"][1])
    assert len(pieces) == 2 and sum(len(f.terms) for _c, f, *_ in pieces) == 4
    for m in range(-4, 4):
        op = realization._field_op(pieces, m, params)
        want = [(-(m + 1) * x0, (("a1*", m + 2),)), (-(4 * m + 2) * x0, (("a1*", m + 1),))]
        assert op.sums == ()
        assert [(QQ(c) / op.den, fs) for c, fs in op.terms] == [t for t in want if t[0]]


def test_the_constant_piece_is_the_identity_at_total_mode_zero_only():
    for k in range(-4, 3):
        op = realization._field_op(((1, W(0), (), None),), k, P0)
        if k == -1:
            assert (op.terms, op.sums) == (((1, ()),), ())
        else:
            assert _empty(op)
        # at w^2 the identity moves to k = -3
        shifted = realization._field_op(((5, W(2), (), None),), k, P0)
        if k == -3:
            assert (shifted.terms, shifted.sums) == (((5, ()),), ())
        else:
            assert _empty(shifted)


# the tables as written out by hand, one w-power per entry: (j, coeff, p,
# name, nderiv) rows and (coeff, p, fams, i) pieces meaning coeff * w^p * ...

def _hand_witt_gj(pair, r):
    d0 = 1 if r == 0 else 0
    return {
        ("d", "d"): [
            (0, 1, 2, "pi_d", 1), (0, 4, 1, "pi_d", 1),
            (0, 2, 1, "pi_d", 0), (0, 4, 0, "pi_d", 0),
            (1, 2, 2, "pi_d", 0), (1, 8, 1, "pi_d", 0),
            (1, 2 * d0, 2, "1", 0), (1, 8 * d0, 1, "1", 0),
            (1, 4 * d0, 0, "1", 0),
            (2, 4 * d0, 3, "1", 0), (2, 24 * d0, 2, "1", 0),
            (2, 32 * d0, 1, "1", 0),
            (3, 2 * d0, 4, "1", 0), (3, 16 * d0, 3, "1", 0),
            (3, 32 * d0, 2, "1", 0),
        ],
        ("d1", "d1"): [
            (0, 1, 0, "pi_d", 1),
            (1, 2, 0, "pi_d", 0),
            (2, 2 * d0, 1, "1", 0), (2, 4 * d0, 0, "1", 0),
            (3, 2 * d0, 2, "1", 0), (3, 8 * d0, 1, "1", 0),
        ],
        ("d", "d1"): [
            (0, 1, 2, "pi_d1", 1), (0, 4, 1, "pi_d1", 1),
            (0, 3, 1, "pi_d1", 0), (0, 6, 0, "pi_d1", 0),
            (1, 2, 2, "pi_d1", 0), (1, 8, 1, "pi_d1", 0),
        ],
    }[pair]


def _hand_pairs_gj(item, k0):
    k2 = k0 * k0
    return {
        1: [(1, -2 * k0, 0, "1", 0)],
        3: [
            (0, -2 * k0, 1, "1", 0), (0, -4 * k0, 0, "1", 0),
            (1, -2 * k0, 2, "1", 0), (1, -8 * k0, 1, "1", 0),
        ],
        10: [
            (1, 12 * k0, 2, "1", 0), (1, 48 * k0, 1, "1", 0),
            (2, 24 * k0, 3, "1", 0), (2, 144 * k0, 2, "1", 0),
            (2, 192 * k0, 1, "1", 0),
            (3, 12 * k0, 4, "1", 0), (3, 96 * k0, 3, "1", 0),
            (3, 192 * k0, 2, "1", 0),
        ],
        14: [
            (0, -8 * k0, 1, "no_beta1_sq", 0),
            (0, -16 * k0, 0, "no_beta1_sq", 0),
            (0, -8 * k0, 2, "no_dbeta1_beta1", 0),
            (0, -32 * k0, 1, "no_dbeta1_beta1", 0),
            (1, -8 * k0, 2, "no_beta1_sq", 0),
            (1, -32 * k0, 1, "no_beta1_sq", 0),
            (1, 8 * k2, 2, "1", 0), (1, 32 * k2, 1, "1", 0),
            (1, 32 * k2, 0, "1", 0),
            (2, 16 * k2, 3, "1", 0), (2, 96 * k2, 2, "1", 0),
            (2, 128 * k2, 1, "1", 0),
            (3, 8 * k2, 4, "1", 0), (3, 64 * k2, 3, "1", 0),
            (3, 128 * k2, 2, "1", 0),
        ],
    }[item]


_HAND_P_DBETA = ((1, 2, ("b",), 0), (4, 1, ("b",), 0))


@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("kappa0", [1, QQ(3, 2), QQ(2, 3)], ids=["k1", "k3/2", "k2/3"])
def test_tables_pin_the_hand_expanded_forms(r, kappa0):
    # the w-polynomial tables give the right-hand sides, pairs in order, and
    # the P db modes of the tables written one w-power per entry
    params = RepParams(r=r, kappa0=kappa0)
    data = [(witt_rep_gj(pair, r), _hand_witt_gj(pair, r)) for pair in WITT_REP_PAIRS]
    data += [(pairs_gj(item, params)[1], _hand_pairs_gj(item, params.kappa0))
             for item in PAIRS_ITEMS]
    for j_terms, hand in data:
        hand = [(j, c, W(p), name, nderiv) for j, c, p, name, nderiv in hand]
        for m, n, shift in itertools.product(range(-5, 6), range(-5, 6), range(-2, 3)):
            want = bracket_rhs_op(hand, m, n, params, shift)
            assert bracket_rhs_op(j_terms, m, n, params, shift) == want, (m, n, shift)
    pieces = tuple((c, W(p), fams, i) for c, p, fams, i in _HAND_P_DBETA)
    for k in range(-12, 13):
        got = field_mode("P_dbeta", k, params)
        want = realization._field_op(pieces, k, params)
        assert (got.terms, got.sums, got.den) == (want.terms, want.sums, want.den), k


@pytest.mark.parametrize("params", PARAMS, ids=["r0", "r1"])
def test_witt_rep_relations(params):
    states = [FockState.vacuum()] + seeded_states(51, 2, max_degree=2)
    for pair in WITT_REP_PAIRS:
        data = witt_rep_gj(pair, params.r)
        for m in range(-2, 3):
            for n in range(-2, 3):
                check = residual("pi_" + pair[0], "pi_" + pair[1], data, m, n,
                                 params)
                for s in states:
                    assert check(s).is_zero(), (pair, m, n)


@pytest.mark.parametrize("params", PARAMS, ids=["r0", "r1"])
def test_witt_rep_bracket_sign(params):
    # measured closure: [pi(d1)_0, pi(d1)_1] acts as -pi(d_0), the sign
    # opposite to the abstract table's (n-m) d_{m+n-1}
    states = [FockState.vacuum()] + seeded_states(61, 2, max_degree=2)
    op0 = pi_witt_mode("d1", 0, params)
    op1 = pi_witt_mode("d1", 1, params)
    target = pi_witt_mode("d", 0, params)
    for s in states:
        assert commutator_apply(op0, op1, s) == target.apply(s).scale(-1)


# ---------------------------------------------------------------------------
# current-mode bracket identities (items 1, 3, 10, 14) and the audit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "params",
    [RepParams(r=0, kappa0=1), RepParams(r=0, kappa0=2),
     RepParams(r=1, kappa0=2)],
    ids=["r0k1", "r0k2", "r1k2"],
)
def test_pairs_items(params):
    states = [FockState.vacuum()] + seeded_states(71, 2, max_degree=2)
    for item in PAIRS_ITEMS:
        field, data = pairs_gj(item, params)
        for m in range(-3, 4):
            for n in range(-3, 4):
                check = residual(field, field, data, m, n, params)
                for s in states:
                    assert check(s).is_zero(), (item, m, n)


@pytest.mark.parametrize("params", PARAMS, ids=["r0", "r1"])
def test_zero_cross_bracket(params):
    # the two current families commute exactly (the mixed central class
    # acts by zero), so the empty translation must leave zero residual
    states = [FockState.vacuum()] + seeded_states(81, 2, max_degree=2)
    for m in range(-2, 3):
        for n in range(-2, 3):
            check = residual("beta", "beta1", [], m, n, params)
            for s in states:
                assert check(s).is_zero()


@pytest.mark.parametrize("params", PARAMS, ids=["r0", "r1"])
def test_residual_follows_the_modes_of_each_call(params):
    # with no right-hand side the residual is the commutator itself,
    # [b_m, b_n] = -2 m kappa0 delta_{m+n,0}, so operators built for the
    # wrong modes would show
    states = [FockState.vacuum()] + seeded_states(83, 2, max_degree=2)
    for m in range(-2, 3):
        for n in range(-2, 3):
            check = residual("beta", "beta", [], m, n, params)
            for s in states:
                want = -2 * m * params.kappa0 if m + n == 0 else 0
                assert check(s) == s.scale(want), (m, n)


def test_identity_field_mode():
    s = seeded_states(91, 1)[0]
    unit = field_mode("1", -1, P0)
    assert bracket_rhs_op([(0, 5, W(0), "1", 0)], -1, 0, P0) == ((5, unit),)
    assert bracket_rhs_op([(0, 5, W(0), "1", 0)], 0, 0, P0) == ()
    rhs = bracket_rhs_op([(0, 5, W(2), "1", 0)], -2, -1, P0)
    assert apply_combination(rhs, s) == s.scale(5)


@pytest.mark.parametrize("term, message", [
    ((-1, 0, W(0), "1", 0), "negative bracket order -1"),
    ((0, 0, W(0), "1", 2), "unsupported derivative order 2"),
    ((0, 0, W(0), "gamma", 0), "unknown field 'gamma'"),
], ids=["negative-j", "second-derivative", "unknown-field"])
def test_bracket_rhs_op_checks_every_term(term, message):
    # a term with a zero coefficient, as r = 1 makes witt_rep_gj's anomaly
    # terms 2*d0, or with a zero binom(m, j) builds nothing, but is checked
    good = witt_rep_gj(("d1", "d1"), 1)
    assert any(not coeff for _j, coeff, _f, _name, _nd in good)
    j, _coeff, *rest = term
    cases = [([term], 0), (good + [term], 1), ([term] + good, -2),
             ([(j, 7, *rest)], 0)]
    if j >= 0:  # binom(1, 3) = 0
        cases += [([(3, 7, *rest)], 1)]
    for j_terms, m in cases:
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            bracket_rhs_op(j_terms, m, 0, P0)


def _rhs_term_by_term(j_terms, m, n, s, params, shift):
    """sum_j binom(m, j) (G_j)_{m+n-j+shift} on s, each w-power of each term
    of G_j applied apart: (w^p F)_k = F_{k+p} and
    (w^p dF)_k = -(k+p) F_{k+p-1}."""
    out = FockState()
    for j, coeff, f, name, nderiv in j_terms:
        for (p, _u), c in f.terms.items():
            K = m + n - j + shift + p
            if nderiv:
                image = field_mode(name, K - 1, params).apply(s).scale(-K)
            else:
                image = field_mode(name, K, params).apply(s)
            out += image.scale(binom(m, j) * coeff * c)
    return out


@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("kappa0", [1, QQ(3, 2)], ids=["k1", "k3/2"])
def test_bracket_rhs_op_names_each_field_mode_once(r, kappa0):
    params = RepParams(r=r, kappa0=kappa0)
    data = [witt_rep_gj(pair, r) for pair in WITT_REP_PAIRS]
    data += [pairs_gj(item, params)[1] for item in PAIRS_ITEMS]
    states = [FockState.vacuum()] + seeded_states(97, 2, max_degree=2)
    merged = 0
    for j_terms in data:
        for m, n, shift in [(2, -1, 0), (-1, -2, 0), (3, 0, 0), (0, 1, 1), (-2, 2, -2)]:
            rhs = bracket_rhs_op(j_terms, m, n, params, shift)
            ops = [op for _c, op in rhs]
            assert len(set(ops)) == len(ops)
            assert all(c and type(op) is ModeOp and (op.terms or op.sums)
                       for c, op in rhs)
            # the field modes the nonzero terms name, each with the orders j
            # whose terms name it
            named = {}
            for j, coeff, f, name, nderiv in j_terms:
                for (p, _u), c in f.terms.items():
                    if binom(m, j) * coeff * c:
                        key = (name, m + n - j + shift + p - nderiv)
                        named.setdefault(key, set()).add(j)
            merged += sum(len(js) > 1 for js in named.values())
            assert set(ops) <= {field_mode(name, k, params) for name, k in named}
            for s in states:
                assert apply_combination(rhs, s) == _rhs_term_by_term(
                    j_terms, m, n, s, params, shift), (j_terms, m, n, shift)
    assert merged


_AUDIT_LHS = re.compile(r"audit (.*): \[(\w+)_(-?\d+), \w+_(-?\d+)\]$")


def _audit(monkeypatch, j_terms=None, witt_r=None, **kw):
    """run_suite("audit") at P0's r and kappa0, the weight-one current
    line's G_j data replaced by j_terms and the derivation line's taken at
    witt_r if given: the report's rows as {(field, m, n, state): residual},
    and the number of right-hand sides of each commutator_apply call."""
    if j_terms is not None:
        monkeypatch.setattr(suites, "pairs_gj", lambda item, params: ("beta", j_terms))
    if witt_r is not None:
        monkeypatch.setattr(suites, "witt_rep_gj", lambda pair, r: witt_rep_gj(pair, witt_r))
    calls = []
    commutator = suites.commutator_apply
    monkeypatch.setattr(suites, "commutator_apply", lambda A, B, t, *rhs:
                        calls.append(len(rhs)) or commutator(A, B, t, *rhs))
    rep = suites.run_suite(suites.SuiteConfig("audit", r=P0.r, kappa0=P0.kappa0, **kw))
    monkeypatch.undo()
    rows = {}
    for c in rep.checks:
        _line, field, m, n = _AUDIT_LHS.match(c["lhs"]).groups()
        assert c["rhs"] == "mode-translated bracket, no shift"
        assert c["pass"] == (c["residual"] is None)
        rows[field, int(m), int(n), c["state"]] = c["residual"]
    return rows, calls


def test_convention_audit_reports_shift(monkeypatch):
    rows, _ = _audit(monkeypatch, window=2)
    assert len(rows) == 2 * 25 and not any(rows.values())

    # the central term misplaced by one w-power: where m + n = 0 the audit
    # flags the failure and reports the uniform repairing shift, and where
    # m + n = -1 the shift -2 moves the stray term off the window's modes
    bad = [(1, -2 * P0.kappa0, W(1), "1", 0)]
    rows, _ = _audit(monkeypatch, bad, window=2)
    for (field, m, n, _state), text in rows.items():
        if field == "beta" and m and m + n in (0, -1):
            assert text == ("identity holds after the uniform mode shift "
                            "K -> K + %d" % (-1 if m + n == 0 else -2)), (m, n)
        else:
            assert text is None, (field, m, n)

    # a doubled central term no shift repairs
    rows, _ = _audit(monkeypatch, [(1, -4 * P0.kappa0, W(0), "1", 0)], window=2)
    for (field, m, n, _state), text in rows.items():
        if field == "beta" and m and m + n == 0:
            assert text == "no uniform mode shift in {-2,-1,1,2} repairs it"
        else:
            assert text is None, (field, m, n)


@pytest.mark.parametrize("case", ["holds", "shifted", "anomaly"])
def test_convention_audit_checks_each_unordered_pair_once(case, monkeypatch):
    """With one field on both sides, one commutator_apply call per unordered
    (m, n) and state checks both orders, and a failing order alone retries
    the shifts; the rows, shifts included, are those of one call per order
    on the bare state."""
    j_beta, witt_r = {
        "holds": (pairs_gj(1, P0)[1], 0),
        "shifted": ([(1, -2 * P0.kappa0, W(1), "1", 0)], 0),
        "anomaly": (pairs_gj(1, P0)[1], 1),
    }[case]
    rows, calls = _audit(monkeypatch, j_beta, witt_r, window=3,
                         states="random:2:3", seed=61)
    cfg = suites.SuiteConfig("audit", states="random:2:3", seed=61)
    states = suites.build_states(cfg)
    lines = {"beta": j_beta, "pi_d1": witt_rep_gj(("d1", "d1"), witt_r)}
    want, retries = {}, 0
    for (field, j_terms), (m, n) in itertools.product(
            lines.items(), itertools.product(range(-2, 3), repeat=2)):
        A, B = field_mode(field, m, P0), field_mode(field, n, P0)
        for label, s in states:
            text = None
            if not commutator_apply(A, B, s, bracket_rhs_op(j_terms, m, n, P0)).is_zero():
                shift = next((k for k in suites.AUDIT_SHIFTS if commutator_apply(
                    A, B, s, bracket_rhs_op(j_terms, m, n, P0, shift=k)).is_zero()), None)
                retries += 4 if shift is None else suites.AUDIT_SHIFTS.index(shift) + 1
                text = ("no uniform mode shift in {-2,-1,1,2} repairs it" if shift is None
                        else "identity holds after the uniform mode shift K -> K + %d" % shift)
            want[field, m, n, label] = text
    assert rows == want
    assert all(text is None for text in rows.values()) == (case == "holds")
    # two lines, 10 unordered pairs m != n and 5 pairs m == n, per state
    assert calls.count(2) == 2 * 10 * len(states)
    assert calls.count(1) == 2 * 5 * len(states) + retries
    assert bool(retries) == (case != "holds")


# ---------------------------------------------------------------------------
# the extended derivation families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("kappa0", [1, 2])
def test_vir_like_kind_brackets(r, kappa0):
    params = RepParams(r=r, kappa0=kappa0)
    states = [FockState.vacuum()] + seeded_states(101, 2, max_degree=2)
    for kind, fam in (("D", "d"), ("D1", "d1")):
        for m in range(-2, 3):
            for n in range(-2, 3):
                op_m = pi_vir_mode(kind, m, params)
                op_n = pi_vir_mode(kind, n, params)
                rhs = vir_realize(
                    vir_bracket((fam, m + 1), (fam, n + 1)), params
                )
                for s in states:
                    lhs_val = commutator_apply(op_m, op_n, s)
                    assert lhs_val == apply_combination(rhs, s), (kind, m, n)


def _alternative_realization(vec, params, c2):
    """vec realized with the alternative central assignment: c1 acts by zero
    and c2 by c2, as the central-free realization plus (c2 part) * unit."""
    free = Vec({k: c for k, c in vec.terms.items() if k[0] not in ("c1", "c2")})
    unit = field_mode("1", -1, params)
    return combine(vir_realize(free, params)
                   + ((vec.terms.get(("c2", 0), 0) * c2, unit),))


@pytest.mark.parametrize("r", [0, 1])
def test_vir_mixed_bracket_central_mismatch(r):
    # the mixed bracket closes on the correct non-central modes but carries
    # no central term, while the abstract table demands phi1 c1; the exact
    # discrepancy is frozen here
    params = RepParams(r=r, kappa0=1)
    states = [FockState.vacuum()] + seeded_states(111, 2, max_degree=2)
    cases = [(1, 2, QQ(336)), (0, 1, QQ(12))]
    for m, n, expect_phi in cases:
        assert phi1(("d", m + 1), ("d1", n + 1)) == expect_phi
        op_m = pi_vir_mode("D", m, params)
        op_n = pi_vir_mode("D1", n, params)
        vec = vir_bracket(("d", m + 1), ("d1", n + 1))
        rhs = vir_realize(vec, params)
        gap = -expect_phi * central_charge(r)
        for s in states:
            resid = commutator_apply(op_m, op_n, s) - apply_combination(rhs, s)
            assert resid == s.scale(gap), (m, n)
        # the alternative central assignment (zero on the first class,
        # (2 delta_{r,0}+1)/12 on the second) reproduces the measurement
        alt = _alternative_realization(
            vec, params, QQ(2 * (1 if r == 0 else 0) + 1, 12)
        )
        for s in states:
            assert commutator_apply(op_m, op_n, s) == apply_combination(alt, s)


@pytest.mark.parametrize("r", [0, 1])
def test_vir_alt_central_like_kind(r):
    # the alternative assignment agrees with the standard one on like-kind
    # pairs, so it passes there as well
    params = RepParams(r=r, kappa0=1)
    s = seeded_states(121, 1, max_degree=2)[0]
    c2 = QQ(2 * (1 if r == 0 else 0) + 1, 12)
    for kind, fam, m, n in (("D", "d", -2, 0), ("D1", "d1", -2, 1)):
        vec = vir_bracket((fam, m + 1), (fam, n + 1))
        assert any(key[0] == "c1" for key in vec.terms)
        std = vir_realize(vec, params)
        alt = _alternative_realization(vec, params, c2)
        assert apply_combination(std, s) == apply_combination(alt, s)


@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("kappa0", [1, QQ(3, 2)], ids=["k1", "k3/2"])
def test_vir_central_values_fit_the_alternative_assignment(r, kappa0):
    # at B0 = 0 and B1 = 0 the vacuum coefficient of a realized bracket is
    # its c-number: phi1 times central_charge(r) on like-kind pairs and 0 on
    # mixed ones, which c1 -> 0, c2 -> (2 delta_{r,0} + 1)/12 reproduces
    zero = RepParams(r=r, kappa0=kappa0, B0=0, B1=((0, 0), (0, 0)))
    vac = FockState.vacuum()
    c2 = QQ(2 * (1 if r == 0 else 0) + 1, 12)
    for kA, kB in (("D", "D"), ("D1", "D1"), ("D", "D1")):
        for m in range(-2, 3):
            for n in range(-2, 3):
                got = commutator_apply(pi_vir_mode(kA, m, zero),
                                       pi_vir_mode(kB, n, zero), vac)
                value = got.terms.get(fock.VACUUM_MONO, 0)
                x, y = (kA.lower(), m + 1), (kB.lower(), n + 1)
                want = central_charge(r) * phi1(x, y) if kA == kB else 0
                assert value == want, (kA, m, kB, n)
                assert value == c2 * phi2(x, y), (kA, m, kB, n)


@pytest.mark.parametrize("r", [0, 1])
def test_vir_pure_central_probes(r):
    # with the zero-mode data switched off, the commutator on the vacuum is
    # exactly the central scalar demanded by the cocycle
    params = RepParams(r=r, kappa0=1, B0=0, B1=((0, 0), (0, 0)))
    vac = FockState.vacuum()
    cc = central_charge(r)

    assert phi1(("d1", 3), ("d1", -2)) == -60
    got = commutator_apply(
        pi_vir_mode("D1", 2, params), pi_vir_mode("D1", -3, params), vac
    )
    assert got == vac.scale(-60 * cc)
    assert got == vac.scale(30 if r == 0 else 10)

    assert phi1(("d1", 2), ("d1", -1)) == -12
    got = commutator_apply(
        pi_vir_mode("D1", 1, params), pi_vir_mode("D1", -2, params), vac
    )
    assert got == vac.scale(-12 * cc)
    assert got == vac.scale(6 if r == 0 else 2)

    got = commutator_apply(
        pi_vir_mode("D1", 0, params), pi_vir_mode("D1", -1, params), vac
    )
    assert got.is_zero()

    assert phi1(("d", -1), ("d", 1)) == 12
    got = commutator_apply(
        pi_vir_mode("D", -2, params), pi_vir_mode("D", 0, params), vac
    )
    assert got == vac.scale(12 * cc)
    assert got == vac.scale(-6 if r == 0 else -2)
