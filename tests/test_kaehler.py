"""Reduction of one-forms modulo exact forms, against a linear-algebra oracle.

The oracle puts a finite window of monomial one-forms t^k dt, t^k u dt,
t^k du, t^k u du (|k| <= J) in a vector space, spans the true relations
(module relations of Omega^1 and exact forms d(t^k), d(t^k u)) inside the
window, and reduces probes against an exact RREF of that span.  Relations
are genuinely valid, so membership in the span certifies the class value;
probes stay |k| <= J-3 so reductions cannot fall off the window edge.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from threepv.kaehler import (
    CohomClass,
    OneForm,
    differential,
    lambda_coeff,
    mu_oracle,
    pairing,
    reduce_mod_dR,
)
from threepv.ring import RRingElem
from threepv.scalars import QQ

J = 14  # window half-width for the oracle


# --- exact linear algebra oracle -------------------------------------------

def basis_index():
    """Column index for each monomial one-form in the window."""
    idx = {}
    for k in range(-J, J + 1):
        for uu in (0, 1):
            idx[("dt", k, uu)] = len(idx)
            idx[("du", k, uu)] = len(idx)
    return idx


IDX = basis_index()


def form_to_vec(form):
    vec = {}
    for (k, uu), c in form.ft.terms.items():
        assert -J <= k <= J, "probe fell off the window"
        vec[IDX[("dt", k, uu)]] = QQ(c)
    for (k, uu), c in form.fu.terms.items():
        assert -J <= k <= J, "probe fell off the window"
        vec[IDX[("du", k, uu)]] = QQ(c)
    return vec


def module_relation_rows():
    """Rows spanning the submodule (u du - (t+2) dt) * R inside the window."""
    rows = []
    for j in range(-J, J):
        # t^j * (u du - (t+2) dt)
        rows.append(
            {
                IDX[("du", j, 1)]: QQ(1),
                IDX[("dt", j + 1, 0)]: QQ(-1),
                IDX[("dt", j, 0)]: QQ(-2),
            }
        )
    for j in range(-J, J - 1):
        # t^j u * (u du - (t+2) dt)
        rows.append(
            {
                IDX[("du", j + 2, 0)]: QQ(1),
                IDX[("du", j + 1, 0)]: QQ(4),
                IDX[("dt", j + 1, 1)]: QQ(-1),
                IDX[("dt", j, 1)]: QQ(-2),
            }
        )
    return rows


def exact_form_rows():
    rows = []
    for k in range(-J + 1, J + 1):
        if k:
            rows.append({IDX[("dt", k - 1, 0)]: QQ(k)})  # d(t^k)
    for k in range(-J + 1, J + 1):
        row = {IDX[("du", k, 0)]: QQ(1)}  # d(t^k u)
        if k:
            row[IDX[("dt", k - 1, 1)]] = QQ(k)
        rows.append(row)
    return rows


def rref(rows):
    """Reduced row echelon form as {pivot_col: row}, exact rationals."""
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            if col in pivots:
                c = row[col]
                for cc, v in pivots[col].items():
                    s = row.get(cc, 0) - c * v
                    if s:
                        row[cc] = s
                    else:
                        row.pop(cc, None)
            else:
                inv = 1 / row[col]
                pivots[col] = {cc: v * inv for cc, v in row.items()}
                break
    # back-substitute for full reduction
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for other_col, other in pivots.items():
            if other_col < col and col in other:
                c = other[col]
                for cc, v in row.items():
                    s = other.get(cc, 0) - c * v
                    if s:
                        other[cc] = s
                    else:
                        other.pop(cc, None)
    return pivots


def residue(pivots, vec):
    vec = dict(vec)
    while True:
        hit = None
        for col in sorted(vec):
            if col in pivots:
                hit = col
                break
        if hit is None:
            return vec
        c = vec[hit]
        for cc, v in pivots[hit].items():
            s = vec.get(cc, 0) - c * v
            if s:
                vec[cc] = s
            else:
                vec.pop(cc, None)


FULL_PIVOTS = rref(module_relation_rows() + exact_form_rows())
MODULE_PIVOTS = rref(module_relation_rows())

W0_VEC = {IDX[("dt", -1, 0)]: QQ(1)}
W1_VEC = {IDX[("dt", -1, 1)]: QQ(1)}


def test_window_does_not_collapse_cohomology():
    r0 = residue(FULL_PIVOTS, W0_VEC)
    r1 = residue(FULL_PIVOTS, W1_VEC)
    assert r0 and r1 and r0 != r1


def oracle_class_matches(form, cls):
    """True iff form - cls is in the window's relation span."""
    vec = form_to_vec(form)
    for col, c in ((IDX[("dt", -1, 0)], cls.q0), (IDX[("dt", -1, 1)], cls.q1)):
        if c:
            s = vec.get(col, 0) - c
            if s:
                vec[col] = s
            else:
                vec.pop(col, None)
    return not residue(FULL_PIVOTS, vec)


def monomial_form(which, k, uu, coeff=1):
    form = OneForm()
    elem = RRingElem.monomial(k, uu, coeff)
    if which == "dt":
        form.ft = elem
    else:
        form.fu = elem
    return form


# --- reduce_mod_dR against the oracle --------------------------------------

def test_reduce_matches_oracle_on_all_monomial_forms():
    for which in ("dt", "du"):
        for uu in (0, 1):
            for k in range(-(J - 3), J - 2):
                form = monomial_form(which, k, uu)
                cls = reduce_mod_dR(form)
                assert oracle_class_matches(form, cls), (which, k, uu, cls)


def test_reduce_matches_oracle_on_random_forms():
    rng = random.Random(20260816)
    for _ in range(60):
        form = OneForm()
        for _ in range(rng.randint(1, 5)):
            which = rng.choice(("dt", "du"))
            k = rng.randint(-(J - 4), J - 4)
            uu = rng.randint(0, 1)
            c = rng.randint(-9, 9)
            form = form + monomial_form(which, k, uu, c)
        cls = reduce_mod_dR(form)
        assert oracle_class_matches(form, cls)


# --- closed facts -----------------------------------------------------------

def test_reduce_t_k_dt_window_20():
    for k in range(-20, 21):
        cls = reduce_mod_dR(monomial_form("dt", k, 0))
        want = CohomClass(1 if k == -1 else 0, 0)
        assert cls == want, (k, cls)


def test_reduce_kills_exact_forms_seeded():
    rng = random.Random(7)
    for _ in range(200):
        f = RRingElem()
        for _ in range(rng.randint(1, 6)):
            f = f + RRingElem.monomial(rng.randint(-10, 10), rng.randint(0, 1), rng.randint(-20, 20))
        assert reduce_mod_dR(differential(f)).is_zero()


def test_lambda_frozen_values():
    # signed Catalan numbers with rational stragglers at the bottom
    table = {
        -5: 0,
        -4: 0,
        -3: 0,
        -2: QQ(1, 2),
        -1: 1,
        0: -1,
        1: 2,
        2: -5,
        3: 14,
        4: -42,
        5: 132,
    }
    for j, want in table.items():
        assert lambda_coeff(j) == QQ(want), j


def test_lambda_matches_reduction_engine():
    for j in range(-9, 10):
        cls = reduce_mod_dR(monomial_form("dt", j, 1))
        assert cls.q0 == 0
        assert cls.q1 == lambda_coeff(j), j


def test_lambda_recursions():
    for j in range(0, 12):
        assert (j + 2) * lambda_coeff(j) == -(4 * j + 2) * lambda_coeff(j - 1)
    for j in range(-12, -1):
        assert (4 * j + 6) * lambda_coeff(j) == -(j + 3) * lambda_coeff(j + 1)


# --- differential -----------------------------------------------------------

def test_differential_examples():
    d = differential(RRingElem.t_pow(3))
    assert d.ft == RRingElem({(2, 0): 3}) and d.fu.is_zero()
    d = differential(RRingElem.monomial(-2, 1))
    assert d.ft == RRingElem({(-3, 1): -2})
    assert d.fu == RRingElem({(-2, 0): 1})


coeffs = st.integers(min_value=-9, max_value=9)
monos = st.tuples(st.integers(min_value=-4, max_value=4), st.integers(min_value=0, max_value=1))
ring_elems = st.dictionaries(monos, coeffs, max_size=3).map(RRingElem)


@given(ring_elems, ring_elems)
@settings(max_examples=40)
def test_differential_leibniz_in_module(f, g):
    # d(fg) - f dg - g df lies in the module-relation span (no exact forms
    # needed): Leibniz holds in Omega^1 itself, not just in cohomology.
    lhs = differential(f * g)
    rhs = differential(g).rmul(f) + differential(f).rmul(g)
    diff = lhs - rhs
    assert not residue(MODULE_PIVOTS, form_to_vec(diff))


@given(ring_elems, ring_elems)
@settings(max_examples=30)
def test_pairing_antisymmetric(f, g):
    assert (pairing(f, g) + pairing(g, f)).is_zero()


# --- the pairing's frozen values --------------------------------------------

def test_pairing_w0_values():
    # like-kind pairs produce w0 exactly on the diagonal windows
    for m in range(-6, 7):
        for n in range(-6, 7):
            plain = pairing(RRingElem.t_pow(m), RRingElem.t_pow(n))
            assert plain.q1 == 0
            assert plain.q0 == (n if m + n == 0 else 0)

            mixed = pairing(RRingElem.t_pow(m), RRingElem.monomial(n, 1))
            assert mixed.q0 == 0

            uu = pairing(RRingElem.monomial(m, 1), RRingElem.monomial(n, 1))
            want = QQ(0)
            if m + n == -2:
                want += n + 1
            if m + n == -1:
                want += 4 * n + 2
            assert uu.q0 == want, (m, n)


def test_mu_oracle_frozen_values():
    assert mu_oracle(1, 1) == -2
    assert mu_oracle(2, -1) == 2
    assert mu_oracle(2, 2) == -28
    assert mu_oracle(-1, 2) == -1
    assert mu_oracle(0, 5) == 0
    for m in range(-5, 6):
        for n in range(-5, 6):
            if m + n <= -2:
                assert mu_oracle(m, n) == 0, (m, n)


def test_mu_oracle_is_minus_m_lambda():
    for m in range(-6, 7):
        for n in range(-6, 7):
            assert mu_oracle(m, n) == -m * lambda_coeff(m + n - 1)
