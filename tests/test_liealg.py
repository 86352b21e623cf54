"""Bracket tables, cocycles, and the two routes to the affine algebra."""

import gc
import inspect
import itertools
import weakref

import pytest

from threepv import liealg, suites
from threepv.kaehler import lambda_coeff, mu_oracle, pairing
from threepv.liealg import (
    CENTRAL_FAMILIES,
    affine_bracket,
    check_cocycle_identity,
    check_jacobi,
    coboundary_window_test,
    heis_bracket,
    kassel_bracket,
    mu_closed_form,
    phi1,
    phi2,
    vir_bracket,
    witt_bracket,
)
from threepv.ring import RRingElem, witt_bracket_geometric
from threepv.scalars import QQ, Vec


def witt_gens(window):
    return [(k, m) for k in ("d", "d1") for m in range(-window, window + 1)]


def affine_gens(window):
    fams = ("e", "e1", "f", "f1", "h", "h1")
    return [(k, m) for k in fams for m in range(-window, window + 1)]


def antisym_violations(bracket, gens):
    """The antisymmetry entries of check_jacobi, whatever Jacobi gives."""
    return [(where, res) for where, res in check_jacobi(bracket, gens)
            if where[0] == "antisym"]


# --- witt bracket -----------------------------------------------------------

def test_witt_bracket_matches_geometric_window_12():
    for m in range(-12, 13):
        for n in range(-12, 13):
            for ki in ("d", "d1"):
                for kj in ("d", "d1"):
                    closed = witt_bracket((ki, m), (kj, n))
                    geo = witt_bracket_geometric((ki, m), (kj, n))
                    assert closed.terms == geo.terms, ((ki, m), (kj, n))


def test_witt_antisymmetry_and_jacobi():
    assert check_jacobi(witt_bracket, witt_gens(4)) == []


# --- mu ----------------------------------------------------------------------

def test_mu_closed_form_frozen():
    assert mu_closed_form(1, 0) == 1
    assert mu_closed_form(1, 1) == -2
    assert mu_closed_form(2, -1) == 2
    assert mu_closed_form(2, 2) == -28
    assert mu_closed_form(2, -3) == -1
    assert mu_closed_form(0, 7) == 0


def test_mu_closed_form_matches_reduction_oracle():
    # the closed formula against the Kaehler engine, across the full window
    for m in range(-6, 7):
        for n in range(-6, 7):
            assert mu_closed_form(m, n) == mu_oracle(m, n), (m, n)


def test_mu_vanishes_low():
    for m in range(-8, 9):
        for n in range(-8, 9):
            if m + n <= -2:
                assert mu_closed_form(m, n) == 0


# --- cocycles ----------------------------------------------------------------

def test_phi1_frozen_examples():
    assert phi1(("d1", -1), ("d1", 2)) == 12
    assert phi1(("d", -1), ("d", 1)) == 12
    assert phi1(("d1", 2), ("d", 1)) == -12
    assert phi1(("d", 1), ("d1", 2)) == 12
    assert phi2(("d1", -1), ("d1", 2)) == -24
    assert phi2(("d", -1), ("d", 1)) == -24
    assert phi2(("d1", 2), ("d", 1)) == 0


def test_phi1_mixed_vanishes_low():
    for k in range(-6, 7):
        for l in range(-6, 7):
            if k + l <= -2:
                assert phi1(("d1", k), ("d", l)) == 0


def test_phi1_mixed_follows_its_hypergeometric_recurrence():
    # phi1(d1_k, d_l) = (k-1) k l H(k+l), with H built by its term ratio
    # H(s+1) / H(s) = -2(2s-1)/(s+2) from H(-1) = -1 and H = 0 below,
    # independently of the closed form through lambda
    H = {s: 0 for s in range(-20, -1)}
    H[-1] = QQ(-1)
    for s in range(-1, 20):
        H[s + 1] = H[s] * QQ(-2 * (2 * s - 1), s + 2)
    for k in range(-10, 11):
        for l in range(-10, 11):
            assert phi1(("d1", k), ("d", l)) == (k - 1) * k * l * H[k + l], (k, l)
    # the ratio read off phi1 itself, at k = 40 so that (k-1) k l != 0
    h = {s: QQ(phi1(("d1", 40), ("d", s - 40)), 39 * 40 * (s - 40))
         for s in range(-5, 32)}
    assert all(h[s] == 0 for s in range(-5, -1)) and h[-1] == -1
    for s in range(-1, 31):
        assert (s + 2) * h[s + 1] == -2 * (2 * s - 1) * h[s], s


def test_lambda_and_mu_are_ints_where_integral():
    for j in range(-1, 40):
        assert type(lambda_coeff(j)) is int, j
    for m in range(-12, 13):
        for n in range(-m, 13):
            assert type(mu_closed_form(m, n)) is int, (m, n)


def test_cocycle_identity_window_6():
    # phi1 and phi2 are the c1 and c2 coefficients of vir_bracket, through
    # which the check reads them
    assert vir_bracket(("d", 1), ("d", -1)).terms.keys() >= {("c1", 0), ("c2", 0)}
    gens = [(kind, m) for kind in ("d", "d1") for m in range(-4, 5)]
    for x in gens:
        for y in gens:
            terms = vir_bracket(x, y).terms
            assert (terms.get(("c1", 0), 0), terms.get(("c2", 0), 0)) == (
                phi1(x, y), phi2(x, y)), (x, y)
    assert check_cocycle_identity(6) == []


def test_not_coboundary_window_6():
    for phi in (phi1, phi2):
        res = coboundary_window_test(phi, 6)
        assert res["feasible"] is False
        assert res["certificate"], "expected an explicit Farkas certificate"
        # re-verify the certificate here, independently of the module's check
        total_vec = Vec()
        total_phi = QQ(0)
        for (x, y), c in res["certificate"]:
            total_vec += witt_bracket(x, y).scale(c)
            total_phi += c * phi(x, y)
        assert total_vec.is_zero() and total_phi != 0


def test_zero_cocycle_is_coboundary():
    res = coboundary_window_test(lambda i, j: QQ(0), 3)
    assert res["feasible"] is True


def test_coboundary_detects_actual_coboundary():
    # phi(x,y) = psi([x,y]) for psi = "coefficient of d_0" is a coboundary
    def phi(i, j):
        return witt_bracket(i, j).terms.get(("d", 0), QQ(0))

    res = coboundary_window_test(phi, 4)
    assert res["feasible"] is True
    psi = res["psi"]
    # int-first brackets must not turn the pivot inverses into floats
    assert {type(v) for v in psi.values()} <= {int, QQ}
    gens = witt_gens(4)
    for x, y in itertools.combinations(gens, 2):
        vec = witt_bracket(x, y)
        val = sum(psi.get(w, 0) * c for w, c in vec.terms.items())
        assert type(val) in (int, QQ)
        assert val == phi(x, y)


# --- heisenberg --------------------------------------------------------------

def test_heis_bracket_frozen():
    assert heis_bracket(("b", 2), ("b", -2)).terms == {("one0", 0): QQ(-4)}
    assert heis_bracket(("b", 1), ("b", 1)).is_zero()
    assert heis_bracket(("b1", 0), ("b1", -2)).terms == {("one0", 0): QQ(-2)}
    assert heis_bracket(("b1", 0), ("b1", -1)).terms == {("one0", 0): QQ(-4)}
    assert heis_bracket(("b1", 1), ("b", 1)).terms == {("one1", 0): QQ(-4)}
    assert heis_bracket(("b", 1), ("b1", 1)).terms == {("one1", 0): QQ(4)}


def test_heis_antisymmetry_and_jacobi():
    gens = [(k, m) for k in ("b", "b1") for m in range(-4, 5)]
    gens += [("one0", 0), ("one1", 0)]
    assert check_jacobi(heis_bracket, gens) == []


# --- affine: closed table vs Kassel construction -----------------------------

def test_affine_table_antisymmetry():
    assert antisym_violations(affine_bracket, affine_gens(3)) == []


def test_affine_kassel_antisymmetry():
    assert antisym_violations(kassel_bracket(), affine_gens(3)) == []


def test_affine_table_fails_jacobi_with_witness():
    x, y, z = ("h", 1), ("e", 1), ("f1", -1)
    cache = {}
    total = Vec()
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        inner = affine_bracket(b, c)
        for w, cw in inner.terms.items():
            if w[0] in ("w0", "w1"):
                continue
            for w2, cw2 in affine_bracket(a, w).terms.items():
                total.add_term(w2, cw * cw2)
    assert total.terms == {("w1", 0): QQ(4)}


def test_affine_kassel_satisfies_jacobi_window_2():
    assert check_jacobi(kassel_bracket(), affine_gens(2)) == []


def test_affine_table_jacobi_violations_exist():
    bad = check_jacobi(affine_bracket, affine_gens(2))
    assert bad
    # every violation is of Jacobi, purely central, in the w1 direction
    for (where, residual) in bad:
        assert where[0] == "jacobi" and set(residual.terms) == {("w1", 0)}


def test_affine_routes_differ_only_in_w1_of_mixed_pairs():
    mixed = {
        ("h", "h1"), ("h1", "h"),
        ("e", "f1"), ("f1", "e"),
        ("e1", "f"), ("f", "e1"),
    }
    fams = ("e", "e1", "f", "f1", "h", "h1")
    kassel = kassel_bracket()
    for ki in fams:
        for kj in fams:
            for m in range(-3, 4):
                for n in range(-3, 4):
                    diff = affine_bracket((ki, m), (kj, n)) - kassel((ki, m), (kj, n))
                    if diff.is_zero():
                        continue
                    assert (ki, kj) in mixed, ((ki, m), (kj, n), diff)
                    assert set(diff.terms) == {("w1", 0)}


def test_affine_kassel_frozen_centrals():
    kassel = kassel_bracket()
    got = kassel(("h", 1), ("h1", 1))
    assert got.terms == {("w1", 0): QQ(-4)}  # 2 * mu(1,1) = -4
    got = affine_bracket(("h", 1), ("h1", 1))
    assert got.terms == {("w1", 0): QQ(4)}  # table: -2 mu(1,1) = +4

    got = kassel(("e", 1), ("f", -1))
    assert got.terms == {("h", 0): QQ(1), ("w0", 0): QQ(-1)}
    assert affine_bracket(("e", 1), ("f", -1)).terms == got.terms

    got = kassel(("e1", 1), ("f1", -3))
    assert got.terms == {("h", 0): QQ(1), ("h", -1): QQ(4), ("w0", 0): QQ(-2)}
    assert affine_bracket(("e1", 1), ("f1", -3)).terms == got.terms


def _reference_kassel(i, j):
    """The Kassel bracket as it was before kassel_bracket kept its monomial
    data: two ring elements, one product and one reduction per call."""
    (ki, m), (kj, n) = i, j
    if ki in CENTRAL_FAMILIES or kj in CENTRAL_FAMILIES:
        return Vec()
    x, fx = ki[0], RRingElem.monomial(m, 1 if ki.endswith("1") else 0)
    y, fy = kj[0], RRingElem.monomial(n, 1 if kj.endswith("1") else 0)
    out = Vec()
    prod = fx * fy
    for (z, c) in liealg._SL2_BRACKET.get((x, y), ()):
        for (k, uu), cc in prod.terms.items():
            out.add_term((z + ("1" if uu else ""), k), c * cc)
    fv = liealg._SL2_FORM.get((x, y))
    if fv:
        cls = pairing(fx, fy)
        out.add_term(("w0", 0), fv * cls.q0)
        out.add_term(("w1", 0), fv * cls.q1)
    return out


def test_run_scoped_kassel_matches_the_reference():
    gens = affine_gens(6) + [("w0", 0), ("w1", 0)]
    kassel = kassel_bracket()
    pairs = list(itertools.product(gens, repeat=2))
    # the second pass reads every monomial pair from the kept data
    for i, j in pairs + pairs[::-1]:
        got, want = kassel(i, j), _reference_kassel(i, j)
        assert got.terms == want.terms, (i, j)
        assert repr(got) == repr(want), (i, j)
        assert {type(c) for c in got.terms.values()} <= {int, QQ}


def test_kassel_reduces_each_monomial_pair_once(monkeypatch):
    seen = {}

    def counted(f, g):
        key = (tuple(f.terms.items()), tuple(g.terms.items()))
        seen[key] = seen.get(key, 0) + 1
        return pairing(f, g)

    monkeypatch.setattr(liealg, "pairing", counted)
    rep = suites.run_suite(suites.SuiteConfig("affine-jacobi", window=3))
    assert rep.failed == 0
    assert seen and max(seen.values()) == 1


@pytest.mark.parametrize("suite", ["affine-jacobi", "kassel-vs-table"])
def test_no_kept_kassel_data_outlives_the_run(suite, monkeypatch):
    made, kept = [], []

    def factory():
        bracket = kassel_bracket()
        made.append(weakref.ref(bracket))
        kept.extend(c.cell_contents for c in bracket.__closure__
                    if isinstance(c.cell_contents, dict))
        return bracket

    monkeypatch.setattr(suites, "kassel_bracket", factory)
    suites.run_suite(suites.SuiteConfig(suite, window=2))
    gc.collect()
    assert len(made) == 1 and made[0]() is None
    # the run kept monomial data, and nothing but this test holds it now
    assert kept and any(kept)
    for d in kept:
        assert all(r is kept or inspect.isframe(r) for r in gc.get_referrers(d))


# --- virasoro -----------------------------------------------------------------

def test_vir_bracket_examples():
    got = vir_bracket(("d1", -1), ("d1", 2))
    assert got.terms == {("d", 0): QQ(3), ("c1", 0): QQ(12), ("c2", 0): QQ(-24)}
    got = vir_bracket(("d", -1), ("d", 1))
    assert got.terms == {
        ("d", 1): QQ(2),
        ("d", 0): QQ(8),
        ("c1", 0): QQ(12),
        ("c2", 0): QQ(-24),
    }


def test_vir_jacobi_window_3():
    gens = witt_gens(3) + [("c1", 0), ("c2", 0)]
    assert check_jacobi(vir_bracket, gens) == []


# --- the Jacobi check against the per-step Vec loop -------------------------

def _reference_jacobi(bracket, gens):
    """The triple loop check_jacobi replaces: one Vec per nested bracket."""
    def ad(x, vec):
        out = Vec()
        for w, c in vec.terms.items():
            if w[0] not in CENTRAL_FAMILIES:
                out += bracket(x, w).scale(c)
        return out

    bad = []
    for x, y, z in itertools.combinations(gens, 3):
        total = ad(x, bracket(y, z)) + ad(y, bracket(z, x)) + ad(z, bracket(x, y))
        if not total.is_zero():
            bad.append((("jacobi", x, y, z), total))
    return bad


def _reference_antisymmetry(bracket, gens):
    """The pair loop that check_jacobi's antisymmetry entries replace: both
    orders of each pair, x not after y, bracketed anew as Vecs."""
    bad = []
    for a, b in itertools.combinations_with_replacement(range(len(gens)), 2):
        total = bracket(gens[a], gens[b]) + bracket(gens[b], gens[a])
        if not total.is_zero():
            bad.append((("antisym", gens[a], gens[b]), total))
    return bad


def test_jacobi_residuals_match_the_reference_loop():
    gens = affine_gens(2)
    got = check_jacobi(affine_bracket, gens)
    want = _reference_jacobi(affine_bracket, gens)
    assert len(want) == 313
    assert [t for t, _ in got] == [t for t, _ in want]
    assert [repr(r) for _, r in got] == [repr(r) for _, r in want]
    assert [r.terms for _, r in got] == [r.terms for _, r in want]


def test_antisymmetry_residuals_match_the_reference_loop():
    """A Witt bracket that adds c1 + n d_0 to every [d_1, (k, n)] breaks
    antisymmetry on each pair with d_1, the diagonal pair included, at a
    residual that reads the pair's order."""
    def skewed(x, y):
        out = witt_bracket(x, y)
        if x == ("d", 1):
            out += Vec({("c1", 0): 1, ("d", 0): y[1]})
        return out

    gens = witt_gens(2)
    got = antisym_violations(skewed, gens)
    want = _reference_antisymmetry(skewed, gens)
    assert len(want) == len(gens)
    assert [t for t, _ in got] == [t for t, _ in want]
    assert [repr(r) for _, r in got] == [repr(r) for _, r in want]
    assert [r.terms for _, r in got] == [r.terms for _, r in want]
    # the antisymmetry entries come first, then Jacobi's
    kinds = [where[0] for where, _res in check_jacobi(skewed, gens)]
    assert kinds == sorted(kinds) and kinds[-1] == "jacobi"
