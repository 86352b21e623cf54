"""Acceptance gate: twelve numbered criteria, one pass/fail line each.

Every criterion is an exact rational identity (or a byte-level determinism
statement) over an explicitly stated window, with a wall-clock budget.  Run
with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.

Criterion 8 is expected to stay red: with the prescribed central
substitution, the mixed family of realized Virasoro brackets reproduces the
non-central part of the abstract bracket but carries no central term, while
the abstract bracket's first cocycle is nonzero on mixed pairs.  The failure
message spells out the measured residual; everything else passes.
"""

import json
import time

from threepv import fock
from threepv.liealg import (
    check_jacobi,
    heis_bracket,
    phi1,
    vir_bracket,
    witt_bracket,
)
from threepv.scalars import QQ, rat_str
from threepv.suites import SuiteConfig, emit_report, run_suite
from threepv.realization import central_charge


def _line(num, ok, label, detail=""):
    text = "[criterion %02d] %s  %s" % (num, "PASS" if ok else "FAIL", label)
    if detail:
        text += "  (%s)" % detail
    print(text)
    return text


def _run(suite, **kw):
    return run_suite(SuiteConfig(suite, **kw))


def test_criterion_01_witt_closed_form_vs_geometric():
    t0 = time.monotonic()
    rep = _run("ring-witt", window=12)
    dt = time.monotonic() - t0
    ok = rep.failed == 0 and dt < 5.0
    line = _line(1, ok, "closed-form Witt table == geometric brackets, |modes| <= 12",
                 "%d checks, %.2fs" % (len(rep.checks), dt))
    assert ok, line


def test_criterion_02_kaehler_basis_and_exact_forms():
    t0 = time.monotonic()
    rep = _run("kaehler-basis", window=20, states="random:200:3", seed=1)
    dt = time.monotonic() - t0
    ok = rep.failed == 0 and len(rep.checks) == 241 and dt < 5.0
    line = _line(2, ok, "reduce(t^k dt) = delta_{k,-1} w0 for |k| <= 20 and "
                 "reduce(d f) = 0 for 200 seeded f",
                 "%d checks, %.2fs" % (len(rep.checks), dt))
    assert ok, line


def test_criterion_03_cocycle_identity():
    t0 = time.monotonic()
    rep = _run("cocycle-identity", window=8)
    dt = time.monotonic() - t0
    ok = rep.failed == 0 and dt < 30.0
    line = _line(3, ok, "phi1 and phi2 are antisymmetric 2-cocycles, |modes| <= 8",
                 "%.2fs" % dt)
    assert ok, line


def test_criterion_04_coboundary_infeasible_with_certificate():
    t0 = time.monotonic()
    rep = _run("coboundary-window", window=6)
    escalated = False
    if rep.failed:
        # feasible at 6: escalate before declaring failure
        escalated = True
        rep = _run("coboundary-window", window=10)
    dt = time.monotonic() - t0
    certs = [c for c in rep.checks if c["lhs"].startswith("certificate")]
    ok = rep.failed == 0 and len(certs) == 2 and dt < 10.0
    line = _line(4, ok, "phi1, phi2 are not coboundaries on the window "
                 "(infeasibility certificates emitted)",
                 "window %d, %.2fs" % (10 if escalated else 6, dt))
    assert ok, line


def test_criterion_05_jacobi_all_algebras():
    t0 = time.monotonic()
    rep = _run("affine-jacobi", window=5)
    results = {"affine (oracle-backed centrals)": rep.failed == 0}
    gens = [(k, m) for k in ("d", "d1") for m in range(-5, 6)]
    results["witt"] = not check_jacobi(witt_bracket, gens)
    results["virasoro"] = not check_jacobi(vir_bracket, gens)
    hgens = [(k, m) for k in ("b", "b1") for m in range(-5, 6)]
    results["heisenberg"] = not check_jacobi(heis_bracket, hgens)
    dt = time.monotonic() - t0
    ok = all(results.values()) and dt < 60.0
    line = _line(5, ok, "Jacobi identity: affine, Heisenberg, Witt, Virasoro, "
                 "|modes| <= 5",
                 ", ".join("%s %s" % (k, "ok" if v else "FAIL")
                           for k, v in sorted(results.items())) + ", %.2fs" % dt)
    assert ok, line


def test_criterion_06_heisenberg_representation():
    t0 = time.monotonic()
    failed = 0
    total = 0
    for r, k in ((0, 1), (0, 2), (1, 1), (1, 2)):
        rep = _run("heisenberg-rep", r=r, kappa0=k, window=4,
                   states="random:20:3", seed=6)
        failed += rep.failed
        total += len(rep.checks)
    dt = time.monotonic() - t0
    ok = failed == 0 and dt < 30.0
    line = _line(6, ok, "oscillator modes represent the Heisenberg bracket, "
                 "kappa0 in {1,2}, |m|,|n| <= 4, vacuum + 20 seeded states",
                 "%d checks, %.2fs" % (total, dt))
    assert ok, line


def test_criterion_07_affine_realization():
    t0 = time.monotonic()
    failed = 0
    total = 0
    for r in (0, 1):
        for k in (1, 2):
            rep = _run("affine-rep", r=r, kappa0=k, window=3,
                       states="random:20:3", seed=7)
            failed += rep.failed
            total += len(rep.checks)
    dt = time.monotonic() - t0
    ok = failed == 0 and dt < 600.0
    line = _line(7, ok, "all 21 affine commutators realized exactly, "
                 "r in {0,1}, kappa0 in {1,2}, |m|,|n| <= 3, "
                 "vacuum + 20 seeded states (w0 -> kappa0 + 4*delta_{r,0}, w1 -> 0)",
                 "%d checks, %.2fs" % (total, dt))
    assert ok, line


def test_criterion_08_virasoro_realization():
    t0 = time.monotonic()
    like_fail = mixed_fail = probe_fail = 0
    mixed_total = 0
    sample = None
    for r in (0, 1):
        rep = _run("virasoro-rep", r=r, kappa0=1, window=3,
                   states="random:20:3", seed=8)
        for c in rep.checks:
            if c["lhs"].startswith("pure-central"):
                probe_fail += 0 if c["pass"] else 1
            elif c["lhs"].startswith("[pi(D)") and "pi(D1)" in c["lhs"]:
                mixed_total += 1
                if not c["pass"]:
                    mixed_fail += 1
                    if sample is None:
                        sample = (r, c)
            elif not c["pass"]:
                like_fail += 1
    dt = time.monotonic() - t0
    print("[criterion 08]   like-kind families: %s"
          % ("all pass" if like_fail == 0 else "%d FAIL" % like_fail))
    print("[criterion 08]   pure-central vacuum probes: %s"
          % ("all pass" if probe_fail == 0 else "%d FAIL" % probe_fail))
    print("[criterion 08]   mixed family: %d of %d checks fail"
          % (mixed_fail, mixed_total))
    ok = like_fail == 0 and probe_fail == 0 and mixed_fail == 0 and dt < 600.0
    line = _line(8, ok, "Virasoro bracket relations realized with "
                 "c1 -> -(delta_{r,0} + 1/2)/3, c2 -> 0, |m|,|n| <= 3",
                 "%.2fs" % dt)
    detail = ""
    if sample is not None:
        r, c = sample
        detail = (
            "\nThe realized mixed bracket carries no central term, while the "
            "abstract mixed bracket has a nonzero first-cocycle value; the "
            "residual equals -phi1(d_{m+1}, d1_{n+1}) * c1 * state exactly. "
            "Example (r=%d, c1=%s): %s, residual %s. Like-kind families and "
            "the pure-central probes all pass; an alternative central "
            "assignment c1 -> 0, c2 -> (2*delta_{r,0} + 1)/12 reproduces "
            "every measured central value. Recorded in the project decision "
            "log." % (r, rat_str(central_charge(r)), c["lhs"], c["residual"]))
    assert ok, line + detail


def test_criterion_09_mu_comparison_report():
    t0 = time.monotonic()
    rep = _run("mu-compare", window=6)
    text = emit_report(rep, "json")
    data = json.loads(text)
    jac = _run("affine-jacobi", window=3)
    dt = time.monotonic() - t0
    ok = (len(data["checks"]) == 169 and jac.failed == 0)
    line = _line(9, ok, "mu closed form vs reduction oracle on [-6,6]^2 "
                 "(report produced; oracle-backed bracket satisfies Jacobi)",
                 "%d disagreements, %.2fs" % (rep.failed, dt))
    assert ok, line


def test_criterion_10_density_modules():
    t0 = time.monotonic()
    rep = _run("density-module", window=6)
    dt = time.monotonic() - t0
    ok = rep.failed == 0 and dt < 10.0
    line = _line(10, ok, "U_alpha module axioms for alpha in {0, 1/2, -3/4, 2}, "
                 "window 6", "%.2fs" % dt)
    assert ok, line


def test_criterion_11_lambda_bracket_pairs_subset():
    t0 = time.monotonic()
    failed = 0
    total = 0
    for r in (0, 1):
        rep = _run("pairs-subset", r=r, kappa0=2, window=3,
                   states="random:20:3", seed=11)
        failed += rep.failed
        total += len(rep.checks)
    dt = time.monotonic() - t0
    ok = failed == 0
    line = _line(11, ok, "field-pair bracket expansions, items (1), (3), (10), "
                 "(14), |m|,|n| <= 3, both r", "%d checks, %.2fs" % (total, dt))
    assert ok, line


def test_criterion_12_deterministic_json(monkeypatch):
    kw = dict(window=2, states="random:8:3", seed=12, kappa0=QQ(3, 2))
    monkeypatch.setattr(fock, "_MEMO", {})
    a = emit_report(run_suite(SuiteConfig("witt-rep", **kw)), "json")
    b = emit_report(run_suite(SuiteConfig("witt-rep", **kw)), "json")
    # a run at other parameters clears the memo in place
    witt_entries = set(fock._MEMO)
    run_suite(SuiteConfig("affine-rep", r=1, kappa0=2, window=1,
                          states="random:1:2", seed=7))
    cleared = not witt_entries & set(fock._MEMO)
    c = emit_report(run_suite(SuiteConfig("witt-rep", **kw)), "json")
    ok = cleared and a == b == c
    line = _line(12, ok, "identical config and seed give byte-identical JSON, "
                 "cold, warm and after the memo was cleared")
    assert ok, line
