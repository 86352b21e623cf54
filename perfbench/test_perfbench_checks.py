"""The benchmark's property checks accept real reports and reject each kind
of corruption, so that no check is vacuous.

Run with: PYTHONPATH=src python -m pytest -q perfbench
"""

import functools
import io
import json
import os
import sys
from contextlib import redirect_stdout
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import child  # noqa: E402
from threepv import cli, fock  # noqa: E402
from threepv.suites import SuiteConfig, emit_report, run_suite  # noqa: E402


@functools.lru_cache(maxsize=None)
def _report_text(suite, **kw):
    return emit_report(run_suite(SuiteConfig(suite, **kw)), "json")


def _report(suite, **kw):
    return json.loads(_report_text(suite, **kw))


def _virasoro():
    return _report("virasoro-rep", r=0, kappa0=Fraction(3, 2), window=1,
                   states="random:1:3", seed=8)


def _kassel():
    return _report("kassel-vs-table", window=1)


def _affine():
    return _report("affine-rep", r=1, kappa0=1, window=1)


def _retotal(rep):
    rep["passed"] = sum(1 for c in rep["checks"] if c["pass"])
    rep["failed"] = len(rep["checks"]) - rep["passed"]
    return rep


def _first(rep, pred):
    return next(c for c in rep["checks"] if pred(c))


def _mixed_failure(c):
    return c["lhs"].startswith("[pi(D)") and "pi(D1)" in c["lhs"] and not c["pass"]


def _negate(residual):
    terms = [t.split("*", 1) for t in residual.split(" + ")]
    return " + ".join("%s*%s" % (-Fraction(c), mono) for c, mono in terms)


def test_real_reports_have_every_property():
    vir = _virasoro()
    assert vir["failed"] > 0
    assert checks.check_report(vir) == []
    assert checks.check_report(_kassel(), exit_status=1) == []
    assert checks.check_report(_affine()) == []


def test_cli_report_and_exit_status_agree():
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = cli.main(["ring-witt", "--window", "1", "--format", "json"])
    assert checks.check_report(json.loads(buf.getvalue()), status) == []
    assert checks.check_report(json.loads(buf.getvalue()), 1) != []


def test_flipped_residual_sign_is_rejected():
    rep = _virasoro()
    c = _first(rep, _mixed_failure)
    c["residual"] = _negate(c["residual"])
    assert any("not -phi1*c1*state" in p for p in checks.check_report(rep))


def test_dropped_check_is_rejected():
    for rep in (_virasoro(), _affine(), _kassel()):
        del rep["checks"][0]
        _retotal(rep)
        assert any("closed form" in p for p in checks.check_report(rep))


def test_w0_term_in_kassel_residual_is_rejected():
    rep = _kassel()
    c = _first(rep, lambda c: not c["pass"])
    c["residual"] = "1*w0_0 + " + c["residual"]
    assert any("w1_0 alone" in p for p in checks.check_report(rep, 1))
    c["residual"] = "2*w0_0"
    assert any("w1_0 alone" in p for p in checks.check_report(rep, 1))


def test_kassel_difference_outside_the_mixed_pairs_is_rejected():
    rep = _kassel()
    c = _first(rep, lambda c: c["lhs"].startswith("closed table [e_") and
               ", f_" in c["lhs"])
    c["pass"], c["residual"] = False, "-2*w1_0"
    _retotal(rep)
    assert any("outside the six" in p for p in checks.check_report(rep, 1))


def test_failing_theorem_check_is_rejected():
    rep = _affine()
    c = rep["checks"][0]
    c["pass"], c["residual"] = False, "1*((), 0)"
    _retotal(rep)
    assert any("theorem fail" in p for p in checks.check_report(rep))


def test_virasoro_like_kind_failure_is_rejected():
    rep = _virasoro()
    c = _first(rep, lambda c: c["lhs"].startswith("[pi(D1)"))
    c["pass"], c["residual"] = False, "1*((), 0)"
    _retotal(rep)
    assert any("like-kind" in p for p in checks.check_report(rep))


def test_virasoro_mixed_check_passing_despite_the_cocycle_is_rejected():
    rep = _virasoro()
    c = _first(rep, _mixed_failure)
    c["pass"], c["residual"] = True, None
    _retotal(rep)
    assert any("passes, but" in p for p in checks.check_report(rep))


def test_inconsistent_totals_and_flags_are_rejected():
    rep = _affine()
    rep["failed"] += 1
    assert any("totals" in p for p in checks.check_report(rep))
    rep = _affine()
    rep["checks"][0]["residual"] = "0"
    assert any("disagree" in p for p in checks.check_report(rep))


def test_changed_bytes_of_a_repeated_config_are_rejected():
    text = _report_text("affine-rep", r=1, kappa0=1, window=1)
    assert checks.check_repeat(text, text) == []
    assert checks.check_repeat(text + " ", text) != []


def test_crosscheck_agrees_and_catches_a_broken_enumeration(monkeypatch):
    assert child.crosscheck("quad-reps", 3)["mismatches"] == []
    monkeypatch.setattr(fock, "_MEMO", {}, raising=False)
    monkeypatch.setattr(fock, "apply_quad_sum", lambda qs, mono, params, acc: None)
    out = child.crosscheck("quad-reps", 3)
    assert out["compared"] > 0 and out["mismatches"]
