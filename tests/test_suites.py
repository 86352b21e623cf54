"""Suite-level behavior: frozen outcomes, report schema, determinism."""

import copy
import itertools
import json
import sys
import weakref
from collections import Counter

import pytest

from combination import apply_combination
from threepv import fock, liealg, suites
from threepv.fock import FockState, ModeOp, RepParams, combine, seeded_states
from threepv.scalars import QQ, Vec
from threepv.suites import (
    SUITE_NAMES,
    CheckReport,
    SuiteConfig,
    _rep_checks,
    build_states,
    emit_report,
    parse_states_spec,
    run_suite,
)


def report(suite, **kw):
    return run_suite(SuiteConfig(suite, **kw))


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        SuiteConfig("no-such-suite")
    with pytest.raises(ValueError):
        SuiteConfig("ring-witt", window=0)
    with pytest.raises(ValueError):
        SuiteConfig("ring-witt", r=2)
    with pytest.raises(ValueError):
        SuiteConfig("virasoro-rep", kappa0=0)
    with pytest.raises(ValueError):
        SuiteConfig("ring-witt", states="random:0:3")
    with pytest.raises(ValueError):
        SuiteConfig("ring-witt", states="sometimes")
    with pytest.raises(ValueError):
        SuiteConfig("ring-witt", format="yaml")


def test_config_refuses_a_non_integral_window_or_seed():
    for kw in ({"window": 2.7}, {"window": QQ(5, 2)}, {"seed": 1.5}):
        with pytest.raises(ValueError, match="must be an integer"):
            SuiteConfig("ring-witt", **kw)
    cfg = SuiteConfig("ring-witt", window=QQ(2), seed=3.0)
    assert (cfg.window, cfg.seed) == (2, 3)
    assert type(cfg.window) is int and type(cfg.seed) is int


def test_config_refuses_float_scalars():
    for kw in ({"kappa0": 0.1}, {"B0": 0.3}, {"B1": ((0.5, 1), (1, 0.5))}):
        with pytest.raises(TypeError, match="float"):
            SuiteConfig("ring-witt", **kw)
    cfg = SuiteConfig("ring-witt", kappa0="3/2", B0=QQ(-1, 3),
                      B1=(("1/2", 2), (QQ(3), "1/2")))
    assert (cfg.params.kappa0, cfg.params.B0) == (QQ(3, 2), QQ(-1, 3))
    assert cfg.params.B1 == ((QQ(1, 2), 2), (3, QQ(1, 2)))
    assert cfg.params_dict()["B1"] == [["1/2", "2"], ["3", "1/2"]]


def test_config_refuses_b1_with_unequal_diagonal_for_every_suite():
    for suite in SUITE_NAMES:
        with pytest.raises(ValueError, match="equal diagonal"):
            SuiteConfig(suite, B1=((1, 2), (3, 4)))
    # the rule RepParams keeps
    with pytest.raises(ValueError, match="equal diagonal"):
        RepParams(B1=((1, 2), (3, 4)))
    assert SuiteConfig("ring-witt", B1=[[2, 0], [5, 2]]).params.B1 == ((2, 0), (5, 2))


def _refusal(make, **kw):
    with pytest.raises((TypeError, ValueError)) as info:
        make(**kw)
    return type(info.value), str(info.value)


def test_config_refuses_representation_parameters_as_rep_params_does():
    for kw in ({"r": 2}, {"kappa0": 0}, {"kappa0": 0.5}, {"B1": ((1, 2), (3, 4))}):
        assert (_refusal(SuiteConfig, suite="ring-witt", **kw)
                == _refusal(RepParams, **kw)), kw
    assert _refusal(RepParams, r=2) == (ValueError, "r must be 0 or 1, got 2")
    assert type(SuiteConfig("ring-witt", r=QQ(1)).params.r) is int


def test_states_spec_parsing():
    assert parse_states_spec("vacuum") == ("vacuum", 0, 0)
    assert parse_states_spec("random:20:3") == ("random", 20, 3)
    with pytest.raises(ValueError):
        parse_states_spec("random:20")


def test_build_states_counts():
    assert len(build_states(SuiteConfig("affine-rep"))) == 1
    sts = build_states(SuiteConfig("affine-rep", states="random:5:2", seed=9))
    assert len(sts) == 6
    assert sts[0][0] == "vacuum"
    assert sts[1][0] == "s00"


# ---------------------------------------------------------------------------
# frozen suite outcomes
# ---------------------------------------------------------------------------

def test_kaehler_basis_window_20_has_41_passing_checks():
    rep = report("kaehler-basis", window=20)
    assert rep.passed == 41 and rep.failed == 0
    assert len(rep.checks) == 41


def test_kaehler_basis_random_adds_exactness_checks():
    rep = report("kaehler-basis", window=2, states="random:10:3", seed=4)
    assert rep.failed == 0
    assert len(rep.checks) == 5 + 10


def test_affine_rep_r1_kappa1_window3_vacuum_passes():
    rep = report("affine-rep", r=1, kappa0=1, window=3)
    assert rep.failed == 0
    assert len(rep.checks) == 21 * 49  # unordered generator pairs x mode pairs


def test_mu_compare_agrees_on_window():
    rep = report("mu-compare", window=4)
    assert rep.failed == 0
    assert len(rep.checks) == 81


def test_ring_witt_passes():
    rep = report("ring-witt", window=3)
    assert rep.failed == 0
    assert len(rep.checks) == (2 * 7) ** 2


def test_affine_jacobi_passes():
    rep = report("affine-jacobi", window=2)
    assert rep.failed == 0
    # one antisymmetry check plus one per unordered family triple
    assert len(rep.checks) == 1 + 56


def test_affine_jacobi_reports_a_broken_bracket(monkeypatch):
    """The closed table, which fails Jacobi in w1, with w0 added to every
    [e_1, y]: the antisymmetry check names its count and first pair, and
    each failing family triple its count and first triple."""
    def broken():
        def bracket(x, y):
            out = liealg.affine_bracket(x, y)
            if x == ("e", 1):
                out += Vec({("w0", 0): 1})
            return out
        return bracket

    monkeypatch.setattr(suites, "kassel_bracket", broken)
    rep = report("affine-jacobi", window=1)
    failed = {c["lhs"]: c["residual"] for c in rep.checks if not c["pass"]}
    assert len(failed) == rep.failed == 15
    assert failed["antisymmetry of the oracle-backed bracket, |modes| <= 1"] == (
        "18 violations; first (('e', -1), ('e', 1))")
    assert failed["jacobiator on {e, e1, f}, |modes| <= 1"] == (
        "9 violations; first at (e_1, f_-1, e1_-1): -1*w0_0")
    assert failed["jacobiator on {e1, f1, h1}, |modes| <= 1"] == (
        "25 violations; first at (e1_-1, f1_-1, h1_-1): 1*w1_0")


def test_kassel_vs_table_differences_are_w1_only_on_mixed_pairs():
    rep = report("kassel-vs-table", window=2)
    assert rep.failed > 0
    mixed = {("e", "f1"), ("f1", "e"), ("e1", "f"), ("f", "e1"),
             ("h", "h1"), ("h1", "h")}
    for c in rep.checks:
        inner = c["lhs"].split("[", 1)[1].rstrip("]")
        left, right = inner.split(", ")
        fams = (left.rsplit("_", 1)[0], right.rsplit("_", 1)[0])
        if c["pass"]:
            continue
        assert fams in mixed, c["lhs"]
        assert "w1_0" in c["residual"] and "w0" not in c["residual"]


def test_cocycle_identity_passes():
    rep = report("cocycle-identity", window=3)
    assert rep.failed == 0
    assert len(rep.checks) == 4


def test_cocycle_identity_reports_a_broken_phi1(monkeypatch):
    """phi1 off by one at (d_1, d_-1) breaks its antisymmetry and its
    cocycle identity, and phi2 = -2 phi1 on like-kind pairs with it; each
    check names its count and first violation."""
    phi1 = liealg.phi1
    monkeypatch.setattr(liealg, "phi1", lambda i, j: phi1(i, j) + (
        (i, j) == (("d", 1), ("d", -1))))
    rep = report("cocycle-identity", window=2)
    assert {c["lhs"]: (c["pass"], c["residual"]) for c in rep.checks} == {
        "phi1 antisymmetry, |modes| <= 2": (
            False, "1 violations; first ('antisym', ('d', -1), ('d', 1)) -> 1"),
        "phi1 cocycle identity, |modes| <= 2": (
            False, "4 violations; first ('jacobi', ('d', -2), ('d', 0), ('d', 1)) -> 2"),
        "phi2 antisymmetry, |modes| <= 2": (
            False, "1 violations; first ('antisym', ('d', -1), ('d', 1)) -> -2"),
        "phi2 cocycle identity, |modes| <= 2": (
            False, "4 violations; first ('jacobi', ('d', -2), ('d', 0), ('d', 1)) -> -4"),
    }


def test_coboundary_window_emits_certificates():
    rep = report("coboundary-window", window=3)
    assert rep.failed == 0
    cert_checks = [c for c in rep.checks if c["lhs"].startswith("certificate")]
    assert len(cert_checks) == 2
    for c in cert_checks:
        assert "phi(" in c["lhs"] and c["pass"]


def test_heisenberg_rep_passes():
    rep = report("heisenberg-rep", r=0, kappa0=2, window=2,
                 states="random:3:3", seed=5)
    assert rep.failed == 0
    assert len(rep.checks) == 4 * 25 * 4


def test_witt_rep_passes():
    rep = report("witt-rep", r=1, kappa0=2, window=2, states="random:2:3")
    assert rep.failed == 0
    assert len(rep.checks) == 3 * 25 * 3


def test_pairs_subset_passes():
    rep = report("pairs-subset", r=0, kappa0=2, window=2, states="random:2:3")
    assert rep.failed == 0
    assert len(rep.checks) == 4 * 25 * 3


def test_density_module_passes():
    rep = report("density-module", window=3)
    assert rep.failed == 0
    assert len(rep.checks) == 4


def test_lambda_table_matches_reduction():
    rep = report("lambda-table", window=5)
    assert rep.failed == 0
    assert len(rep.checks) == 11
    # the closed form rendered into the check labels: signed Catalan values
    labels = {c["lhs"] for c in rep.checks}
    assert "lambda(3) closed form = 14" in labels
    assert "lambda(4) closed form = -42" in labels


def test_audit_passes_and_reports_shifts():
    rep = report("audit", window=2, states="random:2:2", seed=3)
    assert rep.failed == 0
    assert len(rep.checks) == 2 * 25 * 3
    assert all(c["state"] in ("vacuum", "s00", "s01") for c in rep.checks)


def test_virasoro_rep_like_kind_passes_mixed_fails():
    rep = report("virasoro-rep", r=0, kappa0=1, window=2)
    by_kind = {"DD": [], "D1D1": [], "DD1": [], "probe": []}
    for c in rep.checks:
        if c["lhs"].startswith("pure-central"):
            by_kind["probe"].append(c)
        elif c["lhs"].startswith("[pi(D1)"):
            by_kind["D1D1"].append(c)
        elif "pi(D1)" in c["lhs"]:
            by_kind["DD1"].append(c)
        else:
            by_kind["DD"].append(c)
    assert all(c["pass"] for c in by_kind["DD"])
    assert all(c["pass"] for c in by_kind["D1D1"])
    assert all(c["pass"] for c in by_kind["probe"])
    assert len(by_kind["probe"]) == 4
    # the mixed family misses exactly the central contribution of the
    # abstract bracket; see the repository decision log
    assert any(not c["pass"] for c in by_kind["DD1"])
    for c in by_kind["DD1"]:
        if not c["pass"]:
            assert c["residual"].endswith("((), 0)")  # scalar multiple of |0>


def test_rep_checks_residual_is_got_minus_want():
    # [b_m, b_n] = -2 m kappa0 delta_{m+n,0} = -3m, so against R = 0 the
    # check of (m, -m) fails on every state s with residual -3m s, and
    # against R = -3m Id every check passes; the grid covers the window it
    # is given, and explain, given, writes a failing check's residual from
    # that order's modes and its state's table
    cfg = SuiteConfig("heisenberg-rep", window=3, kappa0=QQ(3, 2),
                      states="random:3:3", seed=17)
    params = cfg.params
    states = build_states(cfg)
    ops = {m: ModeOp(((1, (("b", m),)),), (), params) for m in (-1, 0, 1)}
    unit = ModeOp(((1, ()),), (), params)

    def value(m, n):
        return -3 * m if m + n == 0 else 0

    def against(right, explain=None):
        def bracket(_fam, m, _famB, n):
            v = right(m, n)
            return "[b_%d, b_%d]" % (m, n), str(v), combine(((v, unit),))
        checks = list(_rep_checks(cfg, 1, [("b", "b")], lambda _fam, m: ops[m],
                                  bracket, explain))
        assert len(checks) == 9 * len(states)
        return {(c["lhs"], c["state"]): c for c in checks}

    explained = []

    def explain(fam, m, famB, n, table):
        explained.append((fam, m, famB, n))
        s = fock._state(table.packed)
        return "%s_%d, %s_%d on %r" % (fam, m, famB, n, s)
    wrong, told = against(lambda m, n: 0), against(lambda m, n: 0, explain)
    for m, n in itertools.product((-1, 0, 1), repeat=2):
        for label, s in states:
            c = wrong["[b_%d, b_%d]" % (m, n), label]
            assert c["pass"] == (not value(m, n))
            if value(m, n):
                assert c["residual"] == repr(s.scale(value(m, n)))
                assert told["[b_%d, b_%d]" % (m, n), label]["residual"] == (
                    "b_%d, b_%d on %r" % (m, n, s))
    assert sorted(explained) == sorted(
        ("b", m, "b", -m) for m in (-1, 1) for _ in states)
    explained.clear()
    for c in list(against(value).values()) + list(against(value, explain).values()):
        assert c["pass"] and c["residual"] is None
    assert not explained


_FAMILY_PAIRS = {"heisenberg-rep": 4, "affine-rep": 21, "witt-rep": 3,
                 "virasoro-rep": 3, "pairs-subset": 4}


@pytest.mark.parametrize("suite, built, checks",
                         [("heisenberg-rep", 15, 36), ("affine-rep", 153, 189)])
def test_each_unordered_commutator_is_built_once(suite, built, checks, monkeypatch):
    """Each operator, right-hand sides' bases included, is applied to each
    state once per run; the products A(B s) and B(A s) are built once per
    unordered pair of modes and state, and not at all for [A, A]."""
    tables = {}         # id of a table's packed state -> the table
    on_state, outer = Counter(), []
    apply = ModeOp._apply

    def recording(op, terms, out, sign=1):
        if id(terms) in tables:
            on_state[op, id(terms)] += 1
        else:
            outer.append(op)
        return apply(op, terms, out, sign)
    monkeypatch.setattr(ModeOp, "_apply", recording)
    calls, met = [], set()
    commutator = suites.commutator_apply

    def counting(opA, opB, table, *rhs):
        tables[id(table.packed)] = table
        del outer[:]
        out = commutator(opA, opB, table, *rhs)
        calls.append((opA is opB, outer == ([] if opA is opB else [opA, opB])))
        for op in (opA, opB) + tuple(op for pairs in rhs for _c, op in pairs):
            met.add((op, id(table.packed)))
        return out
    monkeypatch.setattr(suites, "commutator_apply", counting)
    rep = report(suite, window=1, kappa0=QQ(3, 2))
    assert len(rep.checks) == checks and rep.failed == 0
    assert sum(not same for same, _ in calls) == built
    assert all(outer_once for _, outer_once in calls)
    assert len(tables) == 1 and set(on_state.values()) == {1}
    assert met <= on_state.keys()


@pytest.mark.parametrize("suite", sorted(_FAMILY_PAIRS))
def test_a_shared_table_changes_no_residual(suite, monkeypatch):
    """Every commutator a grid checks through its shared tables equals the
    one on the bare state, and both equal A(B s) - B(A s) - R s applied
    operator by operator; mixed [D_m, D1_n] pairs make residuals nonzero."""
    commutator = suites.commutator_apply
    seen = Counter()

    def compared(A, B, table, *rhs):
        shared = commutator(A, B, table, *rhs)
        s = fock._state(table.packed)
        c = A.apply(B.apply(s)) - B.apply(A.apply(s))
        want = [c - apply_combination(rhs[0], s)] if rhs else [c]
        if len(rhs) == 2:
            want.append(c.scale(-1) - apply_combination(rhs[1], s))
        assert commutator(A, B, s, *rhs) == shared == (
            tuple(want) if len(rhs) == 2 else want[0])
        seen["pairs"] += len(rhs) == 2
        seen["nonzero"] += not all(w.is_zero() for w in want)
        return shared
    monkeypatch.setattr(suites, "commutator_apply", compared)
    for r, kappa0 in itertools.product((0, 1), (1, QQ(3, 2), QQ(2, 3))):
        report(suite, r=r, kappa0=kappa0, window=1, states="random:1:2", seed=5)
    assert seen["pairs"]
    assert bool(seen["nonzero"]) == (suite == "virasoro-rep")


def _memo_keys():
    """_MEMO's keys by what they mean, whichever objects the operators are
    and in whichever order the variables were interned."""
    return {(op.terms, op.sums, op.den, fock._unpack(mono)) for op, mono in fock._MEMO}


@pytest.mark.parametrize("suite", sorted(_FAMILY_PAIRS))
def test_tables_change_no_cache(suite, monkeypatch):
    """A run through shared tables leaves the memo keys, and makes the sum
    calls, of one with a table per commutator."""
    kw = dict(r=1, kappa0=QQ(2, 3), window=1, states="random:2:2", seed=5)
    sums = Counter()
    for name in ("apply_quad_sum", "apply_cubic_sum"):
        monkeypatch.setattr(fock, name, lambda *a, _f=getattr(fock, name), _n=name:
                            sums.update((_n,)) or _f(*a))
    _fresh_fock_tables(monkeypatch)
    shared = emit_report(report(suite, **kw), "json")
    keys, calls = _memo_keys(), Counter(sums)
    commutator = suites.commutator_apply
    monkeypatch.setattr(suites, "commutator_apply", lambda A, B, t, *rhs: commutator(
        A, B, fock._state(t.packed), *rhs))
    sums.clear()
    _fresh_fock_tables(monkeypatch)
    assert emit_report(report(suite, **kw), "json") == shared
    assert _memo_keys() == keys and keys
    assert sums == calls and (calls["apply_quad_sum"] or suite == "heisenberg-rep")


@pytest.mark.parametrize("suite", ["virasoro-rep", "audit"])
def test_no_table_outlives_its_run(suite, monkeypatch):
    """The tables a run makes, the audit's and the Virasoro probes' too, are
    freed when it returns: nothing in the program keeps one."""
    refs = []
    commutator = suites.commutator_apply
    monkeypatch.setattr(suites, "commutator_apply", lambda A, B, t, *rhs:
                        refs.append(weakref.ref(t)) or commutator(A, B, t, *rhs))
    report(suite, window=1, states="random:2:2", seed=5)
    assert refs and all(ref() is None for ref in refs)


@pytest.mark.parametrize("window", [1, 2])
@pytest.mark.parametrize("suite", sorted(_FAMILY_PAIRS))
def test_rep_suite_check_keys_are_unique_and_complete(suite, window):
    """run_suite's sort decides the report bytes whatever order the grid
    yields in, as no two checks share a key."""
    rep = report(suite, window=window, states="random:1:2", seed=23)
    keys = {(c["lhs"], c["rhs"], c["state"]) for c in rep.checks}
    probes = 4 if suite == "virasoro-rep" else 0
    want = (2 * window + 1) ** 2 * _FAMILY_PAIRS[suite] * 2 + probes
    assert len(keys) == len(rep.checks) == want
    assert {state for _, _, state in keys} == {"vacuum", "s00"}


def test_only_a_failing_check_unpacks_its_residual(monkeypatch):
    unpacked = []
    unpack = fock._unpack
    monkeypatch.setattr(fock, "_unpack", lambda p: unpacked.append(p) or unpack(p))
    kw = dict(r=0, kappa0=QQ(3, 2), window=1, states="random:2:3", seed=12)
    rep = report("witt-rep", **kw)
    assert rep.failed == 0 and rep.passed > 0
    assert unpacked == []
    rep = report("virasoro-rep", **kw)
    assert rep.failed > 0 and unpacked


# ---------------------------------------------------------------------------
# report schema and emission
# ---------------------------------------------------------------------------

def test_json_schema_field_order():
    rep = report("mu-compare", window=1, kappa0=QQ(3, 2))
    text = emit_report(rep, "json")
    data = json.loads(text)
    assert list(data.keys()) == ["suite", "params", "checks", "passed", "failed"]
    assert list(data["params"].keys()) == [
        "r", "kappa0", "B0", "B1", "window", "states", "seed"]
    assert data["params"]["kappa0"] == "3/2"
    for c in data["checks"]:
        assert list(c.keys()) == ["lhs", "rhs", "state", "pass", "residual"]
        assert c["residual"] is None if c["pass"] else c["residual"] is not None
    assert data["passed"] + data["failed"] == len(data["checks"])
    assert "." not in text.replace("...", "")  # no floats anywhere


def test_empty_report_counts():
    rep = CheckReport("mu-compare", {}, [])
    data = json.loads(emit_report(rep, "json"))
    assert data["passed"] == 0 and data["failed"] == 0


def test_json_emitter_matches_the_standard_library():
    # every golden config is compared in tests/test_golden.py
    odd = "x_{-1} \"q\" \\ \u00e9\u2603 },\n      {"  # the break between checks, escaped
    checks = [{"lhs": odd, "rhs": "r", "state": "0", "pass": False, "residual": odd},
              {"lhs": "l", "rhs": "r", "state": "-", "pass": True, "residual": None}]
    params = {"r": 0, "kappa0": "3/2", "B1": [["1", "2"], ["3", "1"]], "seed": None}
    for rep in (CheckReport("mu-compare", {}, []),
                CheckReport("witt-rep", params, checks),
                CheckReport("witt-rep", params, checks * 150),  # past one batch
                report("virasoro-rep", r=0, kappa0=1, window=1)):
        fields = {k: getattr(rep, k)
                  for k in ("suite", "params", "checks", "passed", "failed")}
        assert emit_report(rep, "json") == json.dumps(fields, indent=2) + "\n"


def test_text_format_lines():
    rep = report("kaehler-basis", window=1)
    text = emit_report(rep, "text")
    lines = text.strip().split("\n")
    assert lines[0] == "suite: kaehler-basis"
    assert lines[1].startswith("params: ")
    assert lines[-1] == "passed 3, failed 0"
    assert all(l.startswith("PASS") for l in lines[2:-1])


def test_failing_check_has_residual_in_text():
    rep = report("virasoro-rep", r=0, kappa0=1, window=1)
    text = emit_report(rep, "text")
    assert "FAIL" in text and "residual:" in text


def test_checks_sorted_by_key():
    rep = report("ring-witt", window=2)
    keys = [(c["lhs"], c["rhs"], c["state"]) for c in rep.checks]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_byte_identical_json_same_config_and_seed():
    kw = dict(r=0, kappa0=2, window=1, states="random:4:3", seed=11)
    a = emit_report(report("affine-rep", **kw), "json")
    b = emit_report(report("affine-rep", **kw), "json")
    assert a == b


def test_reports_do_not_depend_on_the_configs_run_before(monkeypatch):
    witt = dict(r=0, kappa0=QQ(3, 2), window=1, states="random:2:3", seed=12)
    monkeypatch.setattr(fock, "_MEMO", {})
    cold = emit_report(report("witt-rep", **witt), "json")
    report("affine-rep", r=1, kappa0=2, window=1, states="random:1:2", seed=7)
    assert emit_report(report("witt-rep", **witt), "json") == cold
    # a predecessor at the same r leaves its oscillator images, which the
    # next kappa0 reads at its own multipliers (den 2 at 3/2)
    affine = dict(r=0, window=1, states="random:1:3", seed=7)
    _fresh_fock_tables(monkeypatch)
    cold = emit_report(report("affine-rep", kappa0=QQ(3, 2), **affine), "json")
    _fresh_fock_tables(monkeypatch)
    report("affine-rep", kappa0=2, **affine)
    kept = len(fock._MEMO)
    assert emit_report(report("affine-rep", kappa0=QQ(3, 2), **affine), "json") == cold
    assert kept and fock._PARTS


# fock's packing tables, and the caches that hold packed monomials, each
# with a function that makes it empty; a read mask keeps only bit 0, the
# auxiliary component, below every field
_FRESH_TABLES = {
    "_SHIFT": dict, "_FIELD_VAR": list,
    "_READ_FIELDS": lambda: [mask & 1 for mask in fock._READ_FIELDS],
    "_MEMO": dict, "_PARTS": dict, "_WALKS": dict, "_PLANS": dict, "_OPS": dict,
}


def _fresh_fock_tables(monkeypatch):
    """An empty intern table for packed monomials, with empty caches, all
    put back as they were after the test."""
    for name, fresh in _FRESH_TABLES.items():
        monkeypatch.setattr(fock, name, fresh())
    monkeypatch.setattr(fock, "_HELD", None)


def test_fresh_fock_tables_reset_every_table_interning_writes(monkeypatch):
    _fresh_fock_tables(monkeypatch)
    assert set(fock._READ_FIELDS) == {0, 1}
    tables = {name: copy.deepcopy(value) for name, value in vars(fock).items()
              if isinstance(value, (dict, list)) and not name.startswith("__")}
    fock._shift((fock.Y1, -1000))
    written = {name for name, value in tables.items() if vars(fock)[name] != value}
    assert {"_SHIFT", "_FIELD_VAR", "_READ_FIELDS"} <= written
    assert written <= _FRESH_TABLES.keys()


@pytest.mark.parametrize("suite", ["witt-rep", "virasoro-rep"])
def test_reports_do_not_depend_on_the_packing_order(suite, monkeypatch):
    # virasoro-rep's mixed-family checks fail, so residuals are rendered too
    kw = dict(r=1, kappa0=QQ(3, 2), window=1, states="random:3:3", seed=12)
    _fresh_fock_tables(monkeypatch)
    first = emit_report(report(suite, **kw), "json")
    order = list(fock._FIELD_VAR)
    _fresh_fock_tables(monkeypatch)
    for var in reversed(order):
        fock._shift(var)
    assert fock._FIELD_VAR == order[::-1] != order
    assert emit_report(report(suite, **kw), "json") == first
    if suite == "virasoro-rep":
        assert '"residual": "' in first


def _counted_holds(monkeypatch):
    """The names of the functions that call hold, in call order, through
    the name fock defines and the one suites imports."""
    hold, callers = fock.hold, []

    def counted(params):
        callers.append(sys._getframe(1).f_code.co_name)
        hold(params)

    monkeypatch.setattr(fock, "hold", counted)
    monkeypatch.setattr(suites, "hold", counted)
    return callers


def test_a_repeated_config_enumerates_no_sum(monkeypatch):
    # criterion 12's config and three more: a re-run gets its operators back
    # and finds every image in the memo
    small = dict(r=0, kappa0=QQ(3, 2), window=1, states="random:2:3", seed=12)
    configs = [("witt-rep", dict(small, window=2, states="random:8:3")),
               ("heisenberg-rep", small), ("pairs-subset", small),
               ("affine-rep", small)]
    init = ModeOp.__init__
    for suite, kw in configs:
        holds = _counted_holds(monkeypatch)
        first = emit_report(report(suite, **kw), "json")
        calls, builds = [], []
        for name in ("apply_quad_sum", "apply_cubic_sum"):
            monkeypatch.setattr(fock, name, lambda *args: calls.append(args))
        monkeypatch.setattr(ModeOp, "__init__",
                            lambda op, *args: builds.append(init(op, *args)))
        assert emit_report(report(suite, **kw), "json") == first
        assert calls == [] and builds == [], suite
        # each run frees the caches once, from run_suite
        assert holds == ["run_suite"] * 2, suite
        monkeypatch.undo()


def test_a_repeated_virasoro_config_walks_no_oscillator_sum_again(monkeypatch):
    # virasoro-rep runs its probes under B0 = 0, B1 = 0 after the main grid;
    # the operators and entries of both sets are kept side by side, so a
    # re-run finds every part's image in the memo, calls no sum and walks
    # nothing
    for r in (0, 1):
        kw = dict(r=r, kappa0=1, window=2, states="random:3:3", seed=1)
        first = emit_report(report("virasoro-rep", **kw), "json")
        walk, walked = fock._walk, []
        apply_mono, looked, missed = ModeOp.apply_mono, [], []
        calls = []

        def counted(fams, *args):
            walked.append(fams)
            return walk(fams, *args)

        def looked_up(part, mono):
            looked.append(part.read)
            if (part, mono) not in fock._MEMO:
                missed.append(part.read)
            return apply_mono(part, mono)

        monkeypatch.setattr(fock, "_walk", counted)
        monkeypatch.setattr(ModeOp, "apply_mono", looked_up)
        for name in ("apply_quad_sum", "apply_cubic_sum"):
            monkeypatch.setattr(fock, name, lambda *args: calls.append(args))
        assert emit_report(report("virasoro-rep", **kw), "json") == first
        monkeypatch.undo()
        assert walked == [] and missed == [] and calls == [], r
        # parts over b or b1 among them
        assert any(read & fock._CURRENT for read in looked), r


def test_run_suite_is_the_one_caller_of_hold(monkeypatch):
    # applying, building and the probes' own parameter set free nothing:
    # each run frees the caches once, from run_suite
    kw = dict(r=0, kappa0=QQ(3, 2), states="random:3:3", seed=12)
    callers = _counted_holds(monkeypatch)
    report("witt-rep", window=1, **kw)
    report("witt-rep", window=2, **kw)
    report("virasoro-rep", window=1, **kw)
    report("virasoro-rep", window=1, **dict(kw, r=1))
    assert callers == ["run_suite"] * 4


def test_all_suite_names_runnable():
    # smallest windows: every suite must at least run and report
    for name in SUITE_NAMES:
        rep = report(name, window=1)
        assert rep.passed + rep.failed == len(rep.checks)
        assert len(rep.checks) > 0
