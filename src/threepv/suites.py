"""Named verification suites and the report plumbing behind the CLI.

Each suite certifies one family of identities as exact rational equalities
and returns a CheckReport: a flat list of checks, each with a human-readable
lhs / rhs description, the state it was evaluated on ('-' for stateless
algebraic checks), a pass flag, and the exact residual when it fails.

Each suite body is a generator of check dicts; run_suite sorts them by
(lhs, rhs, state), so for a fixed config and seed the JSON rendering is
byte-identical across runs.  The representation suites and the audit share
one grid evaluator, _rep_checks, which checks the residual [A, B] s - R s
on each state and builds each unordered pair's commutator once for both
orders.  It keeps one fock.ImageTable per state for the grid, so each
operator, right-hand sides' included, is applied to each state once
per run.

The audit re-runs two bracket identities on a small window and reports the
integer mode shift that would repair any failure, so a convention drift
surfaces as a loud diagnostic instead of a silent mismatch.
"""

import itertools
import json
import random

from .scalars import QQ, parse_rat, rat_str
from .ring import RRingElem, witt_bracket_geometric
from .kaehler import CohomClass, OneForm, differential, reduce_mod_dR
from .kaehler import lambda_coeff, mu_oracle
from .liealg import (
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
from .density import density_module_check
from .fock import (FockState, ImageTable, RepParams, combine, commutator_apply,
                   hold, seeded_states)
from .realization import (
    AFFINE_GENERATORS,
    VirParams,
    WITT_REP_PAIRS,
    PAIRS_ITEMS,
    bracket_rhs_op,
    central_charge,
    field_mode,
    pairs_gj,
    pi_vir_mode,
    tau_mode,
    tau_realize,
    vir_realize,
    witt_rep_gj,
)

FORMATS = ("text", "json")

_DENSITY_ALPHAS = (0, QQ(1, 2), QQ(-3, 4), 2)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def parse_states_spec(spec):
    """Parse 'vacuum' or 'random:K:D' into ('vacuum', 0, 0) / ('random', K, D)."""
    if spec == "vacuum":
        return ("vacuum", 0, 0)
    parts = spec.split(":")
    if len(parts) == 3 and parts[0] == "random":
        try:
            count, degree = int(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError("bad states spec %r" % (spec,))
        if count < 1 or degree < 0:
            raise ValueError("bad states spec %r" % (spec,))
        return ("random", count, degree)
    raise ValueError("states must be 'vacuum' or 'random:K:D', got %r" % (spec,))


def parse_b1(text):
    """Parse a 2x2 matrix given row-major as 'a,b,c,d' (exact rationals)."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError("B1 must be 4 comma-separated rationals, got %r" % (text,))
    a, b, c, d = (parse_rat(p) for p in parts)
    return ((a, b), (c, d))


def _integer(name, x):
    """x as an int; a value that int() would truncate is refused."""
    value = int(x)
    if value != x:
        raise ValueError("%s must be an integer, got %r" % (name, x))
    return value


class SuiteConfig:
    """Validated parameters for one suite run; params is the run's one
    RepParams, built from r, kappa0, B0 and B1 (rep) by its rules and
    defaults."""

    __slots__ = ("suite", "params", "window", "states", "seed", "format")

    def __init__(self, suite, window=3, states="vacuum", seed=0, format="text",
                 **rep):
        if suite not in SUITE_NAMES:
            raise ValueError("unknown suite: %s" % (suite,))
        self.params = RepParams(**rep)
        window = _integer("window", window)
        if window < 1:
            raise ValueError("window must be >= 1, got %r" % (window,))
        parse_states_spec(states)
        if format not in FORMATS:
            raise ValueError("format must be one of %s, got %r" % (FORMATS, format))
        self.suite = suite
        self.window = window
        self.states = states
        self.seed = _integer("seed", seed)
        self.format = format

    def params_dict(self):
        """Config echo for the report, with rationals as 'p/q' strings."""
        p = self.params
        return {
            "r": p.r,
            "kappa0": rat_str(p.kappa0),
            "B0": rat_str(p.B0),
            "B1": [[rat_str(x) for x in row] for row in p.B1],
            "window": self.window,
            "states": self.states,
            "seed": self.seed,
        }


def build_states(cfg):
    """Labelled evaluation states: the vacuum plus any seeded random states."""
    kind, count, degree = parse_states_spec(cfg.states)
    out = [("vacuum", FockState.vacuum())]
    if kind == "random":
        for i, st in enumerate(seeded_states(cfg.seed, count, degree)):
            out.append(("s%02d" % i, st))
    return out


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _check(lhs, rhs, state, ok, residual):
    return {
        "lhs": lhs,
        "rhs": rhs,
        "state": state,
        "pass": bool(ok),
        "residual": None if ok else residual,
    }


def _scalar_check(lhs, rhs, state, got, want):
    ok = got == want
    return _check(lhs, rhs, state, ok, None if ok else rat_str(got - want))


def _state_check(lhs, rhs, state, got, want):
    """A check of got == want; the residual is rendered only on failure."""
    ok = got == want
    return _check(lhs, rhs, state, ok, None if ok else repr(got - want))


class CheckReport:
    """Outcome of one suite run: checks plus pass/fail totals."""

    __slots__ = ("suite", "params", "checks", "passed", "failed")

    def __init__(self, suite, params, checks):
        self.suite = suite
        self.params = params
        self.checks = list(checks)
        self.passed = sum(1 for c in self.checks if c["pass"])
        self.failed = len(self.checks) - self.passed


# Checks are flat dicts, so the C encoder with this item separator lays out
# a list of them as indent=2 does but for the break between two dicts.
_ITEM = ",\n      "
_BREAK = "\n    },\n    {\n      "
_encode_checks = json.JSONEncoder(separators=(_ITEM, ": ")).encode


def emit_report(report, format="text"):
    """Render a CheckReport as stable JSON (json.dumps, indent=2) or text."""
    if format == "json":
        # An indent would take json's pure-Python encoder.  No string holds a
        # raw newline, so "}" _ITEM "{" is a break.  Batches keep strings
        # small: one per report raised peak RSS by up to 1.4 MB.
        head = json.dumps({"suite": report.suite, "params": report.params}, indent=2)
        c = report.checks
        checks = _BREAK.join(
            _encode_checks(c[i:i + 128])[2:-2].replace("}" + _ITEM + "{", _BREAK)
            for i in range(0, len(c), 128))
        return '%s,\n  "checks": %s,\n  "passed": %d,\n  "failed": %d\n}\n' % (
            head[:-2], "[\n    {\n      %s\n    }\n  ]" % checks if c else "[]",
            report.passed, report.failed)
    if format != "text":
        raise ValueError("format must be one of %s, got %r" % (FORMATS, format))
    lines = ["suite: %s" % report.suite]
    p = report.params
    lines.append(
        "params: r=%s kappa0=%s B0=%s B1=%s window=%s states=%s seed=%s"
        % (p["r"], p["kappa0"], p["B0"],
           ",".join(x for row in p["B1"] for x in row),
           p["window"], p["states"], p["seed"])
    )
    for c in report.checks:
        line = "%s  %s == %s  [state %s]" % (
            "PASS" if c["pass"] else "FAIL", c["lhs"], c["rhs"], c["state"])
        if not c["pass"]:
            line += "  residual: %s" % c["residual"]
        lines.append(line)
    lines.append("passed %d, failed %d" % (report.passed, report.failed))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# suite bodies (each is a generator of check dicts)
# ---------------------------------------------------------------------------

def _modes(window):
    return range(-window, window + 1)


def _mode_pairs(window):
    return itertools.product(_modes(window), repeat=2)


def _rep_checks(cfg, window, fam_pairs, mode, bracket, explain=None):
    """Checks of [A_m, B_n] s == R s on each labelled state of cfg, for each
    family pair (A, B) in fam_pairs and modes m, n in the window, where
    mode(A, m) is the operator A_m and bracket(A, m, B, n) is (lhs label,
    rhs label, R) by the suite's own formula for that order.  When (B, A)
    is checked too, each unordered pair of modes is walked once: one
    commutator_apply call checks both orders, each against its own R.
    Each state's ImageTable lives for the grid, so every commutator reads
    the state's images under A, B and R's operators that an earlier one made.
    A failing check's residual text is explain(A, m, B, n, table) for its
    order and its state's table, or repr of the residual without explain;
    a passing check builds none.
    """
    tables = [(label, ImageTable(s)) for label, s in build_states(cfg)]
    fam_pairs = tuple(fam_pairs)
    walked = set()
    for fA, fB in fam_pairs:
        for m, n in _mode_pairs(window):
            if (fB, n, fA, m) in walked:
                continue
            walked.add((fA, m, fB, n))
            keys = [(fA, m, fB, n)]
            if (fB, fA) in fam_pairs and (fA, m) != (fB, n):
                keys.append((fB, n, fA, m))
            orders = [bracket(*key) for key in keys]
            A, B = mode(fA, m), mode(fB, n)
            for label, table in tables:
                resids = commutator_apply(A, B, table, *[R for _, _, R in orders])
                if len(orders) == 1:
                    resids = (resids,)
                for key, (lhs, rhs, _), resid in zip(keys, orders, resids):
                    ok = resid.is_zero()
                    yield _check(lhs, rhs, label, ok, None if ok else repr(resid)
                                 if explain is None else explain(*key, table))


def _suite_ring_witt(cfg):
    gens = [(k, m) for k in ("d", "d1") for m in _modes(cfg.window)]
    for i in gens:
        for j in gens:
            diff = witt_bracket(i, j) - witt_bracket_geometric(i, j)
            name = "[%s_%d, %s_%d]" % (i[0], i[1], j[0], j[1])
            yield _check("closed form %s" % name, "geometric %s" % name, "-",
                         diff.is_zero(), repr(diff))


def _seeded_ring_elems(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        e = RRingElem()
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(-6, 6)
            uu = rng.randint(0, 1)
            c = rng.randint(1, 9) * rng.choice((1, -1))
            e = e + RRingElem.monomial(k, uu, c)
        out.append(e)
    return out


def _suite_kaehler_basis(cfg):
    kind, count, _ = parse_states_spec(cfg.states)
    for k in _modes(cfg.window):
        got = reduce_mod_dR(OneForm(ft=RRingElem.monomial(k, 0)))
        want = CohomClass(1, 0) if k == -1 else CohomClass()
        yield _state_check("reduce(t^%d dt)" % k,
                           "w0" if k == -1 else "0", "-", got, want)
    if kind == "random":
        for i, f in enumerate(_seeded_ring_elems(cfg.seed, count)):
            got = reduce_mod_dR(differential(f))
            yield _check("reduce(d f%03d)" % i, "0", "-", got.is_zero(), repr(got))


def _suite_mu_compare(cfg):
    for m, n in _mode_pairs(cfg.window):
        closed = mu_closed_form(m, n)
        oracle = mu_oracle(m, n)
        yield _scalar_check(
            "mu(%d,%d) closed form = %s" % (m, n, rat_str(closed)),
            "reduction oracle = %s" % rat_str(oracle),
            "-", closed, oracle)


def _suite_affine_jacobi(cfg):
    gens = [(g, m) for g in AFFINE_GENERATORS for m in _modes(cfg.window)]
    bad = check_jacobi(kassel_bracket(), gens)
    bad_anti = [where[1:] for where, _res in bad if where[0] == "antisym"]
    yield _check(
        "antisymmetry of the oracle-backed bracket, |modes| <= %d" % cfg.window,
        "0", "-", not bad_anti,
        None if not bad_anti else "%d violations; first %r" % (
            len(bad_anti), bad_anti[0]))
    bad_by_fams = {}
    for (kind, *xyz), res in bad:
        if kind == "jacobi":
            key = tuple(sorted(g[0] for g in xyz))
            bad_by_fams.setdefault(key, []).append((xyz, res))
    for fams in itertools.combinations_with_replacement(sorted(AFFINE_GENERATORS), 3):
        hits = bad_by_fams.get(fams, [])
        residual = None
        if hits:
            (x, y, z), res = hits[0]
            residual = "%d violations; first at (%s_%d, %s_%d, %s_%d): %s" % (
                len(hits), x[0], x[1], y[0], y[1], z[0], z[1], res)
        yield _check(
            "jacobiator on {%s, %s, %s}, |modes| <= %d"
            % (fams[0], fams[1], fams[2], cfg.window),
            "0", "-", not hits, residual)


def _suite_kassel_vs_table(cfg):
    gens = [(g, m) for g in AFFINE_GENERATORS for m in _modes(cfg.window)]
    kassel = kassel_bracket()
    for i in gens:
        for j in gens:
            diff = affine_bracket(i, j) - kassel(i, j)
            name = "[%s_%d, %s_%d]" % (i[0], i[1], j[0], j[1])
            yield _check("closed table %s" % name,
                         "pairing construction %s" % name,
                         "-", diff.is_zero(), repr(diff))


def _suite_cocycle_identity(cfg):
    bad = check_cocycle_identity(cfg.window)
    for name, fam in (("phi1", "c1"), ("phi2", "c2")):
        for label, kind in (("antisymmetry", "antisym"),
                            ("cocycle identity", "jacobi")):
            hits = [b for b in bad if b[1] == fam and b[0][0] == kind]
            residual = None
            if hits:
                residual = "%d violations; first %r -> %s" % (
                    len(hits), hits[0][0], rat_str(hits[0][2]))
            yield _check("%s %s, |modes| <= %d" % (name, label, cfg.window),
                         "0", "-", not hits, residual)


def _cert_str(cert):
    bits = []
    for (x, y), c in cert:
        bits.append("%s*phi(%s_%d, %s_%d)" % (rat_str(c), x[0], x[1], y[0], y[1]))
    return " + ".join(bits)


def _suite_coboundary_window(cfg):
    for name, phi in (("phi1", phi1), ("phi2", phi2)):
        res = coboundary_window_test(phi, cfg.window)
        infeasible = not res["feasible"]
        yield _check(
            "%s on |modes| <= %d is a coboundary" % (name, cfg.window),
            "infeasible", "-", infeasible,
            None if infeasible else
            "feasible: a linear functional matches %s on the window" % name)
        if infeasible:
            cert = res["certificate"]
            total = sum(c * phi(x, y) for (x, y), c in cert)
            yield _check(
                "certificate for %s: %s = %s while the same combination of "
                "brackets vanishes" % (name, _cert_str(cert), rat_str(total)),
                "nonzero", "-", bool(total), "certificate pairs to zero")


_HEIS_FIELDS = {"b": "beta", "b1": "beta1"}


def _suite_heisenberg_rep(cfg):
    params = cfg.params
    unit = field_mode("1", -1, params)

    def bracket(famA, m, famB, n):
        # one0 acts by kappa0, one1 by zero in this representation
        value = heis_bracket((famA, m), (famB, n)).terms.get(("one0", 0), 0)
        value *= params.kappa0
        return ("realized [%s_%d, %s_%d]" % (famA, m, famB, n),
                "%s * id (one0 -> kappa0, one1 -> 0)" % rat_str(value),
                combine(((value, unit),)))
    return _rep_checks(cfg, cfg.window, itertools.product(_HEIS_FIELDS, repeat=2),
                       lambda fam, m: field_mode(_HEIS_FIELDS[fam], m, params),
                       bracket)


def _suite_affine_rep(cfg):
    params = cfg.params
    rhs = "realized bracket (w0 -> kappa0 + 4*delta_{r,0}, w1 -> 0)"

    def bracket(gA, m, gB, n):
        return ("realized [%s_%d, %s_%d]" % (gA, m, gB, n), rhs,
                tau_realize(affine_bracket((gA, m), (gB, n)), params))
    pairs = itertools.combinations_with_replacement(AFFINE_GENERATORS, 2)
    return _rep_checks(cfg, cfg.window, pairs, lambda g, m: tau_mode(g, m, params),
                       bracket)


def _suite_witt_rep(cfg):
    params = cfg.params
    j_terms = {pair: witt_rep_gj(pair, params.r) for pair in WITT_REP_PAIRS}

    def bracket(kA, m, kB, n):
        return ("[pi(%s)_%d, pi(%s)_%d]" % (kA, m, kB, n),
                "mode expansion of the bracket fields",
                bracket_rhs_op(j_terms[kA, kB], m, n, params))
    return _rep_checks(cfg, cfg.window, WITT_REP_PAIRS,
                       lambda k, m: field_mode("pi_" + k, m, params), bracket)


# The main grid leaves out (D1, D).  Vacuum probes isolate the central
# action: with B0 = 0 and B1 = 0 the non-central part of each bracket kills
# the vacuum, so the commutator must return exactly (cocycle value) *
# (realized central class) * |0>.
_VIR_PAIRS = (("D", "D"), ("D", "D1"), ("D1", "D1"))
_VIR_PROBES = (
    ("D1", "D1", 2, -3),
    ("D1", "D1", 1, -2),
    ("D1", "D1", 0, -1),
    ("D", "D", -2, 0),
)


def _suite_virasoro_rep(cfg):
    params = cfg.params
    vparams = VirParams.standard(params.kappa0)
    rhs = "realized bracket (c1 -> %s, c2 -> 0)" % rat_str(central_charge(params.r))

    def bracket(kA, m, kB, n):
        return ("[pi(%s)_%d, pi(%s)_%d]" % (kA, m, kB, n), rhs,
                vir_realize(vir_bracket((kA.lower(), m + 1), (kB.lower(), n + 1)),
                            params, vparams))
    yield from _rep_checks(cfg, cfg.window, _VIR_PAIRS,
                           lambda k, m: pi_vir_mode(k, m, params, vparams), bracket)
    zero = RepParams(r=params.r, kappa0=params.kappa0, B0=0, B1=((0, 0), (0, 0)))
    vacuum = ImageTable(FockState.vacuum())
    for kA, kB, m, n in _VIR_PROBES:
        value = phi1((kA.lower(), m + 1), (kB.lower(), n + 1))
        value *= central_charge(params.r)
        resid = commutator_apply(
            pi_vir_mode(kA, m, zero, vparams), pi_vir_mode(kB, n, zero, vparams),
            vacuum, combine(((value, field_mode("1", -1, zero)),)))
        yield _check("pure-central [pi(%s)_%d, pi(%s)_%d] with B0 = 0, B1 = 0"
                     % (kA, m, kB, n), "%s * |0>" % rat_str(value), "vacuum",
                     resid.is_zero(), repr(resid))


def _suite_pairs_subset(cfg):
    params = cfg.params
    gj = {item: pairs_gj(item, params) for item in PAIRS_ITEMS}

    def bracket(item, m, _item, n):
        field, j_terms = gj[item]
        return ("item %d: [%s_%d, %s_%d]" % (item, field, m, field, n),
                "mode expansion of the bracket fields",
                bracket_rhs_op(j_terms, m, n, params))
    return _rep_checks(cfg, cfg.window, ((item, item) for item in PAIRS_ITEMS),
                       lambda item, m: field_mode(gj[item][0], m, params), bracket)


def _suite_density_module(cfg):
    for alpha in _DENSITY_ALPHAS:
        bad = density_module_check(alpha, cfg.window)
        residual = None
        if bad:
            (x, y, key), res = bad[0]
            residual = "%d violations; first at ([%s_%d, %s_%d], %s_%d): %r" % (
                len(bad), x[0], x[1], y[0], y[1], key[0], key[1], res)
        yield _check(
            "module axioms for U_alpha, alpha = %s, |modes| <= %d"
            % (rat_str(alpha), cfg.window),
            "0", "-", not bad, residual)


def _suite_lambda_table(cfg):
    for j in _modes(cfg.window):
        closed = CohomClass(0, lambda_coeff(j))
        got = reduce_mod_dR(OneForm(ft=RRingElem.monomial(j, 1)))
        yield _state_check(
            "lambda(%d) closed form = %s" % (j, rat_str(closed.q1)),
            "class(t^%d u dt) = %r" % (j, got), "-", got, closed)


# the uniform mode shifts the audit tries on a failed identity
AUDIT_SHIFTS = (-2, -1, 1, 2)


def _suite_audit(cfg):
    # Deliberately small windows whose failures report the observed index
    # shift: a drifted mode convention shows up here as 'repaired by shift s'
    # instead of as a wall of unexplained representation failures.  Each
    # line brackets one field with itself: field -> (line name, j_terms).
    params = cfg.params
    item_1, j_terms = pairs_gj(1, params)
    lines = {item_1: ("weight-one current pair", j_terms),
             "pi_d1": ("derivation family line",
                       witt_rep_gj(("d1", "d1"), params.r))}

    def mode(field, m):
        return field_mode(field, m, params)

    def bracket(field, m, _field, n):
        return ("audit %s: [%s_%d, %s_%d]" % (lines[field][0], field, m, field, n),
                "mode-translated bracket, no shift",
                bracket_rhs_op(lines[field][1], m, n, params))

    def explain(field, m, _field, n, table):
        for s in AUDIT_SHIFTS:
            shifted = bracket_rhs_op(lines[field][1], m, n, params, shift=s)
            if commutator_apply(mode(field, m), mode(field, n), table,
                                shifted).is_zero():
                return "identity holds after the uniform mode shift K -> K + %d" % s
        return "no uniform mode shift in {%s} repairs it" % (
            ",".join(map(str, AUDIT_SHIFTS)))
    return _rep_checks(cfg, min(cfg.window, 2), ((f, f) for f in lines), mode,
                       bracket, explain)


_SUITES = {
    "ring-witt": _suite_ring_witt,
    "kaehler-basis": _suite_kaehler_basis,
    "mu-compare": _suite_mu_compare,
    "affine-jacobi": _suite_affine_jacobi,
    "kassel-vs-table": _suite_kassel_vs_table,
    "cocycle-identity": _suite_cocycle_identity,
    "coboundary-window": _suite_coboundary_window,
    "heisenberg-rep": _suite_heisenberg_rep,
    "affine-rep": _suite_affine_rep,
    "witt-rep": _suite_witt_rep,
    "virasoro-rep": _suite_virasoro_rep,
    "pairs-subset": _suite_pairs_subset,
    "density-module": _suite_density_module,
    "lambda-table": _suite_lambda_table,
    "audit": _suite_audit,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(cfg):
    """Run one named suite and return its CheckReport, checks sorted."""
    builder = _SUITES.get(cfg.suite)
    if builder is None:
        raise ValueError("unknown suite: %s" % (cfg.suite,))
    hold(cfg.params)
    checks = sorted(builder(cfg), key=lambda c: (c["lhs"], c["rhs"], c["state"]))
    return CheckReport(cfg.suite, cfg.params_dict(), checks)
