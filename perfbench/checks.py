"""Correctness properties that every report of the benchmark must have.

check_report reads one parsed JSON report and returns the properties it
breaks, as readable strings; an empty list means the report is right.
Nothing here compares against stored output: check counts come from closed
forms, and the one family of expected failures (virasoro-rep's mixed pairs,
acceptance criterion 08) is recomputed from liealg.phi1 and
realization.central_charge.
"""

import re

from threepv.fock import FockState, seeded_states
from threepv.liealg import phi1
from threepv.realization import central_charge

# suites that state a theorem: every check must pass.  mu-compare is a
# report, but its closed form and oracle agree on every window measured, so
# a disagreement would be a new finding.
THEOREM_SUITES = frozenset([
    "ring-witt", "kaehler-basis", "mu-compare", "affine-jacobi",
    "cocycle-identity", "coboundary-window", "density-module",
    "lambda-table", "heisenberg-rep", "affine-rep", "witt-rep",
    "pairs-subset",
])

# ordered generator pairs on which the closed affine table and the
# pairing-based construction differ (README, "Acceptance gate")
KASSEL_MIXED = frozenset([
    ("h", "h1"), ("h1", "h"), ("e", "f1"), ("f1", "e"), ("e1", "f"),
    ("f", "e1"),
])

_MIXED_VIR = re.compile(r"\[pi\(D\)_(-?\d+), pi\(D1\)_(-?\d+)\]\Z")
_KASSEL_LHS = re.compile(r"closed table \[(\w+)_(-?\d+), (\w+)_(-?\d+)\]\Z")
_W1_ONLY = re.compile(r"-?[1-9]\d*(/\d+)?\*w1_0\Z")

_SHOWN = 3  # problems of one kind listed before the rest are counted


def random_count(spec):
    """K of a 'random:K:D' states spec, 0 for 'vacuum'."""
    return 0 if spec == "vacuum" else int(spec.split(":")[1])


def expected_checks(suite, window, extra):
    """Closed-form check count of a suite at a window.

    extra is the K of 'random:K:D': seeded states for the representation
    suites, seeded ring elements for kaehler-basis.
    """
    side = 2 * window + 1
    states = extra + 1
    counts = {
        "ring-witt": (2 * side) ** 2,
        "kaehler-basis": side + extra,
        "mu-compare": side ** 2,
        # antisymmetry plus one jacobiator per multiset of 3 of 6 families
        "affine-jacobi": 1 + 56,
        "kassel-vs-table": (6 * side) ** 2,
        "cocycle-identity": 4,
        "coboundary-window": 4,
        "density-module": 4,
        "lambda-table": side,
        "heisenberg-rep": 4 * side ** 2 * states,
        "affine-rep": 21 * side ** 2 * states,
        "witt-rep": 3 * side ** 2 * states,
        "pairs-subset": 4 * side ** 2 * states,
        "virasoro-rep": 3 * side ** 2 * states + 4,
    }
    return counts[suite]


def labelled_states(spec, seed):
    """The evaluation states of a report, by label, rebuilt from its params."""
    out = {"vacuum": FockState.vacuum()}
    if spec != "vacuum":
        _, count, degree = spec.split(":")
        for i, st in enumerate(seeded_states(seed, int(count), int(degree))):
            out["s%02d" % i] = st
    return out


def _where(c):
    return "%s [state %s]" % (c["lhs"], c["state"])


def _limit(problems):
    if len(problems) > _SHOWN:
        return problems[:_SHOWN] + ["... and %d more" % (len(problems) - _SHOWN)]
    return problems


def _virasoro_problems(rep):
    params = rep["params"]
    states = labelled_states(params["states"], params["seed"])
    c1 = central_charge(params["r"])
    out = []
    for c in rep["checks"]:
        mixed = _MIXED_VIR.match(c["lhs"])
        if mixed is None:
            if not c["pass"]:
                out.append("like-kind or pure-central check fails: %s" % _where(c))
            continue
        m, n = int(mixed.group(1)), int(mixed.group(2))
        value = -phi1(("d", m + 1), ("d1", n + 1)) * c1
        if c["pass"] != (value == 0):
            out.append("mixed check %s %s, but -phi1*c1 = %s" % (
                _where(c), "passes" if c["pass"] else "fails", value))
        elif not c["pass"]:
            want = repr(states[c["state"]].scale(value))
            if c["residual"] != want:
                out.append("residual of %s is %s, not -phi1*c1*state = %s"
                           % (_where(c), c["residual"], want))
    return out


def _kassel_problems(rep):
    out = []
    for c in rep["checks"]:
        if c["pass"]:
            continue
        lhs = _KASSEL_LHS.match(c["lhs"])
        if lhs is None or (lhs.group(1), lhs.group(3)) not in KASSEL_MIXED:
            out.append("difference outside the six mixed pairs: %s" % _where(c))
        elif not _W1_ONLY.match(c["residual"]):
            out.append("residual of %s is not a multiple of w1_0 alone: %s"
                       % (_where(c), c["residual"]))
    return out


def check_report(rep, exit_status=None):
    """Properties the parsed JSON report breaks; [] when it has them all.

    exit_status, when given, is the CLI's return code for the report.
    """
    suite = rep["suite"]
    params = rep["params"]
    checks = rep["checks"]
    problems = []
    want = expected_checks(suite, params["window"], random_count(params["states"]))
    if len(checks) != want:
        problems.append("%d checks, the closed form gives %d" % (len(checks), want))
    passed = sum(1 for c in checks if c["pass"])
    if rep["passed"] != passed or rep["failed"] != len(checks) - passed:
        problems.append("totals passed=%s failed=%s do not match the checks"
                        % (rep["passed"], rep["failed"]))
    flags = [_where(c) for c in checks if c["pass"] != (c["residual"] is None)]
    if flags:
        problems.append("pass flag and residual disagree at %s" % flags[0])
    if suite in THEOREM_SUITES:
        bad = [_where(c) for c in checks if not c["pass"]]
        if bad:
            problems.append("%d checks of a theorem fail; first %s" % (len(bad), bad[0]))
    elif suite == "virasoro-rep":
        problems += _limit(_virasoro_problems(rep))
    elif suite == "kassel-vs-table":
        problems += _limit(_kassel_problems(rep))
    if exit_status is not None:
        want_status = 0 if rep["failed"] == 0 else 1
        if exit_status != want_status:
            problems.append("exit status %s, the report asks for %d"
                            % (exit_status, want_status))
    return problems


def check_repeat(text, first_text):
    """A repeated config must render byte-identical JSON."""
    if text != first_text:
        return ["JSON differs from the first run of the same config"]
    return []
