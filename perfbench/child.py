"""One fresh interpreter of the benchmark: set up, run, check, report.

Usage: python3 child.py <workload> <seed> <mode>

mode is one of
  setup       import threepv and build the workload's configs and states
  round       set up, then run every operation of the workload once
  traced      the same round with the per-layer tracer installed
  crosscheck  compare ModeOp.apply with fock.naive_sum_apply on a seeded
              sample of operators and states (never timed)

The last line of standard output is one JSON object.  Set-up time runs from
the first statement of this file, before threepv is imported.

Untraced set-ups and operations are also reported scaled to a reference
host speed (see HostClock): the CPU speed of a shared host swings by up to a
factor of two within seconds, which would hide any change to the program.
"""

import signal
import sys
import time

T0 = time.perf_counter()

# Host speed.  A probe runs a fixed pure-Python kernel that calls no threepv
# code.  PROBE_REF_S is its time on an unloaded core of the reference machine
# (README, "Machine"); a span is reported scaled by PROBE_REF_S over the mean
# time of the probes run during and around it.
PROBE_REF_S = 0.0016
PROBE_EVERY_S = 0.1
PROBES_AROUND = 3   # before and after each span, so short spans get several


def probe():
    """Seconds taken by the probe kernel: Fraction arithmetic and dict stores.

    These slow down with the host in step with the workload's own CPython
    code (README, "Scaling to a reference host speed").  Every step costs
    the same, and the kernel keeps 64 entries.
    """
    from fractions import Fraction
    keep = {}
    t0 = time.perf_counter()
    for i in range(400):
        f = Fraction(i % 7 + 1, i % 97 + 1)
        keep[i % 64] = f * f + f
    return time.perf_counter() - t0


class HostClock:
    """Times spans and scales them to the reference host speed.

    Probes run just before and just after the span, and a SIGALRM timer
    interrupts the span every PROBE_EVERY_S seconds to run one more, so the
    probes follow the host's speed through long spans.  The probes' own time
    is taken out of the span's.
    """

    def __init__(self):
        self._probes = []
        self._spent = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, _signum, _frame):
        t0 = time.perf_counter()
        self._probes.append(probe())
        self._spent += time.perf_counter() - t0

    def scale(self, seconds):
        return seconds * PROBE_REF_S * len(self._probes) / sum(self._probes)

    def time(self, fn):
        """Run fn(); return (its result, its seconds, its scaled seconds)."""
        self._probes = [probe() for _ in range(PROBES_AROUND)]
        self._spent = 0.0
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0 - self._spent
        self._probes += [probe() for _ in range(PROBES_AROUND)]
        return result, seconds, self.scale(seconds)

    def scale_past(self, seconds, samples=10):
        """Scale a span that has just ended, by probes run after it."""
        self._probes = [probe() for _ in range(samples)]
        return self.scale(seconds)


def _config(spec):
    from threepv.scalars import parse_rat
    from threepv.suites import SuiteConfig
    kw = dict(spec)
    kw["kappa0"] = parse_rat(kw["kappa0"])
    if "B0" in kw:
        kw["B0"] = parse_rat(kw["B0"])
    if "B1" in kw:
        kw["B1"] = [[parse_rat(x) for x in row] for row in kw["B1"]]
    return SuiteConfig(format="json", **kw)


def setup(workload, seed, traced=False):
    """Import threepv and build every config and state set of the workload.

    Returns (ops, configs, tracer, seconds since the interpreter started
    this file).
    """
    import threepv.cli  # noqa: F401  (the whole package, as 3pv loads it)
    import threepv.suites as suites
    import workloads
    tracer = None
    if traced:
        import layertrace
        tracer = layertrace.install()
    ops = workloads.round_ops(workload, seed)
    configs = [_config(op["config"]) if op["via"] == "run_suite" else None
               for op in ops]
    for cfg in configs:
        if cfg is not None:
            suites.build_states(cfg)
    return ops, configs, tracer, time.perf_counter() - T0


def _run_op(op, cfg):
    """Run one operation; return (report JSON text, CLI exit status)."""
    import contextlib
    import io
    import threepv.cli as cli
    import threepv.suites as suites
    if op["via"] == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(op["argv"])
        return buf.getvalue(), status
    report = suites.run_suite(cfg)
    return suites.emit_report(report, "json"), None


def _attempt(op, cfg):
    """Run one operation; return (report JSON text, CLI exit status, error)."""
    try:
        return _run_op(op, cfg) + (None,)
    except Exception as exc:  # an operation that raises has failed
        return "", None, "raised %s: %s" % (type(exc).__name__, exc)


def run_round(workload, seed, traced):
    ops, configs, tracer, setup_s = setup(workload, seed, traced)
    # the tracer would trace the probes' Fraction calls, so a traced round
    # runs no probes and reports unscaled times only
    clock = None if tracer else HostClock()
    out = {"setup_s": setup_s}
    if clock:
        out["setup_scaled_s"] = clock.scale_past(setup_s)
    import hashlib
    import json
    import checks
    import workloads
    results = []
    texts = []
    for op, cfg in zip(ops, configs):
        if clock:
            (text, status, error), seconds, scaled = clock.time(
                lambda: _attempt(op, cfg))
        else:
            t0 = time.perf_counter()
            text, status, error = _attempt(op, cfg)
            seconds, scaled = time.perf_counter() - t0, None
        snap = tracer.snapshot() if tracer else None
        texts.append(text)
        if error is None:
            try:
                rep = json.loads(text)
            except ValueError:
                error = "printed no JSON report (exit status %s)" % status
        if error is None:
            problems = checks.check_report(rep, status)
            if "same_as" in op:
                problems += checks.check_repeat(text, texts[op["same_as"]])
        else:
            problems = [error]
        # only the checks of an operation that did not fail are certified
        n_checks = 0 if problems else len(rep["checks"])
        if tracer:
            tracer.restore(snap)
        results.append({"label": workloads.op_label(op), "seconds": seconds,
                        "scaled_s": scaled, "checks": n_checks,
                        "problems": problems,
                        "digest": hashlib.sha256(text.encode()).hexdigest()})
    out["ops"] = results
    if tracer:
        import layertrace
        out["layers"] = layertrace.layer_metrics(tracer)
    return out


def _box(sum_op, state):
    """A mode box that holds every mode of a sum that can act nonzero.

    Annihilators act first, on the state's own monomials, so each has
    |mode| <= I + 2, where I bounds the state's variable indices (b1 modes
    are shifted by at most 2).  Every other slot is fixed by the total mode
    M and the others, so |mode| <= |M| + 2 (I + 2).
    """
    idx = [abs(i) for mono in state.terms for (_code, i), _e in mono[0]]
    return abs(sum_op.M) + 2 * (max(idx, default=0) + 2) + 1


def crosscheck(workload, seed):
    """Smart sum enumeration against brute force on a seeded sample."""
    import random
    from threepv.fock import (FockState, ModeOp, RepParams, naive_sum_apply,
                              seeded_states)
    from threepv.realization import (VirParams, field_mode, pi_vir_mode,
                                     pi_witt_mode, tau_mode)
    from threepv.scalars import parse_rat
    import workloads
    rng = random.Random("crosscheck-%d" % seed)
    p = workloads.scalar_params(seed)
    compared = 0
    mismatches = []
    for _ in range(3):
        r = rng.choice((0, 1))
        kappa0 = parse_rat(rng.choice((p["k_int"], p["k_rat"])))
        params = RepParams(r=r, kappa0=kappa0, B0=parse_rat(p["B0"]),
                           B1=[[parse_rat(x) for x in row] for row in p["B1"]])
        m = rng.randint(-3, 3)
        if workload == "affine":
            kind = rng.choice(("e", "e1", "h", "h1"))
            op = tau_mode(kind, m, params)
        else:
            kind = rng.choice(("D", "D1", "d", "d1", "no_beta1_sq",
                               "no_dbeta1_beta1"))
            if kind in ("D", "D1"):
                op = pi_vir_mode(kind, m, params, VirParams.standard(kappa0))
            elif kind in ("d", "d1"):
                op = pi_witt_mode(kind, m, params)
            else:
                op = field_mode(kind, m, params)
        states = [FockState.vacuum()] + seeded_states(rng.randrange(10 ** 6), 2, 3)
        for sum_op in op.sums:
            for state in states:
                smart = ModeOp((), (sum_op,), params).apply(state)
                naive = naive_sum_apply(sum_op, state, params, _box(sum_op, state))
                compared += 1
                if smart != naive:
                    mismatches.append("%s_%d r=%d %r on %r"
                                      % (kind, m, r, sum_op, state))
    return {"compared": compared, "mismatches": mismatches[:3]}


def main(argv):
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    if mode == "setup":
        setup_s = setup(workload, seed)[3]
        out = {"setup_s": setup_s,
               "setup_scaled_s": HostClock().scale_past(setup_s)}
    elif mode in ("round", "traced"):
        out = run_round(workload, seed, mode == "traced")
    elif mode == "crosscheck":
        out = {"crosscheck": crosscheck(workload, seed)}
    else:
        raise SystemExit("unknown mode %r" % (mode,))
    import json
    import resource
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
