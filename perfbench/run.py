"""threepv benchmark: run one workload, check every report, print metrics.

Usage, from the root of a threepv checkout:

    python3 perfbench/run.py --workload affine|quad-reps|algebra-cli \
        [--seed N] [--seconds S] [--trace 0|1]

Every round of the workload runs in a fresh interpreter (perfbench/child.py)
with src/ of the checkout first on its path, one thread and
THREEPV_THREADS unset.  Rounds start until --seconds have passed, so a run
is always whole rounds.  With --trace 0 the last line of output is a JSON
object with the end-to-end metrics, their times scaled to the reference host
speed that child.HostClock measures; with --trace 1 one untraced round is
followed by traced rounds, and the JSON object holds the per-layer metrics
and the tracing overhead.  Exit status is 0 when the run completed, 2 when
it could not (no threepv source, or a round that could not start).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS_PER_ROUND = 2    # set-up-only interpreters before each untraced round
DEADLINE_S = 170        # a run ends within 180 s
END_TO_END_UNITS = (("setup_s", "s"), ("checks_per_s", "checks/s"),
                    ("run_p50_s", "s"), ("peak_rss_mb", "MB"))


class RunError(Exception):
    """The run cannot continue; no result is printed."""


def _child(root, workload, seed, mode, deadline):
    env = dict(os.environ)
    env.pop("THREEPV_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), HERE] +
        ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time before a %s interpreter" % mode)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), workload,
             str(seed), mode],
            cwd=root, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError("a %s interpreter ran past the deadline" % mode)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError("a %s interpreter exited with %d:\n%s"
                       % (mode, proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(lines[-1])


def _rounds(root, args, deadline, mode, start, setups_per_round=0):
    """Whole rounds until --seconds have passed since start (at least one),
    each after setups_per_round set-up-only interpreters, so that set-up
    samples spread over the run as the host's speed changes.

    Returns (rounds, set-up samples).
    """
    rounds, setups = [], []
    while True:
        setups += [_child(root, args.workload, args.seed, "setup", deadline)
                   for _ in range(setups_per_round)]
        rounds.append(_child(root, args.workload, args.seed, mode, deadline))
        if time.monotonic() - start >= args.seconds:
            return rounds, setups


def _op_seconds(rnd):
    return sum(op["seconds"] for op in rnd["ops"])


def _tally(rounds):
    """(attempted, failed, problem lines, digests consistent?)"""
    attempted = failed = 0
    lines = []
    for rnd in rounds:
        for op in rnd["ops"]:
            attempted += 1
            if op["problems"]:
                failed += 1
                lines.append("FAILED %s: %s" % (op["label"], "; ".join(op["problems"])))
    digests = [[op["digest"] for op in rnd["ops"]] for rnd in rounds]
    return attempted, failed, lines, all(d == digests[0] for d in digests)


def end_to_end(rounds, setups):
    """The end-to-end metrics, from times scaled to the reference host speed
    (child.HostClock), with the unscaled wall times in the notes."""
    checks = sum(op["checks"] for rnd in rounds for op in rnd["ops"])
    op_times = [op["scaled_s"] for rnd in rounds for op in rnd["ops"]]
    wall = [op["seconds"] for rnd in rounds for op in rnd["ops"]]
    setup_times = [s["setup_scaled_s"] for s in setups]
    values = {
        "setup_s": statistics.median(setup_times),
        "checks_per_s": checks / sum(op_times),
        "run_p50_s": statistics.median(op_times),
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in rounds) / 1024,
    }
    notes = ["times are scaled to the reference host speed; unscaled: "
             "setup median %.4f s, %.1f checks/s, operation median %.4f s"
             % (statistics.median(s["setup_s"] for s in setups),
                checks / sum(wall), statistics.median(wall)),
             "setup_s: median of %d interpreters" % len(setups),
             "checks_per_s: %d checks over %d rounds, %s s per round" % (
                 checks, len(rounds),
                 " ".join("%.2f" % sum(op["scaled_s"] for op in r["ops"])
                          for r in rounds)),
             "run_p50_s: median of %d operations" % len(op_times),
             "peak_rss_mb: median of %d round interpreters" % len(rounds)]
    return values, notes


def traced_metrics(plain, traced):
    """Median of each per-layer metric over the traced rounds, plus the
    tracing overhead against the untraced round."""
    names = []
    for rnd in traced:
        names += [n for n in rnd["layers"] if n not in names]
    out = {}
    for name in names:
        vals = [rnd["layers"][name][0] for rnd in traced if name in rnd["layers"]]
        out[name] = (statistics.median(vals), traced[0]["layers"][name][1])
    overhead = statistics.median(_op_seconds(r) for r in traced) - _op_seconds(plain)
    out["trace.overhead_s"] = (overhead, "s")
    return out


def expected_layer_names():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "threepv", "__init__.py")):
        print("error: run from the root of a threepv checkout "
              "(no src/threepv here)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            start = time.monotonic()
            plain = _child(root, args.workload, args.seed, "round", deadline)
            rounds = _rounds(root, args, deadline, "traced", start)[0]
            metrics = traced_metrics(plain, rounds)
            rounds = [plain] + rounds
            notes = ["per-layer metrics: median of %d traced rounds; "
                     "trace.overhead_s is traced minus untraced operation time"
                     % (len(rounds) - 1)]
            for name in expected_layer_names():
                if name not in metrics:
                    notes.append("absent: %s (its function or memo is gone)" % name)
        else:
            rounds, setups = _rounds(root, args, deadline, "round",
                                     time.monotonic(), SETUPS_PER_ROUND)
            values, notes = end_to_end(rounds, setups + rounds)
            metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS}
        cross = None
        if args.workload in ("affine", "quad-reps"):
            cross = _child(root, args.workload, args.seed, "crosscheck",
                           deadline)["crosscheck"]
    except RunError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    attempted, failed, problem_lines, same_bytes = _tally(rounds)
    correct = same_bytes
    for line in problem_lines[:10]:
        print(line)
    if not same_bytes:
        print("INCORRECT: a report differs between rounds of identical inputs")
    if cross is not None:
        print("cross-check: %d sum applications compared with "
              "fock.naive_sum_apply, %d mismatches"
              % (cross["compared"], len(cross["mismatches"])))
        for line in cross["mismatches"]:
            print("INCORRECT: smart and brute-force sums differ: %s" % line)
        correct = correct and not cross["mismatches"]
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print("%-28s %14.6f %s" % (name, value, unit))
    print("operations: %d attempted, %d failed" % (attempted, failed))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
