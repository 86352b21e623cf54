"""The three workloads: the operations of one round, made from the seed.

One operation is one suite run.  A round runs every operation of its
workload once, in a fresh interpreter, so the process-global Fock memo and
the peak resident memory start cold, as they do for a ``3pv`` user.

The seed picks the scalar parameters of the representation suites (an
integer and a rational kappa0, B0 and B1), the random states of
heisenberg-rep and the random ring elements of kaehler-basis.  The random
states of the costly suites use the acceptance criteria's fixed state
seeds: one random state's cost varies with a coefficient of variation near
0.7, so states drawn from the seed would spread a run's timings far beyond
any useful bound.  The cross-check draws its states from the seed.
"""

import random

WORKLOADS = ("affine", "quad-reps", "algebra-cli")

# State seeds of the acceptance criteria (06, 07, 08, 11, 12).
AFFINE_STATE_SEED = 7
WITT_STATE_SEED = 12
PAIRS_STATE_SEED = 11
VIRASORO_STATE_SEED = 8

# criterion 12's witt-rep config, run three times in a row in one process
CRITERION_12 = {"suite": "witt-rep", "r": 0, "kappa0": "3/2", "window": 2,
                "states": "random:8:3", "seed": 12}

# (suite, windows, extra argv) of the algebra-cli ladder.  Each ladder
# reaches the suite's acceptance window, except density-module: its window 6
# alone takes about 5 s and would hide every other suite of the round.
ALGEBRA_LADDER = (
    ("ring-witt", (3, 6, 12), ()),
    ("kaehler-basis", (5, 10, 20), ("--states", "random:200:3")),
    ("mu-compare", (2, 4, 6), ()),
    ("affine-jacobi", (1, 3, 5), ()),
    ("kassel-vs-table", (1, 2, 4), ()),
    ("cocycle-identity", (2, 4, 8), ()),
    ("coboundary-window", (2, 4, 6), ()),
    ("density-module", (1, 2, 3), ()),
    ("lambda-table", (5, 10, 20), ()),
)


def scalar_params(seed):
    """Integer kappa0, rational kappa0, B0 and B1 drawn from the seed.

    Every value is nonzero, so no zero-mode term drops out and the cost of
    a suite does not depend on the draw.
    """
    rng = random.Random(seed)
    a = rng.choice((1, 2, -1))
    return {
        "k_int": str(rng.choice((1, 2, 3))),
        "k_rat": rng.choice(("3/2", "5/2", "2/3", "4/3", "5/4")),
        "B0": str(rng.choice((1, 2, 3, -1, -2))),
        "B1": [[str(a), str(rng.choice((1, 2, 3, -1, -2)))],
               [str(rng.choice((1, 2, 3, -1, -2))), str(a)]],
    }


def _suite_op(suite, r, kappa0, window, states, seed, p):
    return {"via": "run_suite", "suite": suite,
            "config": {"suite": suite, "r": r, "kappa0": kappa0,
                       "B0": p["B0"], "B1": p["B1"], "window": window,
                       "states": states, "seed": seed}}


def round_ops(workload, seed):
    """The operations of one round of the workload, in running order."""
    p = scalar_params(seed)
    ki, kr = p["k_int"], p["k_rat"]
    if workload == "affine":
        return [
            _suite_op("affine-rep", 0, ki, 1, "random:2:3", AFFINE_STATE_SEED, p),
            _suite_op("affine-rep", 0, kr, 1, "random:2:3", AFFINE_STATE_SEED, p),
            _suite_op("affine-rep", 1, ki, 3, "random:3:3", AFFINE_STATE_SEED, p),
            _suite_op("affine-rep", 1, kr, 3, "random:3:3", AFFINE_STATE_SEED, p),
        ]
    if workload == "quad-reps":
        ops = [
            _suite_op("heisenberg-rep", 0, ki, 3, "random:4:3", seed, p),
            _suite_op("heisenberg-rep", 1, kr, 3, "random:4:3", seed, p),
            _suite_op("witt-rep", 0, ki, 2, "random:3:3", WITT_STATE_SEED, p),
            _suite_op("witt-rep", 1, kr, 2, "random:3:3", WITT_STATE_SEED, p),
            _suite_op("pairs-subset", 0, ki, 2, "random:3:3", PAIRS_STATE_SEED, p),
            _suite_op("pairs-subset", 1, kr, 2, "random:3:3", PAIRS_STATE_SEED, p),
            _suite_op("virasoro-rep", 0, ki, 2, "random:2:3", VIRASORO_STATE_SEED, p),
            _suite_op("virasoro-rep", 1, kr, 2, "random:2:3", VIRASORO_STATE_SEED, p),
        ]
        first = len(ops)
        ops.append({"via": "run_suite", "suite": "witt-rep",
                    "config": dict(CRITERION_12)})
        for _ in range(2):
            ops.append({"via": "run_suite", "suite": "witt-rep",
                        "config": dict(CRITERION_12), "same_as": first})
        return ops
    if workload == "algebra-cli":
        ops = []
        for suite, windows, extra in ALGEBRA_LADDER:
            for w in windows:
                argv = [suite, "--window", str(w), "--format", "json"]
                argv += list(extra)
                if extra:
                    argv += ["--seed", str(seed)]
                ops.append({"via": "cli", "suite": suite, "argv": argv})
        return ops
    raise ValueError("unknown workload %r" % (workload,))


def op_label(op):
    """Short human-readable name of an operation."""
    if op["via"] == "cli":
        return "3pv " + " ".join(op["argv"])
    c = op["config"]
    return "%s r=%d kappa0=%s window=%d states=%s seed=%d" % (
        c["suite"], c["r"], c["kappa0"], c["window"], c["states"], c["seed"])
