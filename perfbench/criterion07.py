"""Reference measurement of acceptance criterion 07, with the benchmark's timer.

Runs the criterion's four affine-rep configs (r in {0, 1}, kappa0 in {1, 2},
window 3, vacuum plus 20 states of seed 7) in one fresh interpreter, as
tests/test_acceptance.py does, and prints the wall time of each config, the
total and the peak resident memory.  It takes about five minutes and 2 GB,
so it is not a workload; it is the baseline for the criterion-07 targets of
ROADMAP items 2 (wall time) and 3 (peak memory).

Usage, from the root of a threepv checkout: python3 perfbench/criterion07.py
"""

import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
os.environ.pop("THREEPV_THREADS", None)

from threepv.suites import SuiteConfig, run_suite  # noqa: E402


def main():
    total = 0.0
    checks = failed = 0
    for r in (0, 1):
        for kappa0 in (1, 2):
            t0 = time.perf_counter()
            rep = run_suite(SuiteConfig("affine-rep", r=r, kappa0=kappa0, window=3,
                                        states="random:20:3", seed=7))
            dt = time.perf_counter() - t0
            total += dt
            checks += len(rep.checks)
            failed += rep.failed
            print("r=%d kappa0=%d: %d checks, %d failed, %.1f s"
                  % (r, kappa0, len(rep.checks), rep.failed, dt), flush=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("criterion 07: %d checks, %d failed, %.1f s, peak RSS %.0f MB"
          % (checks, failed, total, rss_mb))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
