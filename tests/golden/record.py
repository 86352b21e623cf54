"""Record the golden report corpus: SHA-256 hashes of JSON reports.

Each case is a `3pv` command line; its JSON report is hashed together with
the exit status and written to reports.json next to this file, which
tests/test_golden.py replays.  The hashes pin the exact report bytes, so a
refactor that changes any coefficient, residual or check order fails there.

Re-recording changes what the corpus certifies: do it only for an intended
change of the report bytes, and say which cases changed and why.

Usage, from the root of a checkout: python3 tests/golden/record.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Both gauges, kappa0 = 1, 3/2 and 2, rational B0 / B1 entries and seeded
# random:K:D states, for every suite that applies operators to Fock states.
CASES = (
    ("heisenberg-rep", "--r", "0", "--kappa0", "1", "--window", "2",
     "--states", "random:2:3", "--seed", "3"),
    ("heisenberg-rep", "--r", "1", "--kappa0", "3/2", "--B0", "1/2",
     "--window", "2", "--states", "random:2:3", "--seed", "4"),
    ("heisenberg-rep", "--r", "0", "--kappa0", "3/2", "--B1=-1/2,2,3,-1/2",
     "--window", "1", "--states", "random:3:2", "--seed", "5"),
    ("affine-rep", "--r", "0", "--kappa0", "1", "--window", "1",
     "--states", "random:1:2", "--seed", "7"),
    ("affine-rep", "--r", "0", "--kappa0", "3/2", "--B0", "2", "--window", "2",
     "--states", "random:1:2", "--seed", "3"),
    ("affine-rep", "--r", "1", "--kappa0", "3/2", "--B1", "1/2,2,-3,1/2",
     "--window", "1", "--states", "random:2:3", "--seed", "7"),
    ("affine-rep", "--r", "1", "--kappa0", "1", "--window", "2"),
    ("affine-rep", "--r", "1", "--kappa0", "2", "--B0=-1", "--window", "2",
     "--states", "random:2:2", "--seed", "13"),
    ("witt-rep", "--r", "0", "--kappa0", "1", "--window", "2",
     "--states", "random:2:3", "--seed", "12"),
    ("witt-rep", "--r", "1", "--kappa0", "3/2", "--B0=-2/3", "--window", "2",
     "--states", "random:2:3", "--seed", "5"),
    ("witt-rep", "--r", "0", "--kappa0", "3/2", "--window", "1",
     "--states", "random:2:3", "--seed", "12"),
    ("virasoro-rep", "--r", "0", "--kappa0", "1", "--window", "1",
     "--states", "random:2:3", "--seed", "8"),
    ("virasoro-rep", "--r", "1", "--kappa0", "3/2", "--B1", "2,1/3,-1,2",
     "--window", "2", "--states", "random:1:2", "--seed", "9"),
    ("virasoro-rep", "--r", "0", "--kappa0", "3/2", "--B0", "5/4",
     "--window", "2", "--states", "random:1:2", "--seed", "8"),
    ("virasoro-rep", "--r", "1", "--kappa0", "1", "--window", "2"),
    ("pairs-subset", "--r", "0", "--kappa0", "3/2", "--window", "2",
     "--states", "random:2:3", "--seed", "11"),
    ("pairs-subset", "--r", "1", "--kappa0", "1", "--B1", "1,-1/2,3,1",
     "--window", "1", "--states", "random:2:3", "--seed", "6"),
    ("pairs-subset", "--r", "0", "--kappa0", "2", "--B0", "3/2", "--window", "2",
     "--states", "random:1:3", "--seed", "11"),
    ("audit", "--r", "0", "--kappa0", "1", "--window", "2",
     "--states", "random:2:3", "--seed", "2"),
    ("audit", "--r", "1", "--kappa0", "3/2", "--B1", "1/3,1,1,1/3",
     "--window", "1", "--states", "random:1:3", "--seed", "1"),
    ("audit", "--r", "1", "--kappa0", "1", "--window", "2",
     "--states", "random:2:2", "--seed", "4"),
    ("audit", "--r", "0", "--kappa0", "3/2", "--B0", "1/2", "--window", "1",
     "--states", "random:2:3", "--seed", "9"),
    # The algebra suites, which apply no Fock operator: small windows, and
    # seeded ring elements for kaehler-basis.
    ("ring-witt", "--window", "2"),
    ("kaehler-basis", "--window", "3", "--states", "random:3:2", "--seed", "4"),
    ("kaehler-basis", "--window", "2"),
    ("mu-compare", "--window", "2"),
    ("affine-jacobi", "--window", "1"),
    ("kassel-vs-table", "--window", "1"),
    ("cocycle-identity", "--window", "2"),
    ("coboundary-window", "--window", "3"),
    ("density-module", "--window", "2"),
    ("lambda-table", "--window", "3"),
    # kappa0 whose 2*kappa0 is not an integer, so the realized operators and
    # right-hand sides keep denominators: den > 1 and Fraction scales.
    ("affine-rep", "--r", "0", "--kappa0", "2/3", "--window", "1",
     "--states", "random:1:2", "--seed", "7"),
    ("affine-rep", "--r", "1", "--kappa0", "5/4", "--B0", "1/2", "--window", "1",
     "--states", "random:1:2", "--seed", "3"),
    ("witt-rep", "--r", "1", "--kappa0", "2/3", "--window", "2",
     "--states", "random:2:3", "--seed", "5"),
    ("witt-rep", "--r", "0", "--kappa0", "5/4", "--B1", "1/2,1,-1,1/2",
     "--window", "2", "--states", "random:1:3", "--seed", "12"),
    ("virasoro-rep", "--r", "0", "--kappa0", "2/3", "--window", "2",
     "--states", "random:1:2", "--seed", "8"),
    ("virasoro-rep", "--r", "1", "--kappa0", "5/4", "--B0=-1", "--window", "1",
     "--states", "random:2:3", "--seed", "9"),
    # Wide windows over the pairing's hypergeometric term: lambda_j, mu
    # (the w1 residuals of kassel-vs-table) and the mixed phi1, which
    # criterion 08's failing residuals print as -phi1*c1.
    ("lambda-table", "--window", "30"),
    ("mu-compare", "--window", "8"),
    ("cocycle-identity", "--window", "8"),
    ("kassel-vs-table", "--window", "4"),
    ("virasoro-rep", "--r", "0", "--kappa0", "1", "--window", "3"),
    # The realization's w-polynomial tables: pairs-subset where 2*kappa0 is
    # not an integer (item 14's kappa0^2 rows rational), witt-rep's r = 0
    # anomaly rows (P^2, P dP) at window 3, and the audit and virasoro-rep
    # at kappa0 = 2/3.
    ("pairs-subset", "--r", "0", "--kappa0", "2/3", "--B0", "3/2",
     "--window", "3", "--states", "random:1:2", "--seed", "11"),
    ("pairs-subset", "--r", "1", "--kappa0", "5/4", "--window", "3",
     "--states", "random:1:2", "--seed", "6"),
    ("witt-rep", "--r", "0", "--kappa0", "1", "--window", "3",
     "--states", "random:1:2", "--seed", "12"),
    ("audit", "--r", "0", "--kappa0", "2/3", "--window", "2",
     "--states", "random:2:3", "--seed", "2"),
    ("virasoro-rep", "--r", "1", "--kappa0", "2/3", "--window", "3",
     "--states", "random:1:2", "--seed", "8"),
    # Degree-4 states, where the read parts of e and e1 share the most
    # images: rational kappa0 with B1, and r = 1 with a negative B0.
    ("affine-rep", "--r", "0", "--kappa0", "5/4", "--B1", "1,2,-1,1", "--window", "2",
     "--states", "random:2:4", "--seed", "7"),
    ("affine-rep", "--r", "1", "--kappa0", "2/3", "--B0=-2", "--window", "3",
     "--states", "random:2:4", "--seed", "19"),
    # One gauge at two kappa0 back to back: the second row reads the
    # oscillator images the first one left.
    ("affine-rep", "--r", "0", "--kappa0", "2", "--window", "2",
     "--states", "random:2:3", "--seed", "23"),
    ("affine-rep", "--r", "0", "--kappa0", "4/3", "--window", "2",
     "--states", "random:2:3", "--seed", "23"),
)


def run_case(argv):
    """(exit status, SHA-256 of stdout) of one JSON report run."""
    from threepv import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(list(argv) + ["--format", "json"])
    return status, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def main():
    sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))
    rows = []
    for argv in CASES:
        status, digest = run_case(argv)
        rows.append({"argv": list(argv), "exit": status, "sha256": digest})
        print("%s  %d  %s" % (digest[:16], status, " ".join(argv)))
    with open(os.path.join(HERE, "reports.json"), "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
