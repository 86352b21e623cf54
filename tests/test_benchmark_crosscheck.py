"""The benchmark's cross-check of the affine workload, whose operators e and
e1 hold the three-family sums: ModeOp.apply agrees with the brute-force
naive_sum_apply, and a kernel that drops every cubic sum is caught."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import child  # noqa: E402
from threepv import fock  # noqa: E402

# seeds whose draw includes e or e1: seed 1 draws e at r = 0, seed 5 e and
# e1 at r = 1
SEEDS = (1, 5)


def test_affine_crosscheck_compares_cubic_sums_and_agrees():
    for seed in SEEDS:
        out = child.crosscheck("affine", seed)
        assert out["compared"] > 0 and out["mismatches"] == [], seed


def test_affine_crosscheck_catches_a_dropped_cubic_sum(monkeypatch):
    for seed in SEEDS:
        monkeypatch.setattr(fock, "_MEMO", {})
        monkeypatch.setattr(fock, "apply_cubic_sum", lambda s, mono, params, acc: None)
        out = child.crosscheck("affine", seed)
        assert out["compared"] > 0 and out["mismatches"], seed
        monkeypatch.undo()
