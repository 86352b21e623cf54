"""Golden report corpus: every recorded JSON report must be byte-identical.

tests/golden/reports.json holds the SHA-256 hash and exit status of each
case's report (see tests/golden/record.py).  A mismatch means a change
altered the bytes a user sees: a coefficient, a residual, a check's order.
"""

import hashlib
import json
import os

import pytest

from threepv.cli import main

with open(os.path.join(os.path.dirname(__file__), "golden", "reports.json"),
          encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


@pytest.mark.parametrize(
    "case", GOLDEN, ids=["%02d-%s" % (i, c["argv"][0]) for i, c in enumerate(GOLDEN)])
def test_report_bytes_match_the_golden_corpus(case, capsys):
    status = main(case["argv"] + ["--format", "json"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == case["sha256"]
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert status == case["exit"]
