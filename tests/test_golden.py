"""Report bytes are pinned: every level's JSON report line hashes to the
sha256 digest recorded in perfbench/golden.json (taken from the reference
commit).  The golden file is only read here, never written."""

import hashlib
import json
from pathlib import Path

import pytest

from ballq.families import build_family

from test_acceptance import N_MAX, reports

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
# Three factorization types near 200 (199 is prime, 200 = 2^3 * 5^2,
# 201 = 3 * 67) and the benchmark's upper levels (398 = 2 * 199,
# 400 = 2^4 * 5^2, 402 = 2 * 3 * 67).
LARGE_LEVELS = (199, 200, 201, 398, 400, 402)


def golden_levels():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["levels"]


def digest(report):
    """Digest of the line `ballq verify --format json` prints for a report."""
    return hashlib.sha256(json.dumps(report).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("family", ["gamma", "lambda"])
def test_sweep_report_bytes_match_golden(family):
    golden = golden_levels()[family]
    built = reports(family)
    mismatched = [n for n in range(1, N_MAX + 1) if digest(built[n]) != golden[str(n)]]
    assert mismatched == []


@pytest.mark.parametrize("family", ["gamma", "lambda"])
def test_large_level_report_bytes_match_golden(family):
    golden = golden_levels()[family]
    mismatched = [n for n in LARGE_LEVELS if digest(build_family(family, n)) != golden[str(n)]]
    assert mismatched == []
