"""Report bytes are pinned: every level's JSON report line hashes to the
sha256 digest recorded in perfbench/golden.json (taken from the reference
commit).  The golden file is only read here, never written.  Output that
golden.json does not cover (markdown reports, the spectrum, printed
intersection points) is pinned by the digests below, taken from the
commit before Q(rho) elements became integer triples."""

import hashlib
import json
from pathlib import Path

import pytest

from ballq import cli
from ballq.families import build_family

from test_acceptance import N_MAX, reports

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
# Three factorization types near 200 (199 is prime, 200 = 2^3 * 5^2,
# 201 = 3 * 67) and the benchmark's upper levels (398 = 2 * 199,
# 400 = 2^4 * 5^2, 402 = 2 * 3 * 67).
LARGE_LEVELS = (199, 200, 201, 398, 400, 402)
# sha256 of the stdout of `ballq ARGV`.  The intersect calls print Q(rho)
# values with non-trivial denominators in both coordinates.
CLI_DIGESTS = {
    ("verify", "--family", "gamma", "--format", "markdown", "--n", "1..20"):
        "860d141258a9301a67467c3ca65bf797866cbe7adc356fa56f5dfc4e01c1a4d8",
    ("verify", "--family", "lambda", "--format", "markdown", "--n", "1..20"):
        "6132c1a8b7b0a71a18f67dea44613c89aa38debceaee3ded03b7b12c4ce9fdbe",
    ("spectrum", "--count", "30"):
        "e194d9266db8713cbaa5b836f59bc1a0fe0672c050823e329484eb60a8c81b70",
    ("intersect", "graph:r,1/3", "graph:-1-r,2/5-1/7r", "--n", "7"):
        "650b406f7f3b2416709824002da2423a74811b1cd235eb6e34df77f624880042",
    ("intersect", "graph:r,1/3", "fiber:3/4+1/6r", "--n", "5"):
        "04ca259015d37319b697a5718936cd9a9585efd1e81d9c08e5ff9966117a579e",
}


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


@pytest.mark.parametrize("argv", list(CLI_DIGESTS), ids=" ".join)
def test_cli_output_bytes_match_pinned_digests(capsys, argv):
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CLI_DIGESTS[argv]
