"""The import-free re-checker finds every audited relation intact in the
reports of levels 1..50 of both families, and flags a report whose printed
values contradict each other."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from recheck import broken_relations

from test_acceptance import N_MAX, reports

RECHECK = Path(__file__).resolve().parent / "recheck.py"


@pytest.mark.parametrize("family", ["gamma", "lambda"])
def test_recheck_passes_on_levels_1_to_50(family):
    built = reports(family)
    broken = {n: broken_relations(built[n]) for n in range(1, N_MAX + 1)}
    assert {n: names for n, names in broken.items() if names} == {}


def test_recheck_script_reads_reports_from_stdin():
    good = reports("gamma")[2]
    bad = {**good, "values": {**good["values"], "cusps": good["values"]["cusps"] + 1}}
    lines = "".join(json.dumps(report) + "\n" for report in (good, bad))
    result = subprocess.run([sys.executable, str(RECHECK)], input=lines, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 1
    assert result.stdout.splitlines() == ["gamma n=2: cusps = boundary components",
                                          "gamma n=2: b3(M) lower bound = cusps - 1"]
