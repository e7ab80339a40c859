"""The import-free re-checker finds every audited relation intact in the
reports of levels 1..50 of both families, flags a report whose printed
values contradict each other, and re-checks a failed report on the values
it carries."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from ballq.families import BuildError, build_family

from conftest import raise_in_stage
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


def test_a_singular_boundary_kind_breaks_the_kind_relation():
    good = reports("lambda")[3]
    boundary = [dict(entry) for entry in good["values"]["boundary"]]
    boundary[-1]["kind"] = "singular"
    bad = {**good, "values": {**good["values"], "boundary": boundary}}
    assert broken_relations(bad) == ["every boundary kind is smooth-elliptic"]


def test_albanese_relations_read_n_and_the_index():
    good = reports("gamma")[4]
    albanese = good["values"]["albanese"]
    for edit, broken in (({"n": 5}, "albanese.n = n"),
                         ({"contains_level_lattice": False}, "level lattice contained = index > 0"),
                         ({"index": 0}, "level lattice contained = index > 0")):
        bad = {**good, "values": {**good["values"], "albanese": {**albanese, **edit}}}
        assert broken_relations(bad) == [broken]


def test_nef_pairings_must_be_keyed_by_the_boundary_names():
    good = reports("gamma")[2]
    nef = good["values"]["nef"]
    pairings = {**nef["boundary_pairings"], "exc1": 0}
    bad = {**good, "values": {**good["values"], "nef": {**nef, "boundary_pairings": pairings}}}
    assert broken_relations(bad) == ["nef pairings are keyed by the boundary names"]


@pytest.mark.parametrize("family", ["gamma", "lambda"])
def test_failed_report_is_rechecked_on_the_values_it_carries(monkeypatch, family):
    # A build that raised in `fiber` carries the certify fragment but no
    # homology or Albanese section: the relations on the certify fragment
    # are re-checked, and those on the missing sections are skipped.
    raise_in_stage(monkeypatch, "fiber")
    with pytest.raises(BuildError) as info:
        build_family(family, 2)
    failed = info.value.to_json_dict()
    assert broken_relations(failed) == ["build raised in stage fiber"]
    failed["values"]["log_c2"] += 1
    result = subprocess.run([sys.executable, str(RECHECK)], input=json.dumps(failed) + "\n",
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 1
    assert result.stdout.splitlines() == [
        f"{family} n=2: {name}" for name in ("build raised in stage fiber", "c2bar = chi",
                                             "3 c2bar = c1bar^2", "volume = (8/3) c2bar")]


def test_report_that_built_names_a_missing_value_once():
    good = reports("gamma")[2]
    values = {key: value for key, value in good["values"].items() if key != "homology"}
    assert broken_relations({**good, "values": values}) == ["missing value 'homology'"]
