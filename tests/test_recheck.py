"""The import-free re-checker finds every audited relation intact in the
reports of levels 1..50 of both families, flags a report whose printed
values contradict each other, and re-checks a failed report on the values
it carries.  Every printed value has a reader: a named check, a relation,
or a person, for display-only text."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from ballq.families import build_family

from conftest import raise_in_stage
from recheck import RELATIONS, broken_relations

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
    contained = "level lattice contained = index > 0"
    shift = "shift order = index of the level lattice"
    for edit, broken in (({"n": 5}, ["albanese.n = n"]),
                         ({"contains_level_lattice": False}, [contained]),
                         ({"index": 0}, [shift, contained]),
                         ({"shift_order": 1}, [shift]),
                         ({"target_lattice": {**albanese["target_lattice"], "gen1": "5"}},
                          ["albanese.target_lattice.gen1 = n"])):
        bad = {**good, "values": {**good["values"], "albanese": {**albanese, **edit}}}
        assert broken_relations(bad) == broken


def test_an_edited_gen2_breaks_its_relation():
    good = reports("lambda")[3]
    albanese = good["values"]["albanese"]
    assert albanese["target_lattice"]["gen2"] == "1/3-1/3ρ"
    lattice = {**albanese["target_lattice"], "gen2": "2/3-2/3ρ"}
    bad = {**good, "values": {**good["values"], "albanese": {**albanese,
                                                             "target_lattice": lattice}}}
    assert broken_relations(bad) == ["albanese.target_lattice.gen2 = (1 - rho)/3"]


def test_tower_relations_read_the_levels_the_degrees_and_the_flag():
    good = reports("gamma")[6]
    tower = good["values"]["tower"]
    assert [(entry["base_level"], entry["degree"]) for entry in tower["covers_levels"]] == [
        (1, 6), (2, 3), (3, 2), (6, 1)]
    degree_edited = [dict(entry) for entry in tower["covers_levels"]]
    degree_edited[1]["degree"] = 2
    level_edited = [dict(entry) for entry in tower["covers_levels"]]
    level_edited[2]["base_level"] = 4
    for edit, broken in (({"covers_levels": degree_edited}, ["tower degree x base level = n"]),
                         ({"covers_levels": tower["covers_levels"][:-1]},
                          ["tower base levels are the divisors of n"]),
                         ({"covers_levels": level_edited},
                          ["tower base levels are the divisors of n",
                           "tower degree x base level = n"]),
                         ({"consecutive_cover_exists": True},
                          ["consecutive cover exists = n <= 2"])):
        bad = {**good, "values": {**good["values"], "tower": {**tower, **edit}}}
        assert broken_relations(bad) == broken


def test_one_wrong_albanese_base_point_breaks_the_base_point_relation():
    good = reports("gamma")[2]
    albanese = good["values"]["albanese"]
    assert albanese["base_points"] == ["2/3", "5/3"]
    for points in (["2/3", "8/3"], ["2/3", "5/3+ρ"]):
        bad = {**good, "values": {**good["values"], "albanese": {**albanese,
                                                                 "base_points": points}}}
        assert broken_relations(bad) == ["Albanese base points are 2/3 + j"]


def test_generic_fiber_rows_must_add_up_to_its_punctures():
    good = reports("lambda")[3]
    fiber = good["values"]["fiber"]
    rows = {**fiber["generic_fiber_boundary_rows"], "level_orbit": 4}
    bad = {**good, "values": {**good["values"], "fiber": {**fiber,
                                                          "generic_fiber_boundary_rows": rows}}}
    assert broken_relations(bad) == ["generic fiber punctures = sum of its boundary rows"]


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
    failed = build_family(family, 2)
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


# A report value's path: keys joined by dots from the top of "values", list
# indices collapsed to [] and keys that are boundary names to {name}.
def _step(path, key, names):
    key = "{name}" if key in names else key
    return f"{path}.{key}" if path else key


def leaf_paths(value, path, names):
    if isinstance(value, dict):
        return set().union(*(leaf_paths(v, _step(path, k, names), names)
                             for k, v in value.items()))
    if isinstance(value, list):
        return set().union(*(leaf_paths(v, path + "[]", names) for v in value))
    return {path}


def logged(value, path, names, read):
    """value, with read logging the path of every leaf taken out of it by
    index, iteration or dict.values(); len and the keys of a dict read no
    leaf."""
    if isinstance(value, dict):
        return LoggedDict(value, path, names, read)
    if isinstance(value, list):
        return LoggedList(value, path, names, read)
    read.add(path)
    return value


class LoggedDict(dict):
    def __init__(self, value, path, names, read):
        super().__init__(value)
        self.path, self.names, self.read = path, names, read

    def __getitem__(self, key):
        return logged(super().__getitem__(key), _step(self.path, key, self.names),
                      self.names, self.read)

    def values(self):
        return [self[key] for key in self]


class LoggedList(list):
    def __init__(self, value, path, names, read):
        super().__init__(value)
        self.path, self.names, self.read = path, names, read

    def __getitem__(self, index):
        return logged(super().__getitem__(index), self.path + "[]", self.names, self.read)

    def __iter__(self):
        return (self[index] for index in range(len(self)))


# Text for people, which no check or relation reads.
DISPLAY_ONLY = {"volume.text", "volume.approx_display_only",
                "homology.open_manifold.derivation[]", "tower.note"}
# {value path: the check that reads it}.  A path counts as read by its
# check in a family whose reports carry that check.
READ_BY_CHECK = {
    "chi": "chi",
    "k2": "k2",
    "boundary[].name": "boundary_self_intersections",
    "boundary[].self_intersection": "boundary_self_intersections",
    "bdf_type": "bdf_type",
    "log_c1_squared": "log_chern",
    "log_c2": "log_chern",
    "bmy": "bmy",
    "cusps": "cusps",
    "nef.passed": "nef_numerical_check",
    "nef.boundary_pairings.{name}": "nef_boundary_pairings_zero",
    "volume.pi_squared_coefficient": "volume_coefficient",
    "fiber.generic_fiber_punctures": "generic_fiber_punctures",
    "fiber.singular_fiber_count": "singular_fiber_count",
    "fiber.singular_fiber_punctures": "singular_fiber_punctures",
    "albanese.index": "albanese_index",
    "albanese.shift_order": "albanese_shift_order",
    "homology.boundary_neighborhood_ranks[]": "cover_pieces_euler_zero",
    "homology.overlap_ranks[]": "cover_pieces_euler_zero",
    "homology.open_manifold.b1": "open_manifold_b1",
    "homology.open_manifold.b3_lower_bound": "open_manifold_b3_lower_bound",
}
# The printed values that no check and no relation reads, per family.  A
# new reader removes its path here; no path is ever added.
UNREAD = {"gamma": set(),
          "lambda": {"fiber.singular_fiber_count", "fiber.singular_fiber_punctures"}}


def test_every_printed_value_has_a_reader():
    unread, paths, check_names = {}, set(), set()
    for family in ("gamma", "lambda"):
        unread[family] = set()
        for n in range(1, 13):
            report = reports(family)[n]
            values = report["values"]
            names = {entry["name"] for entry in values["boundary"]}
            leaves = leaf_paths(values, "", names)
            checks = {check["name"] for check in report["checks"]}
            read = {path for path, check in READ_BY_CHECK.items() if check in checks}
            for holds in RELATIONS.values():
                assert holds(logged(values, "", names, read), n)
            unread[family] |= leaves - read - DISPLAY_ONLY
            paths |= leaves
            check_names |= checks
    # The tables name only printed paths and checks that reports carry.
    assert set(READ_BY_CHECK) | DISPLAY_ONLY <= paths
    assert set(READ_BY_CHECK.values()) <= check_names
    assert unread == UNREAD
    assert not any("albanese.base_points" in path for paths in unread.values() for path in paths)
