"""Every statement of the package runs under a CLI call or a seeded fault,
or is pinned with its reason.

The test runs a fixed list of in-process `cli.main` calls, then every
`KILL_MAP` probe of `tests/test_mutations.py` through its `kill_map`, under
a `sys.settrace` line collector limited to `src/ballq`.  The statements of
every function body are listed with `ast`, docstrings skipped: a simple
statement ran if any of its lines had a line event, a compound one if a
line of its header had.  A statement is keyed by (module, qualified
function name, its first source line stripped), so that moved lines keep
their keys, and the keys form a multiset, because one text can repeat in
one function.  The unrun statements must be exactly `UNREACHED`, in both
directions: a new statement that nothing runs fails the test, and so does
a pinned one that now runs or is gone.  `UNREACHED` may only shrink, and a
new entry needs a reason.
"""

from __future__ import annotations

import ast
import os
import sys
from collections import Counter
from pathlib import Path

import pytest

import ballq
from ballq import cli, families

from conftest import clear_lattice_caches, raise_in_stage
from test_cli import fork_fails_at, worker_dies_at_four
from test_mutations import KILL_MAP, kill_map

PACKAGE = Path(ballq.__file__).resolve().parent
COMPOUND = (ast.If, ast.For, ast.While, ast.Try, ast.With, ast.FunctionDef, ast.ClassDef,
            ast.AsyncFunctionDef, ast.AsyncFor, ast.AsyncWith)


def _body_statements(node, qualname):
    """(qualname, statement) for every statement in the body of the
    function node, nested blocks included; a nested function's or class's
    statements are listed under its own qualified name."""
    body = node.body
    if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    stack = list(reversed(body))
    while stack:
        stmt = stack.pop()
        yield qualname, stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _definitions(stmt, qualname)
            continue
        blocks = [getattr(stmt, field, []) for field in ("body", "orelse", "finalbody")]
        blocks += [handler.body for handler in getattr(stmt, "handlers", [])]
        for block in reversed(blocks):
            stack.extend(reversed(block))


def _definitions(node, prefix):
    """The function bodies defined by node: itself if it is a function, and
    the methods of a class, with their qualified names."""
    qualname = f"{prefix}.{node.name}" if prefix else node.name
    if isinstance(node, ast.ClassDef):
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from _definitions(item, qualname)
    else:
        yield from _body_statements(node, qualname)


def _lines_of(stmt):
    """The lines whose line event shows that stmt ran: all of a simple
    statement's, the header's of a compound one."""
    if isinstance(stmt, COMPOUND):
        return range(stmt.lineno, max(stmt.lineno, stmt.body[0].lineno - 1) + 1)
    return range(stmt.lineno, stmt.end_lineno + 1)


def function_statements():
    """(path, its lines, (module, qualname, first line stripped)) for every
    function-body statement of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for qualname, stmt in _definitions(node, ""):
                    yield (str(path), _lines_of(stmt),
                           (path.stem, qualname, lines[stmt.lineno - 1].strip()))


class LineCollector:
    """A sys.settrace collector of the (path, line) events of frames whose
    code lives in the package; the previous trace function is restored on
    exit."""

    def __init__(self):
        self.seen = set()
        self.prefix = str(PACKAGE) + os.sep

    def _local(self, frame, event, arg):
        if event == "line":
            self.seen.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.prefix):
            return self._local
        return None

    def __enter__(self):
        self.previous = sys.gettrace()
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc_info):
        sys.settrace(self.previous)


def two_cpus(monkeypatch):
    """--jobs 2 forks a worker on a host with one usable CPU too."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)


# (argv, exit code, patches) of each CLI call; "OUT" stands for a file in
# the test's temporary directory, and "MISSING" for one in a directory
# that does not exist.
VERIFY = ("verify", "--n", "1..3")
CLI_CALLS = [
    *[((*VERIFY, "--family", family, "--format", fmt), 0, ())
      for family in (families.GAMMA, families.LAMBDA) for fmt in ("json", "markdown")],
    ((*VERIFY, "--family", "gamma", "--jobs", "2"), 0, (two_cpus,)),
    ((*VERIFY, "--family", "lambda", "--format", "markdown", "--jobs", "2", "--out", "OUT"),
     0, (two_cpus,)),
    (("verify", "--family", "gamma", "--n", "2", "--format", "markdown"), 1,
     (lambda monkeypatch: raise_in_stage(monkeypatch, "certify"),)),
    (("verify", "--family", "gamma", "--n", "1..5", "--jobs", "2"), 1,
     (two_cpus, worker_dies_at_four)),
    ((*VERIFY, "--family", "gamma", "--jobs", "2"), 3,
     (two_cpus, lambda monkeypatch: fork_fails_at(monkeypatch, 1))),
    (("verify", "--family", "gamma", "--n", "1", "--out", "MISSING"), 3, ()),
    (("spectrum", "--count", "3"), 0, ()),
    (("spectrum", "--count", "3", "--format", "json", "--out", "OUT"), 0, ()),
    (("intersect", "graph:1,0", "graph:r,-1/3+1/3r", "--n", "1"), 0, ()),
    (("intersect", "graph:1,0", "graph:1,0", "--n", "2"), 0, ()),
    (("intersect", "graph:r,-1/3+1/3r", "fiber:0", "--n", "1"), 0, ()),
    (("intersect", "fiber:0", "graph:r,-1/3+1/3r", "--n", "1"), 0, ()),
    (("intersect", "fiber:0", "fiber:1", "--n", "2"), 0, ()),
    (("classify", "--order", "3", "--multiplier", "rho"), 0, ()),
    # The BdFInvalid branches of a classify call.
    (("classify", "--order", "3", "--multiplier", "rho", "--translation-order", "1"), 0, ()),
    (("classify", "--order", "5", "--multiplier", "rho"), 0, ()),
    (("classify", "--order", "6", "--multiplier", "rho", "--translation-order", "2"), 0, ()),
    # Usage errors.
    (("verify", "--family", "gamma"), 2, ()),
    (("verify", "--family", "gamma", "--n", "x"), 2, ()),
    (("verify", "--family", "gamma", "--n", "5..2"), 2, ()),
    (("verify", "--family", "gamma", "--n", f"1..{families.MAX_LEVEL + 1}"), 2, ()),
    (("verify", "--family", "gamma", "--n", "1", "--jobs", "0"), 2, ()),
    (("spectrum", "--count", "0"), 2, ()),
    (("intersect", "graph:1,0", "graph:r,0", "--n", "0"), 2, ()),
    (("intersect", "graph:100000,0", "graph:0,0", "--n", "1"), 2, ()),
    (("intersect", "graph:1", "graph:1,0", "--n", "1"), 2, ()),
    (("intersect", "blob:1", "graph:1,0", "--n", "1"), 2, ()),
    (("intersect", "graph:1/0,0", "graph:1,0", "--n", "1"), 2, ()),
    (("intersect", "graph:1,1e10000000", "graph:r,0", "--n", "1"), 2, ()),
    (("classify", "--order", "3", "--multiplier", "tau"), 2, ()),
]


# The function-body statements that no call of CLI_CALLS and no KILL_MAP
# probe runs, as (module, function, first line of the statement), grouped
# by the reason why.  This table may only shrink: a new entry needs a
# reason, and code that runs for nothing is deleted instead.
UNREACHED = {
    # The collector sees this process only, and `verify --jobs 2` runs
    # these lines in the forked worker.
    "runs only in a forked worker": [
        *[("cli", "_fork_worker", line) for line in (
            "code = 1", "try:", "os.close(read_fd)", "for _, pipe in workers:", "pipe.close()",
            'with open(write_fd, "wb") as pipe:', "for task in tasks:",
            "marshal.dump(_level_line(task, render), pipe)", "pipe.flush()", "code = 0",
            "os._exit(code)")],
    ],
    "a platform without os.sched_getaffinity": [
        ("cli", "_usable_cpus", "return os.cpu_count() or 1"),
    ],
    # Tests divide in Q(rho) and compare whole models as their reference;
    # moving this code into tests/ would move its lines, not remove them.
    "test-oracle code": [
        ("eisenstein", "EisensteinNumber.__truediv__", "y = _operand(other)"),
        ("eisenstein", "EisensteinNumber.__truediv__",
         "return NotImplemented if y is None else _product(self.triple, _reciprocal(y))"),
        *[("eisenstein", "_reciprocal", line) for line in (
            "a, b, d = x", "n = a * a - a * b + b * b", "if n == 0:",
            'raise ZeroDivisionError("zero has no inverse in Q(rho)")',
            "return d * (a - b), -d * b, n")],
        ("surfaces", "SurfaceModel.__eq__", "if not isinstance(other, SurfaceModel):"),
        ("surfaces", "SurfaceModel.__eq__", "return NotImplemented"),
        ("surfaces", "SurfaceModel.__eq__",
         "return ((self.chi_top, self.k2, self.curves, self.pairwise, self.points)"),
    ],
    # The package compares numbers by their triples; the tests' Q(rho)
    # oracles compare, hash and test numbers.
    "equality, hash and truth of a number": [
        ("eisenstein", "EisensteinNumber.__eq__", "return self.triple == other.triple "
         "if type(other) is EisensteinNumber else NotImplemented"),
        ("eisenstein", "EisensteinNumber.__hash__", "return hash(self.triple)"),
        ("eisenstein", "EisensteinNumber.__bool__",
         "return bool(self.triple[0] or self.triple[1])"),
    ],
    "debugging aids": [
        ("eisenstein", "Frozen.__repr__", 'fields = ", ".join(f"{name}={value!r}" '
         'for name, value in vars(self).items()'),
        ("eisenstein", "Frozen.__repr__", 'return f"{type(self).__name__}({fields})"'),
        ("eisenstein", "EisensteinNumber.__repr__", 'return f"EisensteinNumber('
         're_part={self.re_part!r}, rho_part={self.rho_part!r})"'),
    ],
    "an operand of another type": [
        ("curves", "GraphCurve.__eq__", "return NotImplemented"),
        ("curves", "VerticalFiber.__eq__", "return NotImplemented"),
        ("eisenstein", "EisensteinNumber.__pow__", "return NotImplemented"),
        ("lattices", "Lattice.__eq__", "return NotImplemented"),
    ],
    # ROADMAP item 4 puts the fibration record into the gamma report.
    "no caller until the report has a fibration section": [
        *[("homology", "free_rank_of_punctured_surface", line) for line in (
            "if punctures < 1:", 'raise ValueError("a closed surface group is not free")',
            "if genus < 0:", 'raise ValueError("genus is nonnegative")',
            "return 2 * genus + punctures - 1")],
        *[("homology", "fibration_sequence_report", line) for line in (
            'if report["family"] != "gamma":',
            'raise ValueError("the fibration record is derived from the (n+1)-cusped family")',
            'if not report["passed"]:',
            'raise ValueError("a passing construction report is required")',
            'fiber = report["values"]["fiber"]', "return {")],
    ],
    # Deleting one of these would make a public function give a wrong
    # answer for input that it accepts.
    "a public function's answer for input that the pipeline does not give it": [
        ("families", "bdf_classify", "return BdFInvalid("),
        ("families", "classify_deck_action",
         'return BdFInvalid("multiplier", "the action has no multiplicative part")'),
        ("families", "classify_deck_action", 'return BdFInvalid("multiplier", '
         '"the first factor action is not a pure multiplication")'),
        ("families", "classify_deck_action", 'return BdFInvalid("translation", '
         '"the second factor action is not a translation")'),
        ("families", "classify_deck_action", 'return BdFInvalid("translation",'),
        ("homology", "homology_section", "b1 += 1"),
        ("lattices", "Lattice.index_in", "return None"),
        ("surfaces", "SurfaceModel.pairwise_int", "return self.curves[a].self_int"),
    ],
    # A fault in the pipeline that looks like a real bug reaches each of
    # these; a KILL_MAP probe for it takes it out of this table.
    "a guard that a seeded pipeline fault could reach": [
        ("families", "_fiber", 'raise ValueError("generic fiber is not generic: it hits "'),
        ("families", "albanese_data",
         'raise ValueError("special fiber base points are not distinct")'),
        ("surfaces", "certify_pair", "bmy = BMYClass.NOT_APPLICABLE"),
        ("surfaces", "etale_quotient.pushed",
         'raise ValueError(f"{what} does not divide by the group order")'),
        ("surfaces", "LogPair.__init__",
         'raise ValueError(f"boundary curves {a!r} and {b!r} are not disjoint")'),
    ],
    "a guard on input that no caller in the package passes": [
        ("curves", "_require_same_bases",
         'raise ValueError("lattices are not stored in the same bases")'),
        ("curves", "TorusAutomorphism.__init__",
         'raise ValueError(f"multipliers {lambda_w}, {lambda_z} must map "'),
        ("curves", "_nontrivial_powers", 'raise ValueError(f"order exceeds {MAX_ORDER}")'),
        ("curves", "orbit_of_points",
         'raise ValueError("orbit does not close up inside the point set")'),
        ("eisenstein", "Frozen.__setattr__", 'raise AttributeError(f"cannot set or delete '
         '{name!r}: {type(self).__name__} is immutable")'),
        ("eisenstein", "EisensteinNumber.__new__", 'raise TypeError(f"not an int, Fraction '
         'or EisensteinNumber: {re_part!r}, {rho_part!r}")'),
        ("families", "level_lattice", 'raise ValueError("the level must be a positive integer")'),
        ("families", "albanese_lattice",
         'raise ValueError("the level must be a positive integer")'),
        ("families", "bdf_classify", 'return BdFInvalid("multiplier", '
         'f"unknown multiplicative action {multiplier!r}")'),
        ("families", "build_family", 'raise ValueError(f"unknown family {family!r}")'),
        ("families", "build_family", 'raise ValueError("n must be a positive integer")'),
        ("homology", "homology_section", 'raise ValueError("at least one cusp is required")'),
        ("homology", "homology_section", 'raise ValueError("betti numbers are nonnegative")'),
        ("lattices", "Lattice.__init__",
         'raise ValueError("lattice generators are R-linearly dependent")'),
        ("surfaces", "CurveRecord.__new__", 'raise ValueError(f"unknown curve kind {kind!r}")'),
        *[("surfaces", "SurfaceModel.build", line) for line in (
            'raise ValueError(f"self-pair {a!r} belongs in the curve record")',
            'raise ValueError(f"pairwise entry for unknown curve in ({a!r}, {b!r})")',
            'raise ValueError(f"conflicting intersection numbers for {key}")',
            'raise ValueError(f"point {point!r} references unknown curve {name!r}")',
            'raise ValueError("multiplicities must be nonnegative")')],
        *[("surfaces", "etale_quotient", line) for line in (
            'raise ValueError("group order must be positive")',
            'raise ValueError("Euler number and K^2 must divide by the group order")',
            'raise ValueError(f"curve orbit {image!r} has size not dividing {g}")',
            'raise ValueError(f"curve orbit {image!r} must consist of smooth curves '
            'of one kind")')],
        *[("surfaces", "blow_up", line) for line in (
            'raise ValueError("need one or more points to blow up")',
            'raise ValueError("need one distinct exceptional name per point")',
            'raise ValueError(f"unknown marked point {point!r}")',
            'raise ValueError(f"exceptional name {exc!r} already in use")')],
        ("surfaces", "LogPair.__init__", 'raise ValueError("boundary names repeat")'),
        ("surfaces", "LogPair.__init__", 'raise ValueError(f"unknown boundary curve {name!r}")'),
        ("surfaces", "volume_from_chi",
         'raise ValueError("Euler number of a ball quotient is nonnegative")'),
    ],
}


def test_every_statement_runs_or_is_pinned(tmp_path, capsys):
    argv_paths = {"OUT": str(tmp_path / "out.txt"),
                  "MISSING": str(tmp_path / "missing" / "out.txt")}
    clear_lattice_caches()
    with LineCollector() as collector:
        for argv, code, patches in CLI_CALLS:
            with pytest.MonkeyPatch.context() as monkeypatch:
                for patch in patches:
                    patch(monkeypatch)
                assert cli.main([argv_paths.get(arg, arg) for arg in argv]) == code, argv
        for family, fault in KILL_MAP:
            with pytest.MonkeyPatch.context() as monkeypatch:
                fault(monkeypatch)
                assert kill_map(family) == KILL_MAP[family, fault]
    capsys.readouterr()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

    unrun = Counter(key for path, lines, key in function_statements()
                    if not any((path, line) in collector.seen for line in lines))
    pinned = Counter(key for keys in UNREACHED.values() for key in keys)
    assert sorted((unrun - pinned).elements()) == [], "unrun and not pinned"
    assert sorted((pinned - unrun).elements()) == [], "pinned but run, or gone"
