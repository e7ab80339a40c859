"""Exit codes, output formats and determinism of the command line tool."""

import argparse
import json
import os
import signal
import subprocess
import sys
from contextlib import contextmanager

import pytest

from ballq import cli, families

from conftest import raise_in_stage


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_json_range(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "gamma", "--n", "1..3",
                           "--format", "json")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    docs = [json.loads(line) for line in lines]
    assert [doc["n"] for doc in docs] == [1, 2, 3]
    assert all(doc["passed"] for doc in docs)
    assert docs[2]["values"]["cusps"] == 4


def test_verify_markdown_contains_cusps(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "gamma", "--n", "3",
                           "--format", "markdown")
    assert code == 0
    assert "cusps: 4" in out


def test_verify_rejects_zero(capsys):
    code, _, err = run_cli(capsys, "verify", "--family", "lambda", "--n", "0")
    assert code == 2
    assert "usage" in err.lower() or "n" in err


def test_verify_rejects_bad_range(capsys):
    for bad in ("5..2", "x"):
        assert run_cli(capsys, "verify", "--family", "gamma", "--n", bad)[0] == 2


def test_usage_error_on_unknown_flag(capsys):
    code = cli.main(["verify", "--family", "gamma"])  # missing --n
    assert code == 2


def test_verify_reports_failure_with_exit_one(capsys, monkeypatch):
    def broken(family, n):
        return {
            "schema_version": 1, "family": family, "n": n, "passed": False,
            "values": {"chi": 0, "k2": 0, "boundary": [], "log_c1_squared": 0,
                       "log_c2": 0, "bmy": "Violation", "cusps": 0, "bdf_type": None,
                       "volume": {"pi_squared_coefficient": "0", "text": "(0)·π²",
                                  "approx_display_only": 0.0}},
            "checks": [{"name": "chi", "passed": False, "expected": 1, "actual": 0}],
            "assumptions": [], "flags": [],
        }

    monkeypatch.setattr(families, "build_family", broken)
    code, out, _ = run_cli(capsys, "verify", "--family", "gamma", "--n", "1")
    assert code == 1
    assert json.loads(out.strip())["passed"] is False


def test_verify_write_to_file(tmp_path, capsys):
    target = tmp_path / "report.jsonl"
    code, out, _ = run_cli(capsys, "verify", "--family", "lambda", "--n", "1..2",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    lines = target.read_text().strip().splitlines()
    assert len(lines) == 2


def test_verify_io_error(tmp_path, capsys, monkeypatch):
    calls = []
    original = families.build_family

    def recording(family, n):
        calls.append(n)
        return original(family, n)

    monkeypatch.setattr(families, "build_family", recording)
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.json"
    code, out, err = run_cli(capsys, "verify", "--family", "gamma", "--n", "1..2",
                             "--out", str(missing_dir))
    assert code == 3
    assert "cannot write" in err
    # --out is opened before any level is built.
    assert out == "" and calls == []


def test_verify_streams_each_level_to_out(tmp_path, capsys, monkeypatch):
    target = tmp_path / "report.jsonl"
    original = families.build_family
    seen = {}

    def recording(family, n):
        seen[n] = target.read_text() if target.exists() else None
        return original(family, n)

    monkeypatch.setattr(families, "build_family", recording)
    code, _, _ = run_cli(capsys, "verify", "--family", "gamma", "--n", "1..2",
                         "--out", str(target))
    assert code == 0
    assert seen[1] == ""
    assert [json.loads(line)["n"] for line in seen[2].splitlines()] == [1]


def test_verify_level_count_is_bounded(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(families, "build_family", lambda family, n: calls.append(n))
    code, out, err = run_cli(capsys, "verify", "--family", "gamma",
                             "--n", f"1..{cli.MAX_LEVELS + 1}")
    assert code == 2
    assert "usage error" in err
    assert out == "" and calls == []
    # Every level is at most MAX_LEVEL, so a range holds at most that many.
    assert len(cli._parse_n_range(f"1..{cli.MAX_LEVEL}")) == cli.MAX_LEVEL


@pytest.mark.parametrize("n_arg", ["5000000", f"{cli.MAX_LEVEL + 1}",
                                   f"1..{cli.MAX_LEVEL + 1}"])
def test_verify_level_is_bounded(capsys, monkeypatch, n_arg):
    calls = []
    monkeypatch.setattr(families, "build_family", lambda family, n: calls.append(n))
    code, out, err = run_cli(capsys, "verify", "--family", "lambda", "--n", n_arg)
    assert code == 2
    assert "usage error" in err
    assert out == "" and calls == []


def test_level_bound_covers_used_levels():
    # The benchmark's seeded large levels reach 402.
    assert cli._parse_n_range("398..402") == [398, 399, 400, 401, 402]
    assert cli._parse_n_range(str(cli.MAX_LEVEL)) == [cli.MAX_LEVEL]


def test_spectrum_count_is_bounded(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "volume_from_chi", calls.append)
    code, out, err = run_cli(capsys, "spectrum", "--count", str(cli.MAX_LEVELS + 1))
    assert code == 2
    assert "usage error" in err
    assert out == "" and calls == []


def test_spectrum_markdown(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--count", "3")
    assert code == 0
    assert "(8/3)·π²" in out
    assert "(16/3)·π²" in out
    assert "(8)·π²" in out
    assert "saturates volume spectrum up to cutoff: True" in out


def test_spectrum_json(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--count", "20", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 20
    assert doc["saturates_volume_spectrum"] is True
    coefficients = {row["pi_squared_coefficient"] for row in doc["rows"]}
    assert len(coefficients) == 20
    assert list(doc["rows"][0]) == ["n", "pi_squared_coefficient", "text",
                                     "approx_display_only"]
    assert doc["rows"][2]["text"] == "(8)·π²"


def test_spectrum_rejects_zero(capsys):
    code, _, _ = run_cli(capsys, "spectrum", "--count", "0")
    assert code == 2


def test_intersect_slope_curves(capsys):
    code, out, _ = run_cli(capsys, "intersect", "graph:1,0", "graph:r,-1/3+1/3r",
                           "--n", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "points"
    assert doc["count"] == 3
    assert len(doc["points"]) == 3


def test_intersect_identical(capsys):
    code, out, _ = run_cli(capsys, "intersect", "graph:1,0", "graph:1,0", "--n", "2")
    assert code == 0
    assert json.loads(out)["kind"] == "identical"


def test_intersect_level_curves_empty(capsys):
    code, out, _ = run_cli(capsys, "intersect", "graph:0,2/3", "graph:0,1-1/3r",
                           "--n", "4")
    assert code == 0
    assert json.loads(out)["kind"] == "empty"


def test_intersect_with_fiber(capsys):
    code, out, _ = run_cli(capsys, "intersect", "graph:r,-1/3+1/3r", "fiber:0",
                           "--n", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 1
    assert doc["points"][0]["w"] == "2/3+1/3ρ"
    code, swapped, _ = run_cli(capsys, "intersect", "fiber:0", "graph:r,-1/3+1/3r",
                               "--n", "1")
    assert code == 0 and swapped == out


def test_intersect_lists_points_in_coordinate_order(capsys):
    # Point keys order w = 1/2+1/2ρ, key (1, 1, 2), before w = 1/6+5/6ρ,
    # key (1, 5, 6); the output keeps the order of the coordinates.
    code, out, _ = run_cli(capsys, "intersect", "graph:r,0", "graph:1,1/2", "--n", "2")
    assert code == 0
    assert [(p["w"], p["z"]) for p in json.loads(out)["points"]] == [
        ("1/6+5/6ρ", "2/3-1/6ρ"), ("1/6+5/6ρ", "5/3-1/6ρ"),
        ("1/2+1/2ρ", "1-1/2ρ"), ("1/2+1/2ρ", "2-1/2ρ"),
        ("5/6+1/6ρ", "4/3-5/6ρ"), ("5/6+1/6ρ", "7/3-5/6ρ"),
    ]


def test_intersect_parse_error(capsys):
    code, _, err = run_cli(capsys, "intersect", "graph:bogus", "graph:1,0", "--n", "1")
    assert code == 2
    code, _, _ = run_cli(capsys, "intersect", "blob:1", "graph:1,0", "--n", "1")
    assert code == 2
    code, _, _ = run_cli(capsys, "intersect", "graph:1,1e10000000", "graph:r,0", "--n", "1")
    assert code == 2


def test_classify_type_five(capsys):
    code, out, _ = run_cli(capsys, "classify", "--order", "3", "--multiplier", "rho")
    assert code == 0
    assert json.loads(out)["index"] == 5


def test_classify_negation(capsys):
    code, out, _ = run_cli(capsys, "classify", "--order", "2", "--multiplier", "neg")
    assert code == 0
    assert json.loads(out)["index"] == 1


def test_classify_invalid_order(capsys):
    code, out, _ = run_cli(capsys, "classify", "--order", "5", "--multiplier", "rho")
    assert code == 0
    doc = json.loads(out)
    assert doc["invalid"] is True
    assert doc["constraint"] == "lambda-constraint"


def test_classify_unknown_multiplier(capsys):
    code, _, _ = run_cli(capsys, "classify", "--order", "3", "--multiplier", "tau")
    assert code == 2


def test_parallel_output_matches_serial():
    command = [sys.executable, "-m", "ballq", "verify", "--family", "gamma",
               "--n", "1..4", "--format", "json"]
    serial = subprocess.run(command + ["--jobs", "1"], capture_output=True, check=True)
    parallel = subprocess.run(command + ["--jobs", "4"], capture_output=True, check=True)
    assert serial.stdout == parallel.stdout


def test_import_loads_no_process_pool():
    """Start-up stays cheap: importing the CLI loads no process pool, and no
    dataclasses machinery (which pulls in inspect, ast and dis).  A --jobs
    run forks and sends marshal records, so it loads no pool,
    multiprocessing or pickle module either."""
    probe = ("import sys, ballq.cli; print([name in sys.modules for name in"
             " ('concurrent.futures.process', 'dataclasses', 'inspect')])")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, check=True,
                            text=True)
    assert result.stdout.strip() == "[False, False, False]"
    probe = ("import sys; from ballq import cli; cli._usable_cpus = lambda: 2;"
             " code = cli.main(['verify', '--family', 'gamma', '--n', '1..4', '--jobs', '2']);"
             " print(code, [name in sys.modules for name in"
             " ('concurrent.futures', 'multiprocessing', 'pickle')], file=sys.stderr)")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, check=True,
                            text=True)
    assert len(result.stdout.splitlines()) == 4
    assert result.stderr.strip() == "0 [False, False, False]"


def test_intersect_two_fibers(capsys):
    code, out, _ = run_cli(capsys, "intersect", "fiber:0", "fiber:0", "--n", "2")
    assert code == 0
    assert json.loads(out)["kind"] == "identical"
    code, out, _ = run_cli(capsys, "intersect", "fiber:0", "fiber:1", "--n", "2")
    assert code == 0
    assert json.loads(out)["kind"] == "empty"


def test_intersect_rejects_bad_level(capsys):
    code, _, _ = run_cli(capsys, "intersect", "graph:1,0", "graph:r,0", "--n", "0")
    assert code == 2


def forbid_intersect(monkeypatch):
    def refuse(c1, c2):
        raise AssertionError("intersect_graphs was called")

    monkeypatch.setattr(cli, "intersect_graphs", refuse)


def test_intersect_level_is_bounded(capsys, monkeypatch):
    forbid_intersect(monkeypatch)
    code, out, err = run_cli(capsys, "intersect", "graph:1,0", "graph:r,0",
                             "--n", str(cli.MAX_LEVEL + 1))
    assert code == 2
    assert "usage error" in err and out == ""


def test_intersect_point_count_is_bounded(capsys, monkeypatch):
    # N(100000) * 1 = 10^10 points, rejected before any is built.
    forbid_intersect(monkeypatch)
    code, out, err = run_cli(capsys, "intersect", "graph:100000,0", "graph:0,0", "--n", "1")
    assert code == 2
    assert "10000000000 points" in err and out == ""


def test_intersect_point_bound_is_inclusive(capsys, monkeypatch):
    # Two slope curves at level n meet in 3n points.
    monkeypatch.setattr(cli, "MAX_POINTS", 6)
    code, out, _ = run_cli(capsys, "intersect", "graph:1,0", "graph:r,0", "--n", "2")
    assert code == 0 and json.loads(out)["count"] == 6
    code, out, err = run_cli(capsys, "intersect", "graph:1,0", "graph:r,0", "--n", "3")
    assert code == 2
    assert "9 points" in err and out == ""


def test_spectrum_out_file(tmp_path, capsys):
    target = tmp_path / "spectrum.json"
    code, out, _ = run_cli(capsys, "spectrum", "--count", "2", "--format", "json",
                           "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["saturates_volume_spectrum"] is True


def test_build_error_is_reported_with_exit_one(capsys, monkeypatch):
    # The failed report keeps the values and checks of the stages before
    # the one that raised: those of a passing build, up to "fiber".
    passing = families.build_family("gamma", 3)
    raise_in_stage(monkeypatch, "fiber")
    code, out, err = run_cli(capsys, "verify", "--family", "gamma", "--n", "3")
    assert code == 1
    doc = json.loads(out)
    values = list(passing["values"])[:list(passing["values"]).index("fiber")]
    checks = [check["name"] for check in passing["checks"]]
    assert doc == {
        "schema_version": 1, "family": "gamma", "n": 3, "passed": False,
        "values": {key: passing["values"][key] for key in values},
        "checks": passing["checks"][:checks.index("generic_fiber_misses_triple_points")],
        "assumptions": [], "flags": [],
        "error": {"stage": "fiber", "type": "ValueError", "message": "seeded fault"},
    }
    assert list(doc["values"]) == values
    assert "error: gamma n=3: ValueError: seeded fault" in err
    assert "usage error" not in err


def verify_with_fault_at_three(capsys, monkeypatch, jobs):
    # --jobs workers are forked, so they inherit the patched module.
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    raise_in_stage(monkeypatch, "fiber", when=lambda b: b.n == 3)
    return run_cli(capsys, "verify", "--family", "gamma", "--n", "2..4", "--jobs", jobs)


def test_build_error_keeps_other_levels(capsys, monkeypatch):
    code, out, err = verify_with_fault_at_three(capsys, monkeypatch, "1")
    assert code == 1
    docs = [json.loads(line) for line in out.splitlines()]
    assert [doc["n"] for doc in docs] == [2, 3, 4]
    assert [doc["passed"] for doc in docs] == [True, False, True]
    assert docs[1]["error"] == {"stage": "fiber", "type": "ValueError",
                                "message": "seeded fault"}
    assert "error" not in docs[0] and "error" not in docs[2]
    assert err.strip() == "error: gamma n=3: ValueError: seeded fault"


def test_build_error_output_same_with_jobs(capsys, monkeypatch):
    serial = verify_with_fault_at_three(capsys, monkeypatch, "1")
    parallel = verify_with_fault_at_three(capsys, monkeypatch, "2")
    assert parallel == serial
    assert len(serial[1].splitlines()) == 3


def test_failed_level_renders_as_markdown(capsys, monkeypatch):
    # Values that the stages before the raise recorded are printed, and
    # the later ones read n/a.
    raise_in_stage(monkeypatch, "certify")
    code, out, _ = run_cli(capsys, "verify", "--family", "lambda", "--n", "2",
                           "--format", "markdown")
    assert code == 1
    assert "- passed: NO" in out
    assert "- chi: 2" in out and "- cusps: n/a" in out
    assert "| deck_order | 3 | 3 | pass |" in out
    assert "- certify: ValueError: seeded fault" in out


def test_intersect_zero_denominator_is_usage_error(capsys):
    # A zero denominator or a coefficient that is no rational names the
    # literal, not the error of the rational parser beneath.
    for literal in ("1/0", "rho"):
        code, _, err = run_cli(capsys, "intersect", f"graph:{literal},0", "graph:1,0",
                               "--n", "1")
        assert code == 2
        assert f"usage error: malformed Eisenstein literal: '{literal}'" in err


@pytest.mark.parametrize("requested, levels, cpus, expected", [
    (8, 20, 2, 2),
    (8, 1, 4, 1),
    (2, 5, 4, 2),
    (3, 5, 1, 1),
    (None, 10, 8, 1),
])
def test_resolve_jobs_is_bounded(monkeypatch, requested, levels, cpus, expected):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    flag = [] if requested is None else ["--jobs", str(requested)]
    args = cli.build_parser().parse_args(["verify", "--family", "gamma", "--n", "1", *flag])
    assert cli._resolve_jobs(args, levels) == expected


def test_resolve_jobs_rejects_nonpositive(monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    with pytest.raises(cli.UsageError):
        cli._resolve_jobs(argparse.Namespace(jobs=0), 5)


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    assert cli._usable_cpus() == 8
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._usable_cpus() == 1


def test_one_cpu_affinity_runs_serially(capsys, monkeypatch):
    # A large host whose affinity leaves the process one CPU: --jobs 8
    # forks no worker and prints the serial bytes.
    def no_fork():
        raise AssertionError("a worker process was forked")

    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(cli.os, "fork", no_fork)
    assert cli._usable_cpus() == 1
    parallel = run_cli(capsys, "verify", "--family", "gamma", "--n", "1..3", "--jobs", "8")
    serial = run_cli(capsys, "verify", "--family", "gamma", "--n", "1..3")
    assert parallel == serial
    assert parallel[0] == 0 and len(parallel[1].splitlines()) == 3


def test_no_fork_runs_serially(capsys, monkeypatch):
    # A platform without os.fork counts as one CPU: --jobs is capped at 1.
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    serial = run_cli(capsys, "verify", "--family", "gamma", "--n", "1..3")
    monkeypatch.delattr(cli.os, "fork")
    args = cli.build_parser().parse_args(["verify", "--family", "gamma", "--n", "1..3",
                                          "--jobs", "2"])
    assert cli._resolve_jobs(args, 3) == 1
    assert run_cli(capsys, "verify", "--family", "gamma", "--n", "1..3", "--jobs", "2") == serial


@pytest.mark.parametrize("fmt", ["json", "markdown"])
def test_jobs_bytes_equal_serial_on_stdout_and_out_file(tmp_path, capsys, monkeypatch, fmt):
    # Three processes: the round robin reads from two workers' pipes.
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    outputs = []
    for jobs in ("1", "2", "3"):
        target = tmp_path / f"reports-{jobs}.txt"
        argv = ["verify", "--family", "gamma", "--n", "1..5", "--format", fmt, "--jobs", jobs]
        code, out, err = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv, "--out", str(target)) == (code, "", err)
        outputs.append((code, out, err, target.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]
    code, out, err, written = outputs[0]
    assert code == 0 and err == "" and written == out.encode()
    assert out.count("- passed: yes" if fmt == "markdown" else '"passed": true, "values"') == 5


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block, where a wait for a worker would
    otherwise hang the test run."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def worker_dies_at_four(monkeypatch):
    """A forked worker ends before it sends its report of level 4."""
    parent, report_dict = os.getpid(), cli._report_dict

    def die_at_four(task):
        if task[1] == 4 and os.getpid() != parent:
            os._exit(9)
        return report_dict(task)

    monkeypatch.setattr(cli, "_report_dict", die_at_four)


def test_dead_worker_is_an_error_naming_its_level(capsys, monkeypatch):
    # n = 4 is the range's level 3 (counting from 0), so process 3 % 2 = 1,
    # the one forked worker, builds it; the CLI process is process 0.
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    worker_dies_at_four(monkeypatch)
    with deadline(60):
        code, out, err = run_cli(capsys, "verify", "--family", "gamma", "--n", "1..5",
                                 "--jobs", "2")
    assert code == 1
    assert [json.loads(line)["n"] for line in out.splitlines()] == [1, 2, 3]
    assert err.startswith("error: gamma n=4: ")
    assert len(err.splitlines()) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class ClosedAfterOneLine:
    """A stdout whose reader goes away after the first line, as under
    `| head -1`."""

    def __init__(self):
        self.lines = []

    def write(self, text):
        if self.lines:
            raise BrokenPipeError(32, "Broken pipe")
        self.lines.append(text)

    def flush(self):
        pass


def test_closed_stdout_reaps_every_worker(capsys, monkeypatch):
    # Each worker's 20 report lines (over 200 KB) overfill its pipe, so both
    # workers are blocked on a write by the time the CLI stops reading.
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    stdout = ClosedAfterOneLine()
    monkeypatch.setattr(cli.sys, "stdout", stdout)
    with deadline(60):
        code = cli.main(["verify", "--family", "gamma", "--n", "1..60", "--jobs", "3"])
    assert code == 3 and len(stdout.lines) == 1
    assert capsys.readouterr().err.startswith("error: cannot write output: ")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fd_count():
    """The number of this process's open file descriptors, or None where
    /proc is absent."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def fork_fails_at(monkeypatch, number):
    """os.fork's call of that number raises, as at the process limit; return
    the list that each call appends to."""
    real_fork, forks = os.fork, []

    def fork():
        forks.append(None)
        if len(forks) == number:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(cli.os, "fork", fork)
    return forks


def test_failed_worker_start_is_an_os_error(capsys, monkeypatch):
    # The first worker starts and the second fork fails: the run ends with
    # exit code 3 before any level is reported, the started worker is
    # reaped, and the failed fork's pipe is closed.
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    forks = fork_fails_at(monkeypatch, 2)
    before = open_fd_count()
    with deadline(60):
        code, out, err = run_cli(capsys, "verify", "--family", "gamma", "--n", "1..3",
                                 "--jobs", "3")
    assert code == 3 and out == "" and len(forks) == 2
    assert err == ("error: cannot start a worker process: "
                   "[Errno 11] Resource temporarily unavailable\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fd_count() == before
