"""The ballq benchmark: ``ballq verify`` end to end, through the real CLI.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 33 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one after another

Every CLI call is a fresh ``python -m ballq verify ...`` process started
from this single benchmark process (a closed loop: the next call starts when
the previous one has exited).  Each invocation's report bytes go through
``gate.py``.  With ``--trace 0`` the run calls the workload's invocations
in turn until ``--seconds`` would be exceeded and reports end-to-end metrics
from the median call of each invocation; with ``--trace 1`` it runs the workload untraced serially, untraced
with ``--jobs 2`` and once under ``traced_cli.py``, and reports per-layer
metrics.  Human-readable metric lines come first; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A results file with provenance and every raw sample goes to
``.perfbench/`` at the repository root.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SWEEP_LEVELS = list(range(1, 51))
# The seed picks the lower large level from this band; the upper level is
# always twice it, so growth_exponent always compares a doubling.  The band
# is narrow so that the seed varies the input without moving the cost.
LARGE_BAND = (200, 199, 201)
# Interpreter starts timed for setup_s before every round of invocations,
# so the samples spread over the whole run.
SETUP_PER_ROUND = 3
INVOCATION_TIMEOUT_S = 150.0

# The reference machine runs the same CLI call up to 2x slower for seconds
# to minutes at a time (a shared host).  Every timed call is therefore
# bracketed by calibration samples: fresh interpreters that import the
# standard-library modules ballq uses and nothing of ballq.  A call's time is
# reported at reference speed, raw time * CAL_REF_S / calibration time, where
# the calibration time is the mean of the median sample just before and just
# after the call.  Raw times stay in the results file.
CAL_COMMAND = [sys.executable, "-c", "import argparse, concurrent.futures, dataclasses, "
               "enum, fractions, json, re, typing"]
CAL_SAMPLES = 3
# A typical calibration time on the reference machine (2-vCPU Xeon VM at
# 2.0 GHz, Python 3.11.7): the median over one set of runs there ranged from
# 0.072 to 0.104 s.  A call made at this calibration time is reported at its
# raw time.
CAL_REF_S = 0.09


@dataclass(frozen=True)
class Invocation:
    family: str
    levels: list[int]

    @property
    def n_arg(self) -> str:
        lo, hi = self.levels[0], self.levels[-1]
        return str(lo) if lo == hi else f"{lo}..{hi}"


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int

    def invocations(self, seed: int) -> list[Invocation]:
        if self.name.startswith("sweep"):
            return [Invocation("gamma", SWEEP_LEVELS), Invocation("lambda", SWEEP_LEVELS)]
        family = self.name.split("-")[0]
        lo, hi = large_levels(seed)
        return [Invocation(family, [lo]), Invocation(family, [hi])]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("sweep", 1),
    Workload("gamma-large", 1),
    Workload("lambda-large", 1),
    Workload("sweep-jobs2", 2),
)}


def large_levels(seed: int) -> tuple[int, int]:
    lo = LARGE_BAND[seed % len(LARGE_BAND)]
    return lo, 2 * lo


# ----------------------------------------------------------------------
# running the CLI
# ----------------------------------------------------------------------


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("BALLQ_JOBS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Process:
    wall_s: float
    first_line_s: float | None
    stdout: bytes
    returncode: int
    maxrss_kb: int
    stderr: str


@dataclass
class CallResult:
    invocation: Invocation
    jobs: int
    traced: bool
    proc: Process
    scale: float = 1.0  # CAL_REF_S / calibration time just before the call
    problems: dict[str, list[str]] = field(default_factory=dict)


def run_process(cmd: list[str]) -> Process:
    """Start one process and wait for it without polling: wall time, time to
    the first complete stdout line, and peak RSS (of the process and the
    workers it waited for) from ``wait4``."""
    with open(OUT_DIR / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                                stderr=err)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            first_s = time.perf_counter() - start if first.endswith(b"\n") else None
            stdout = first + proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return Process(wall, first_s, stdout, proc.returncode, usage.ru_maxrss, stderr)


def run_call(inv: Invocation, jobs: int, trace_prefix: Path | None = None) -> CallResult:
    """One fresh CLI process for one invocation."""
    args = ["verify", "--family", inv.family, "--n", inv.n_arg, "--jobs", str(jobs)]
    if trace_prefix is None:
        cmd = [sys.executable, "-m", "ballq", *args]
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_prefix), *args]
    return CallResult(inv, jobs, trace_prefix is not None, run_process(cmd))


def calibrate() -> float:
    """Median time of CAL_SAMPLES calibration interpreters, right now."""
    samples = []
    for _ in range(CAL_SAMPLES):
        p = run_process(CAL_COMMAND)
        if p.returncode != 0:
            raise RuntimeError(f"calibration failed: {p.stderr.strip()}")
        samples.append(p.wall_s)
    return statistics.median(samples)


def checked_call(inv: Invocation, jobs: int, golden,
                 trace_prefix: Path | None = None) -> CallResult:
    call = run_call(inv, jobs, trace_prefix)
    call.problems = gate.check_invocation(inv.family, inv.levels, call.proc.stdout,
                                          call.proc.returncode, golden)
    return call


def run_rep(workload: Workload, seed: int, jobs: int, golden,
            trace_prefix: Path | None = None) -> list[CallResult]:
    return [checked_call(inv, jobs, golden, trace_prefix)
            for inv in workload.invocations(seed)]


def measure_setup(count: int) -> list[float]:
    """Fresh interpreter plus ``import ballq.cli``, which every CLI call pays."""
    samples = []
    for _ in range(count):
        p = run_process([sys.executable, "-c", "import ballq.cli"])
        if p.returncode != 0:
            raise RuntimeError(f"import ballq.cli failed: {p.stderr.strip()}")
        samples.append(p.wall_s)
    return samples


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def rep_wall(rep: list[CallResult]) -> float:
    return sum(c.proc.wall_s for c in rep)


def level_outcomes(groups: list[list[CallResult]]) -> tuple[int, int, dict[str, list[str]]]:
    attempted = failed = 0
    failures: dict[str, list[str]] = {}
    for group in groups:
        for call in group:
            for level, problems in call.problems.items():
                attempted += 1
                if problems:
                    failed += 1
                    failures.setdefault(level, problems)
    return attempted, failed, failures


def end_to_end(workload: Workload, calls: list[list[CallResult]],
               setup: list[float]) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric of the workload as (value, unit), from the
    calls of each invocation.  Times are at reference speed; the ``.raw``
    ones are as measured."""
    def median_s(inv_calls: list[CallResult], scaled: bool = True,
                 first_line: bool = False) -> float:
        return statistics.median(
            (c.proc.first_line_s or c.proc.wall_s if first_line else c.proc.wall_s)
            * (c.scale if scaled else 1.0) for c in inv_calls)

    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(median_s(c) for c in calls), "s"),
        "first_report_s": (median_s(calls[0], first_line=True), "s"),
        "peak_rss_mb": (max(statistics.median(c.proc.maxrss_kb for c in inv_calls)
                            for inv_calls in calls) / 1024, "MB"),
    }
    if not workload.name.startswith("sweep"):
        lo, hi = median_s(calls[0]), median_s(calls[1])
        n_lo, n_hi = calls[0][0].invocation.levels[0], calls[1][0].invocation.levels[0]
        metrics["build_s.lo"] = (lo, "s")
        metrics["build_s.hi"] = (hi, "s")
        # Absolute targets, such as a level built in under a second, are
        # judged on the raw times.
        metrics["build_s.lo.raw"] = (median_s(calls[0], scaled=False), "s")
        metrics["build_s.hi.raw"] = (median_s(calls[1], scaled=False), "s")
        metrics["growth_exponent"] = (math.log(hi / lo) / math.log(n_hi / n_lo), "1")
    attempted, failed, _ = level_outcomes(calls)
    metrics["fail_ratio"] = (failed / attempted, "1")
    metrics["wall_s.raw"] = (sum(median_s(c, scaled=False) for c in calls), "s")
    metrics["first_report_s.raw"] = (median_s(calls[0], scaled=False, first_line=True), "s")
    metrics["calibration_scale"] = (statistics.median(c.scale for cs in calls for c in cs), "1")
    return metrics


def _trace_paths(prefix: Path) -> list[Path]:
    return sorted(prefix.parent.glob(prefix.name + ".*.jsonl"))


def _trace_records(prefix: Path) -> list[dict]:
    records = []
    for path in _trace_paths(prefix):
        with open(path, encoding="utf-8") as handle:
            records += [json.loads(line) for line in handle]
    return records


def aggregate_trace(records: list[dict]) -> tuple[dict, dict, list[dict], list[str]]:
    """Totals per traced name ``[calls, self_s, extra]``, the same per level,
    the spans, and any wrapper targets that were missing."""
    totals: dict[str, list] = {}
    per_level: dict[str, dict[str, list]] = {}
    spans: list[dict] = []
    missing: set[str] = set()
    for record in records:
        spans += record["spans"]
        missing.update(record["missing"])
        for level in record["levels"]:
            bucket = per_level.setdefault(level["level"] or "outside-levels", {})
            for name, stat in level["stats"].items():
                for table in (totals, bucket):
                    acc = table.setdefault(name, [0, 0.0, 0])
                    for i in range(3):
                        acc[i] += stat[i]
    return totals, per_level, spans, sorted(missing)


CERTIFY = ("surfaces.log_chern", "surfaces.nef_numerical_check", "surfaces.bmy_classify",
           "surfaces.cusp_count", "surfaces.volume_from_chi", "surfaces.LogPair")
AUTOMORPHISMS = ("curves.is_free", "curves.automorphism_order", "curves.orbit_of_curves",
                 "curves.apply_auto_to_curve")
CONTAINS = ("curves.GraphCurve.contains_point", "curves.VerticalFiber.contains_point")
LAYERS = ("eisenstein", "lattices", "curves", "surfaces", "homology", "families", "cli")


def per_layer(totals: dict[str, list]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the trace totals, as (value, unit)."""
    def calls(*names):
        return sum(totals.get(n, (0, 0.0, 0))[0] for n in names)

    def self_s(*names):
        return sum(totals.get(n, (0, 0.0, 0))[1] for n in names)

    def extra(*names):
        return sum(totals.get(n, (0, 0.0, 0))[2] for n in names)

    layer_self = {layer: self_s(*(n for n in totals if n.split(".")[0] == layer))
                  for layer in LAYERS}
    contains_calls = calls(*CONTAINS)
    metrics = {
        "curves.contains_point.calls": (contains_calls, "count"),
        "curves.contains_point.hits": (extra(*CONTAINS), "count"),
        "curves.contains_point.hit_ratio": (extra(*CONTAINS) / contains_calls
                                            if contains_calls else 0.0, "1"),
        "surfaces.etale_quotient.self_s": (self_s("surfaces.etale_quotient"), "s"),
        "surfaces.blow_up.calls": (calls("surfaces.blow_up"), "count"),
        "surfaces.blow_up.self_s": (self_s("surfaces.blow_up"), "s"),
        "surfaces.SurfaceModel.build.calls": (calls("surfaces.SurfaceModel.build"), "count"),
        "surfaces.SurfaceModel.build.self_s": (self_s("surfaces.SurfaceModel.build"), "s"),
        "surfaces.pairwise_int.calls": (calls("surfaces.pairwise_int"), "count"),
        "surfaces.certify.self_s": (self_s(*CERTIFY), "s"),
        "eisenstein.mul.calls": (calls("eisenstein.mul"), "count"),
        "eisenstein.add.calls": (calls("eisenstein.add"), "count"),
        "eisenstein.inverse.calls": (calls("eisenstein.inverse"), "count"),
        "lattices.TorusPoint.calls": (calls("lattices.TorusPoint"), "count"),
        "lattices.Lattice.calls": (calls("lattices.Lattice"), "count"),
        "lattices.Lattice.contains.calls": (calls("lattices.Lattice.contains"), "count"),
        "lattices.smith_normal_form.calls": (calls("lattices.smith_normal_form"), "count"),
        "lattices.coset_representatives.calls": (calls("lattices.coset_representatives"),
                                                 "count"),
        "lattices.coset_representatives.self_s": (self_s("lattices.coset_representatives"),
                                                  "s"),
        "curves.intersect_graphs.calls": (calls("curves.intersect_graphs"), "count"),
        "curves.intersect_graphs.self_s": (self_s("curves.intersect_graphs"), "s"),
        "curves.intersect_graphs.points": (extra("curves.intersect_graphs"), "count"),
        "curves.orbit_of_points.self_s": (self_s("curves.orbit_of_points"), "s"),
        "curves.GraphCurve.calls": (calls("curves.GraphCurve"), "count"),
        "curves.automorphisms.self_s": (self_s(*AUTOMORPHISMS), "s"),
        "families.covering_report.calls": (calls("families.covering_report"), "count"),
        "families.covering_report.self_s": (self_s("families.covering_report"), "s"),
        "families.albanese_data.self_s": (self_s("families.albanese_data"), "s"),
        "families.to_json_dict.self_s": (self_s("families.to_json_dict"), "s"),
        "families.build.self_s": (self_s("families.build"), "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
    return metrics


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def provenance(workload: Workload, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "jobs": workload.jobs,
        "invocations": [{"family": i.family, "n": i.n_arg}
                        for i in workload.invocations(seed)],
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "started_unix": time.time(),
    }


def call_summary(call: CallResult) -> dict:
    p = call.proc
    return {"family": call.invocation.family, "n": call.invocation.n_arg,
            "jobs": call.jobs, "traced": call.traced, "wall_s": p.wall_s,
            "first_report_s": p.first_line_s, "maxrss_kb": p.maxrss_kb,
            "scale": call.scale, "returncode": p.returncode, "bytes": len(p.stdout),
            "sha256": gate.digest(p.stdout), "stderr": p.stderr[-2000:]}


def run_untraced(workload: Workload, seed: int, seconds: int, golden) -> dict:
    """The workload's invocations in turn, each call at reference speed,
    until the next call would overrun ``seconds`` (judged by the last call of
    the same invocation); every invocation runs at least once.  Going call by
    call, not round by round, leaves less of the time unused.  Before each
    round, SETUP_PER_ROUND setup samples are scaled by the calibration taken
    just before them."""
    invocations = workload.invocations(seed)
    calls: list[list[CallResult]] = [[] for _ in invocations]
    last_s = [0.0] * len(invocations)
    setup: list[float] = []
    start = time.perf_counter()
    before = calibrate()
    for i in itertools.count():
        k = i % len(invocations)
        if i >= len(invocations) and time.perf_counter() - start + last_s[k] > seconds:
            break
        call_start = time.perf_counter()
        if k == 0:
            setup += [x * CAL_REF_S / before for x in measure_setup(SETUP_PER_ROUND)]
        call = checked_call(invocations[k], workload.jobs, golden)
        after = calibrate()
        call.scale = CAL_REF_S / ((before + after) / 2)
        before = after
        calls[k].append(call)
        last_s[k] = time.perf_counter() - call_start
    attempted, failed, failures = level_outcomes(calls)
    return {"metrics": end_to_end(workload, calls, setup), "attempted": attempted,
            "failed": failed, "failures": failures, "setup_samples_s": setup,
            "calls": [[call_summary(c) for c in inv_calls] for inv_calls in calls]}


def run_traced(workload: Workload, seed: int, golden) -> dict:
    serial = run_rep(workload, seed, 1, golden)
    jobs2 = run_rep(workload, seed, 2, golden)
    prefix = OUT_DIR / f"trace-{workload.name}-seed{seed}"
    for old in _trace_paths(prefix):
        old.unlink()
    traced = run_rep(workload, seed, workload.jobs, golden, prefix)
    untraced = jobs2 if workload.jobs == 2 else serial
    reps = [serial, jobs2, traced]
    attempted, failed, failures = level_outcomes(reps)
    # The trace must not change report bytes, and neither may --jobs.
    mismatched = [f"{c.invocation.family}:{c.invocation.n_arg}"
                  for rep in (jobs2, traced) for c, ref in zip(rep, serial)
                  if c.proc.stdout != ref.proc.stdout]

    records = _trace_records(prefix)
    totals, by_level, spans, missing = aggregate_trace(records)
    metrics = per_layer(totals)
    metrics["cli.bytes_out"] = (sum(len(c.proc.stdout) for c in traced), "bytes")
    metrics["cli.parallel_efficiency"] = (rep_wall(serial) / (2 * rep_wall(jobs2)), "1")
    metrics["trace.overhead_s"] = (rep_wall(traced) - rep_wall(untraced), "s")
    metrics["trace.spans"] = (len(spans), "count")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "failures": failures, "byte_mismatches": mismatched, "missing_targets": missing,
            "untraced_wall_s": rep_wall(untraced), "traced_wall_s": rep_wall(traced),
            "per_level": by_level, "trace_files": [p.name for p in _trace_paths(prefix)],
            "reps": [[call_summary(c) for c in rep] for rep in reps]}


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_trace_details(result: dict) -> None:
    """The layer split and, per level, the incidence counts with their base."""
    layer_total = sum(result["metrics"][f"{layer}.self_s"][0] for layer in LAYERS)
    shares = ", ".join(f"{layer} {result['metrics'][f'{layer}.self_s'][0] / layer_total:.1%}"
                       for layer in LAYERS)
    print(f"self-time share of {layer_total:.4f} s traced: {shares}")
    levels = [(level, stats) for level, stats in result["per_level"].items()
              if level != "outside-levels"]
    if len(levels) > 4:  # a sweep: one line for all levels
        levels = [(f"{len(levels)} levels", {name: [sum(s.get(name, [0, 0.0, 0])[i]
                                                         for _, s in levels)
                                                     for i in range(3)]
                                              for name in CONTAINS})]
    for level, stats in levels:
        graph = stats.get(CONTAINS[0], [0, 0.0, 0])
        vert = stats.get(CONTAINS[1], [0, 0.0, 0])
        print(f"{level}: contains_point hits {graph[2] + vert[2]} of "
              f"{graph[0] + vert[0]} calls (VerticalFiber {vert[2]} of {vert[0]}, "
              f"GraphCurve {graph[2]} of {graph[0]})")


def run_workload(workload: Workload, seed: int, seconds: int, trace: int) -> dict:
    golden = gate.load_golden()
    info = provenance(workload, seed, seconds, trace)
    if trace:
        result = run_traced(workload, seed, golden)
    else:
        result = run_untraced(workload, seed, seconds, golden)
    correct = result["failed"] == 0 and not result.get("byte_mismatches")
    result = {**info, "correct": correct, **result}
    results_path = OUT_DIR / f"{workload.name}-seed{seed}-trace{trace}.json"
    results_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    invocations = ", ".join(f"{i['family']} --n {i['n']}" for i in info["invocations"])
    print(f"workload {workload.name} (seed {seed}, --jobs {workload.jobs}): {invocations}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {_fmt(value)} {unit}")
    if not trace:
        counts = "/".join(str(len(c)) for c in result["calls"])
        print(f"(timings are medians over {counts} calls of the invocations; "
              f"setup_s over {len(result['setup_samples_s'])} interpreter starts)")
    else:
        print_trace_details(result)
    for level, problems in sorted(result["failures"].items()):
        print(f"FAILED {level}: {'; '.join(problems)}")
    for item in result.get("byte_mismatches", []):
        print(f"FAILED {item}: bytes differ between serial, --jobs 2 and traced runs")
    for item in result.get("missing_targets", []):
        print(f"warning: trace target not found, its metrics read 0: {item}")
    print(f"results: {results_path.relative_to(ROOT)}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=33)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ballq" / "cli.py").is_file():
        print(f"error: no ballq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace)
               for name in names]
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    if len(results) == 1:
        wanted = json.loads((ROOT / "BENCHMARK.json").read_text())[
            "per_layer" if args.trace else "end_to_end"]
        summary["metrics"] = {m["name"]: {"value": results[0]["metrics"][m["name"]][0],
                                          "unit": m["unit"]} for m in wanted}
    print(json.dumps(summary))
    # Wrong output is a failed run for anything that reads the exit status.
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
