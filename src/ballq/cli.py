"""Command-line interface: batch certification and the exact solvers.

Exit codes: 0 all checks passed, 1 at least one certification check
failed or a level could not be built, 2 usage error, 3 I/O or OS error
(an output that cannot be written, a worker that cannot be started).  Range
verification may fan out over forked processes: the range's i-th level,
counting from 0, is built by process i % jobs, the CLI process being
process 0, and each forked worker streams its rendered lines back over a
pipe.  Each report line is written as its level finishes, ordered by n and
byte-identical regardless of the parallelism.
"""

from __future__ import annotations

import argparse
import io
import json
import marshal
import os
import sys
from contextlib import contextmanager
from fractions import Fraction

from . import families
from .eisenstein import EisensteinNumber
from .curves import (EMPTY, IDENTICAL, GraphCurve, Intersection, VerticalFiber,
                     graph_difference, intersect_graph_fiber, intersect_graphs)
from .families import MAX_LEVEL
from .surfaces import volume_from_chi

# Most points one intersect run may list, and most rows one spectrum run
# may tabulate.
MAX_POINTS = 20_000
MAX_LEVELS = 10_000


class UsageError(Exception):
    pass


def _parse_n_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise UsageError(f"cannot parse n or range {text!r}") from exc
    if lo < 1 or hi < lo:
        raise UsageError(f"need 1 <= first <= last in range, got {text!r}")
    if hi > MAX_LEVEL:
        raise UsageError(f"levels above {MAX_LEVEL} are not supported, got {text!r}")
    return list(range(lo, hi + 1))


def _usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity set where
    the platform has one, else the host's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _resolve_jobs(args: argparse.Namespace, levels: int) -> int:
    """Process count: the requested one, capped by the number of levels and
    the number of usable CPUs, and at 1 where the platform cannot fork."""
    if args.jobs < 1:
        raise UsageError("jobs must be at least 1")
    return min(args.jobs, levels, _usable_cpus() if hasattr(os, "fork") else 1)


def _report_dict(task: tuple[str, int]) -> dict[str, object]:
    """build_family's report document for a (family, n) task, passed or
    failed: the one per-level function, called in every process."""
    return families.build_family(*task)


def _level_line(task: tuple[str, int], render) -> tuple[bool, str | None, str]:
    """A level as (passed, its stderr line or None, its report line)."""
    doc = _report_dict(task)
    error = doc.get("error")
    note = None if error is None else (f"error: {doc['family']} n={doc['n']}: "
                                       f"{error['type']}: {error['message']}")
    return doc["passed"], note, render(doc) + "\n"


def _fork_worker(tasks: list[tuple[str, int]], render,
                 workers: list[tuple[int, io.BufferedReader]]
                 ) -> tuple[int, io.BufferedReader]:
    """Fork a process that builds tasks in order and writes each one's
    _level_line to a pipe as one marshal record; return (pid, read end).
    The child closes the read ends of the earlier workers it inherits, so
    that only the parent holds each pipe open for reading.  The CLI starts
    no threads, so a forked copy of it holds no lock another thread took."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, open(read_fd, "rb")
    code = 1
    try:
        os.close(read_fd)
        for _, pipe in workers:
            pipe.close()
        with open(write_fd, "wb") as pipe:
            for task in tasks:
                marshal.dump(_level_line(task, render), pipe)
                pipe.flush()
        code = 0
    finally:
        # Never flush inherited buffers, run exit hooks or return into the
        # caller.
        os._exit(code)


@contextmanager
def _output(out_path: str | None):
    """The stream a subcommand writes to: stdout, or out_path opened for
    writing (an OSError here is reported by main with exit code 3)."""
    if out_path is None:
        yield sys.stdout
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            yield handle


def _cmd_verify(args: argparse.Namespace) -> int:
    tasks = [(args.family, n) for n in _parse_n_range(args.n)]
    jobs = _resolve_jobs(args, len(tasks))
    render = json.dumps if args.format == "json" else families.render_markdown
    passed = True
    with _output(args.out) as out:
        workers: list[tuple[int, io.BufferedReader]] = []
        try:
            try:
                for k in range(1, jobs):
                    workers.append(_fork_worker(tasks[k::jobs], render, workers))
            except OSError as exc:
                print(f"error: cannot start a worker process: {exc}", file=sys.stderr)
                return 3
            for i, task in enumerate(tasks):
                if i % jobs == 0:
                    ok, note, text = _level_line(task, render)
                else:
                    try:
                        ok, note, text = marshal.load(workers[i % jobs - 1][1])
                    except EOFError:
                        print(f"error: {task[0]} n={task[1]}: the worker process "
                              "building it ended without a report", file=sys.stderr)
                        return 1
                if note:
                    print(note, file=sys.stderr)
                out.write(text)
                out.flush()
                passed = passed and ok
        finally:
            # On an early return or an error, a worker still building ends at
            # its next write into its closed pipe, so waitpid returns.  Every
            # pipe is closed before the first wait: a worker blocked on a full
            # pipe must not wait for a reader that is itself waiting.
            for _, pipe in workers:
                pipe.close()
            for pid, _ in workers:
                os.waitpid(pid, 0)
    return 0 if passed else 1


def _cmd_spectrum(args: argparse.Namespace) -> int:
    if not 1 <= args.count <= MAX_LEVELS:
        raise UsageError(f"count must be between 1 and {MAX_LEVELS}")
    rows = [{"n": n, **volume_from_chi(n)} for n in range(1, args.count + 1)]
    coefficients = {row["pi_squared_coefficient"] for row in rows}
    expected = {str(Fraction(8, 3) * k) for k in range(1, args.count + 1)}
    saturated = coefficients == expected
    if args.format == "json":
        doc = {
            "rows": rows,
            "saturates_volume_spectrum": saturated,
            "statement": ("every admissible volume (a positive integer multiple"
                          " of (8/3)·π²) up to the cutoff is attained"),
        }
        text = json.dumps(doc) + "\n"
    else:
        lines = ["| n | volume |", "| --- | --- |"]
        lines += [f"| {row['n']} | {row['text']} |" for row in rows]
        lines.append("")
        lines.append(f"saturates volume spectrum up to cutoff: {saturated}")
        text = "\n".join(lines) + "\n"
    with _output(args.out) as out:
        out.write(text)
    return 0 if saturated else 1


def _parse_curve_spec(spec: str, torus) -> GraphCurve | VerticalFiber:
    kind, _, payload = spec.partition(":")
    if kind == "graph":
        parts = payload.split(",")
        if len(parts) != 2:
            raise UsageError(f"graph spec needs 'graph:slope,offset', got {spec!r}")
        slope = EisensteinNumber.from_string(parts[0])
        offset = EisensteinNumber.from_string(parts[1])
        return GraphCurve(torus, slope, offset)
    if kind == "fiber":
        return VerticalFiber(torus, EisensteinNumber.from_string(payload))
    raise UsageError(f"curve spec must start with 'graph:' or 'fiber:', got {spec!r}")


def _cmd_intersect(args: argparse.Namespace) -> int:
    if not 1 <= args.n <= MAX_LEVEL:
        raise UsageError(f"n must be between 1 and {MAX_LEVEL}")
    torus = families.product_torus(args.n)
    try:
        first = _parse_curve_spec(args.first, torus)
        second = _parse_curve_spec(args.second, torus)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if isinstance(first, VerticalFiber) and isinstance(second, GraphCurve):
        first, second = second, first
    if isinstance(second, GraphCurve):
        # The point count is known before any point is built (0: equal slopes).
        count = abs(graph_difference(first, second)[1])
        if count > MAX_POINTS:
            raise UsageError(f"the curves meet in {count} points; at most "
                             f"{MAX_POINTS} are listed")
        result = intersect_graphs(first, second)
    elif isinstance(first, GraphCurve):
        result = intersect_graph_fiber(first, second)
    else:
        result = Intersection(IDENTICAL if first == second else EMPTY)
    with _output(args.out) as out:
        out.write(json.dumps(result.to_json()) + "\n")
    return 0


_CLI_MULTIPLIERS = {"neg": "-1", "-1": "-1", "i": "i", "rho": "rho", "zeta": "zeta"}


def _cmd_classify(args: argparse.Namespace) -> int:
    multiplier = _CLI_MULTIPLIERS.get(args.multiplier)
    if multiplier is None:
        raise UsageError(f"unknown multiplier {args.multiplier!r}")
    result = families.bdf_classify(args.order, multiplier, args.translation_order)
    with _output(args.out) as out:
        out.write(json.dumps(result.to_json()) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballq",
        description="exact certification of the two bielliptic ball-quotient families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run and certify family builders")
    verify.add_argument("--family", choices=(families.GAMMA, families.LAMBDA),
                        required=True)
    verify.add_argument("--n", required=True,
                        help="a single level or an inclusive range a..b")
    verify.add_argument("--format", choices=("json", "markdown"), default="json")
    verify.add_argument("--out", default=None, help="output path (default stdout)")
    verify.add_argument("--jobs", type=int, default=1,
                        help="processes that build levels, this one included")
    verify.set_defaults(handler=_cmd_verify)

    spectrum = sub.add_parser("spectrum", help="tabulate exact volumes up to a cutoff")
    spectrum.add_argument("--count", type=int, required=True, help="largest level")
    spectrum.add_argument("--format", choices=("json", "markdown"), default="markdown")
    spectrum.add_argument("--out", default=None)
    spectrum.set_defaults(handler=_cmd_spectrum)

    intersect = sub.add_parser("intersect", help="intersect two curves exactly")
    intersect.add_argument("first", help="curve spec 'graph:slope,offset' or 'fiber:z0'")
    intersect.add_argument("second")
    intersect.add_argument("--n", type=int, required=True, help="level of the z-factor")
    intersect.add_argument("--out", default=None)
    intersect.set_defaults(handler=_cmd_intersect)

    classify = sub.add_parser("classify", help="look up a Bagnera-de Franchis type")
    classify.add_argument("--order", type=int, required=True)
    classify.add_argument("--multiplier", required=True,
                          help="one of neg, i, rho, zeta")
    classify.add_argument("--translation-order", type=int, default=None)
    classify.add_argument("--out", default=None)
    classify.set_defaults(handler=_cmd_classify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3
