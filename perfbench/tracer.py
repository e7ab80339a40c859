"""Outside-in tracing of ballq: wrappers installed from the benchmark's files.

Nothing under ``src/`` is edited.  Each traced function is replaced, on every
ballq module or class that binds it, by a wrapper of one of three kinds:

* span: coarse calls (a few per level up to one per blown-up point).  Each
  call is timed and kept in memory as a span record (id, name, start, end,
  parent span id, level id ``family:n``, self time).
* timed: fine-grained calls (Q(rho) arithmetic, torus reduction, incidence
  tests).  These run up to millions of times per level, so no span is
  stored; each call only adds to per-name aggregates (calls, self time and
  an extra count such as hits).
* counted: the hottest lookups; calls are counted and their time is left in
  the caller.

Timed calls and spans share one per-process stack, so self time is a call's
duration minus the time of the span and timed calls it made; summed over
all names it partitions the traced process's time.

Per-name aggregates are cut into one record per level when ``cli`` finishes
a level, so counters can be read per level.  ``--jobs`` workers are forked
from the traced process and inherit the wrappers; a worker writes its own
records to ``<out>.<pid>.jsonl`` after each level, because pool workers leave
through ``os._exit`` and never reach an exit hook.  The traced process
writes ``<out>.<pid>.jsonl`` once, when ``cli.main`` returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from typing import Callable

# Each target is (kind, layer.name, module, attribute) for a module-level
# function or (kind, layer.name, module, class, attribute) for a method.
# kind is SPAN, TIMED (aggregated calls and self time, no span), COUNTED
# (aggregated calls only: the cheapest wrapper, for lookups called millions
# of times whose time is better left in their caller) or LEVEL (the span
# around one level's work, which cuts the per-level records).
#
# A function is replaced on every loaded ballq module that binds the same
# object, which is the name each caller actually resolves (for example
# ``ballq.families.blow_up`` as well as ``ballq.surfaces.blow_up``).  Classes
# are patched in place, so every caller sees the wrapped method.
SPAN, TIMED, COUNTED, LEVEL = "span", "timed", "counted", "level"
TARGETS = (
    (LEVEL, "cli.report", "ballq.cli", "_report_dict"),
    (SPAN, "families.build", "ballq.families", "build_family"),
    (SPAN, "families.covering_report", "ballq.families", "covering_report"),
    (SPAN, "families.albanese_data", "ballq.families", "albanese_data"),
    (SPAN, "families.classify_deck_action", "ballq.families", "classify_deck_action"),
    (SPAN, "families.to_json_dict", "ballq.families", "ConstructionReport", "to_json_dict"),
    (SPAN, "surfaces.etale_quotient", "ballq.surfaces", "etale_quotient"),
    (SPAN, "surfaces.blow_up", "ballq.surfaces", "blow_up"),
    (SPAN, "surfaces.SurfaceModel.build", "ballq.surfaces", "SurfaceModel", "build"),
    (SPAN, "surfaces.LogPair", "ballq.surfaces", "LogPair", "__post_init__"),
    (SPAN, "surfaces.log_chern", "ballq.surfaces", "log_chern"),
    (SPAN, "surfaces.nef_numerical_check", "ballq.surfaces", "nef_numerical_check"),
    (SPAN, "surfaces.bmy_classify", "ballq.surfaces", "bmy_classify"),
    (SPAN, "surfaces.cusp_count", "ballq.surfaces", "cusp_count"),
    (SPAN, "surfaces.volume_from_chi", "ballq.surfaces", "volume_from_chi"),
    (COUNTED, "surfaces.pairwise_int", "ballq.surfaces", "SurfaceModel", "pairwise_int"),
    (SPAN, "curves.intersect_graphs", "ballq.curves", "intersect_graphs"),
    (SPAN, "curves.orbit_of_points", "ballq.curves", "orbit_of_points"),
    (SPAN, "curves.is_free", "ballq.curves", "is_free"),
    (SPAN, "curves.automorphism_order", "ballq.curves", "automorphism_order"),
    (SPAN, "curves.orbit_of_curves", "ballq.curves", "orbit_of_curves"),
    (SPAN, "curves.apply_auto_to_curve", "ballq.curves", "apply_auto_to_curve"),
    (TIMED, "curves.intersect_graph_fiber", "ballq.curves", "intersect_graph_fiber"),
    (TIMED, "curves.GraphCurve", "ballq.curves", "GraphCurve", "__init__"),
    (TIMED, "curves.GraphCurve.contains_point", "ballq.curves", "GraphCurve",
     "contains_point"),
    (TIMED, "curves.VerticalFiber.contains_point", "ballq.curves", "VerticalFiber",
     "contains_point"),
    (SPAN, "lattices.coset_representatives", "ballq.lattices", "coset_representatives"),
    (TIMED, "lattices.smith_normal_form", "ballq.lattices", "smith_normal_form"),
    (TIMED, "lattices.Lattice", "ballq.lattices", "Lattice", "__post_init__"),
    (TIMED, "lattices.Lattice.contains", "ballq.lattices", "Lattice", "contains"),
    (TIMED, "lattices.TorusPoint", "ballq.lattices", "TorusPoint", "__post_init__"),
    (TIMED, "eisenstein.new", "ballq.eisenstein", "EisensteinNumber", "__post_init__"),
    (TIMED, "eisenstein.add", "ballq.eisenstein", "EisensteinNumber", "__add__"),
    (TIMED, "eisenstein.add", "ballq.eisenstein", "EisensteinNumber", "__radd__"),
    (TIMED, "eisenstein.sub", "ballq.eisenstein", "EisensteinNumber", "__sub__"),
    (TIMED, "eisenstein.sub", "ballq.eisenstein", "EisensteinNumber", "__rsub__"),
    (TIMED, "eisenstein.mul", "ballq.eisenstein", "EisensteinNumber", "__mul__"),
    (TIMED, "eisenstein.mul", "ballq.eisenstein", "EisensteinNumber", "__rmul__"),
    (TIMED, "eisenstein.div", "ballq.eisenstein", "EisensteinNumber", "__truediv__"),
    (TIMED, "eisenstein.div", "ballq.eisenstein", "EisensteinNumber", "__rtruediv__"),
    (TIMED, "eisenstein.pow", "ballq.eisenstein", "EisensteinNumber", "__pow__"),
    (TIMED, "eisenstein.inverse", "ballq.eisenstein", "EisensteinNumber", "inverse"),
    (SPAN, "homology.mv_tables", "ballq.homology", "mv_tables"),
    (SPAN, "homology.betti_of_open", "ballq.homology", "betti_of_open"),
    (SPAN, "homology.blown_bielliptic_betti", "ballq.homology", "blown_bielliptic_betti"),
    (SPAN, "homology.free_rank_of_punctured_surface", "ballq.homology",
     "free_rank_of_punctured_surface"),
    (SPAN, "homology.fibration_sequence_report", "ballq.homology",
     "fibration_sequence_report"),
)

# Extra per-call counts: a truthy incidence test is a hit, and an
# intersection contributes its number of points.
EXTRA = {
    "curves.GraphCurve.contains_point": bool,
    "curves.VerticalFiber.contains_point": bool,
    "curves.intersect_graphs": lambda result: len(result.points),
}

class Tracer:
    """Per-process stack of open calls, span list and per-name aggregates.

    ``stats[name]`` is a mutable ``[calls, self_s, extra]`` list captured by
    the wrappers; it is zeroed in place when a level record is cut.
    """

    def __init__(self, out_prefix: str | None = None,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.out_prefix = out_prefix
        self.clock = clock
        self.pid = os.getpid()
        self.origin_pid = self.pid
        self.stats: dict[str, list] = {}
        self.stack: list[list[float]] = [[0.0]]  # bottom frame collects root time
        self.spans: list[dict[str, object]] = []
        self.levels: list[dict[str, object]] = []
        self.current_span: str | None = None
        self.level: str | None = None
        self._next_id = 0
        self.missing: list[str] = []

    # -- recording -----------------------------------------------------

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0])

    def counted(self, name: str, fn: Callable) -> Callable:
        stat = self._stat(name)
        extra = EXTRA.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            result = fn(*args, **kwargs)
            if extra is not None:
                stat[2] += extra(result)
            return result

        return wrapper

    def timed(self, name: str, fn: Callable) -> Callable:
        stat = self._stat(name)
        stack = self.stack
        clock = self.clock
        extra = EXTRA.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed - frame[0]
            if extra is not None:
                stat[2] += extra(result)
            return result

        return wrapper

    def span(self, name: str, fn: Callable) -> Callable:
        stat = self._stat(name)
        stack = self.stack
        clock = self.clock
        extra = EXTRA.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.current_span
            span_id = f"{self.pid}:{self._next_id}"
            self._next_id += 1
            self.current_span = span_id
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                stack[-1][0] += elapsed
                self_s = elapsed - frame[0]
                stat[0] += 1
                stat[1] += self_s
                self.current_span = parent
                self.spans.append({"id": span_id, "name": name, "start": start,
                                   "end": end, "parent": parent, "level": self.level,
                                   "self_s": self_s})
            if extra is not None:
                stat[2] += extra(result)
            return result

        return wrapper

    def level_span(self, name: str, fn: Callable) -> Callable:
        """Span around one level's work, ``fn((family, n))``; it sets the
        level id and cuts the aggregates into a level record."""
        inner = self.span(name, fn)

        @functools.wraps(fn)
        def wrapper(task):
            if os.getpid() != self.pid:
                self._enter_worker()
            self.level = f"{task[0]}:{task[1]}"
            try:
                return inner(task)
            finally:
                self.levels.append({"level": self.level, "stats": self.take_stats()})
                self.level = None
                if self.pid != self.origin_pid:
                    self.flush()

        return wrapper

    def take_stats(self) -> dict[str, list]:
        """Return the non-empty aggregates and zero them in place."""
        out = {}
        for name, stat in self.stats.items():
            if stat[0]:
                out[name] = list(stat)
                stat[0], stat[1], stat[2] = 0, 0.0, 0
        return out

    def _enter_worker(self) -> None:
        # A forked pool worker inherits the parent's records; it reports only
        # its own.  Open frames from the parent stay on the stack so spans
        # keep their parent id.
        self.pid = os.getpid()
        self.spans = []
        self.levels = []
        self.take_stats()

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every traced ballq function and method in this process."""
        modules = [importlib.import_module(f"ballq.{m}") for m in
                   ("eisenstein", "lattices", "curves", "surfaces", "homology",
                    "families", "cli")]
        wrap = {SPAN: self.span, TIMED: self.timed, COUNTED: self.counted,
                LEVEL: self.level_span}
        for kind, name, module_name, *path in TARGETS:
            owner = sys.modules[module_name]
            if len(path) == 2:
                owner = getattr(owner, path[0], None)
            attr = path[-1]
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(".".join([module_name, *path]))
                continue
            if len(path) == 2:  # a method: patch the class
                if isinstance(raw, staticmethod):
                    setattr(owner, attr, staticmethod(wrap[kind](name, raw.__func__)))
                else:
                    setattr(owner, attr, wrap[kind](name, raw))
                continue
            wrapped = wrap[kind](name, raw)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, wrapped)

    def run_main(self, argv: list[str]) -> int:
        """Run ``ballq.cli.main(argv)`` under the root span and write the
        records of this process."""
        from ballq import cli

        main = self.span("cli.main", cli.main)
        try:
            return main(argv)
        finally:
            self.levels.append({"level": None, "stats": self.take_stats()})
            self.flush()

    def flush(self) -> None:
        """Append this process's records to ``<out_prefix>.<pid>.jsonl``."""
        if self.out_prefix is None:
            return
        record = {"pid": self.pid, "spans": self.spans, "levels": self.levels,
                  "missing": self.missing}
        with open(f"{self.out_prefix}.{self.pid}.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self.spans = []
        self.levels = []
