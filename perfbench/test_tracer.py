"""Self-time bookkeeping of the outside-in tracer, on local functions with a
fake clock (no ballq code is traced here)."""

import tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def leaf():
        clock.now += 1.0

    def counted():
        clock.now += 0.5

    timed_leaf = t.timed("layer.leaf", leaf)
    counted_leaf = t.counted("layer.count", counted)

    def inner():
        clock.now += 2.0
        timed_leaf()
        timed_leaf()
        counted_leaf()

    span_inner = t.span("layer.inner", inner)

    def outer():
        clock.now += 3.0
        span_inner()

    span_outer = t.span("layer.outer", outer)
    span_outer()

    stats = t.take_stats()
    assert stats["layer.leaf"] == [2, 2.0, 0]
    assert stats["layer.count"] == [1, 0.0, 0]
    assert stats["layer.inner"] == [1, 2.5, 0]  # the counted call stays in its caller
    assert stats["layer.outer"] == [1, 3.0, 0]
    assert sum(s[1] for s in stats.values()) == clock.now == 7.5

    inner_span, outer_span = t.spans
    assert inner_span["parent"] == outer_span["id"]
    assert outer_span["parent"] is None
    assert (outer_span["start"], outer_span["end"]) == (0.0, 7.5)
    assert t.take_stats() == {}  # zeroed in place


def test_level_span_cuts_a_record_per_level():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def work():
        clock.now += 1.0

    step = t.timed("layer.step", work)

    def report(task):
        step()
        return task

    level = t.level_span("cli.report", report)
    level(("gamma", 1))
    level(("gamma", 2))
    step()
    assert [r["level"] for r in t.levels] == ["gamma:1", "gamma:2"]
    assert t.levels[1]["stats"]["layer.step"] == [1, 1.0, 0]
    assert {s["level"] for s in t.spans} == {"gamma:1", "gamma:2"}
    assert t.take_stats()["layer.step"] == [1, 1.0, 0]  # outside any level


def test_extra_counts_hits():
    t = tracer.Tracer()
    contains = t.timed("curves.GraphCurve.contains_point", lambda x: x > 0)
    for x in (-1, 1, 2):
        contains(x)
    assert t.take_stats()["curves.GraphCurve.contains_point"][::2] == [3, 2]
