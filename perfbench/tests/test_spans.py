import itertools

import pytest

from perfbench.spans import Span, Tracer, covered_length, has_ancestor, self_times, summarize


def test_self_time_on_hand_built_tree():
    spans = [
        Span("main", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 5.0, 9.0, 0),
        Span("c", 6.0, 7.0, 2),
        Span("c", 7.5, 8.0, 2),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.5, 1.0, 0.5])
    summary = summarize(spans, root=0)
    assert summary["layers"]["c"] == {"calls": 2, "total_s": pytest.approx(1.5), "self_s": pytest.approx(1.5)}
    assert summary["main_s"] == 10.0
    assert summary["covered_s"] == pytest.approx(7.0)


def test_overlapping_children_are_subtracted_once():
    spans = [Span("p", 0.0, 10.0, -1), Span("x", 1.0, 5.0, 0), Span("y", 3.0, 6.0, 0)]
    assert self_times(spans)[0] == pytest.approx(5.0)
    assert covered_length([(1.0, 5.0), (3.0, 6.0), (8.0, 9.0)]) == pytest.approx(6.0)


def test_tracer_records_parents_sites_and_counts():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda n: list(range(n)), site="m.inner", count=("items", len))
    outer = tracer.wrap("outer", lambda: inner(2) + inner(3), site="m.outer")
    assert outer() == [0, 1, 0, 1, 2]
    spans = tracer.finished()
    assert [(s.name, s.parent) for s in spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert dict(tracer.counts) == {"items": 5}
    assert dict(tracer.site_calls) == {"m.inner": 2, "m.outer": 1}
    assert has_ancestor(spans, 2, frozenset({"outer"}))
    assert not has_ancestor(spans, 0, frozenset({"outer"}))


def test_span_is_recorded_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert [s.name for s in tracer.finished()] == ["boom"]


def test_patching_a_missing_attribute_fails():
    with pytest.raises(AttributeError):
        Tracer().patch("json", "no_such_function", "json.no_such_function")
