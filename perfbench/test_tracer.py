"""Self-time arithmetic of the benchmark's tracer on a synthetic nested call."""

import types

from tracer import Tracer


def test_self_times_of_nested_calls_add_up_to_the_top_level_call():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])  # outer in, a in/out, b in/out, outer out
    tracer = Tracer(clock=lambda: next(ticks))
    inner = types.ModuleType("inner")
    inner.__dict__.update(leaf=lambda: None)
    inner.leaf.__module__ = "inner"
    tracer.wrap_module(inner, "low")
    leaf = inner.leaf

    def outer():
        leaf()
        leaf()

    outer = tracer.wrap("high", "outer", outer)
    outer()

    assert tracer.stats[("high", "outer")] == [1, 10.0 - (3.0 - 1.0) - (7.0 - 4.0)]
    assert tracer.stats[("low", "leaf")] == [2, 5.0]
    assert tracer.top_s == 10.0
    assert tracer.self_seconds() == tracer.top_s
    assert tracer.stack == []
    # one span for the top-level call and one per call entering another layer
    assert [(s[0], s[1], s[3]) for s in tracer.spans] == [(0, -1, "high.outer"), (1, 0, "low.leaf"), (2, 0, "low.leaf")]


def test_no_spans_for_calls_into_gamma_or_within_a_layer():
    tracer = Tracer(clock=iter(range(100)).__next__)
    kernel = tracer.wrap("gamma", "kernel", lambda: None)
    same = tracer.wrap("high", "same", lambda: kernel())
    top = tracer.wrap("high", "top", lambda: same())
    top()
    assert [s[3] for s in tracer.spans] == ["high.top"]
    assert tracer.stats[("gamma", "kernel")][0] == 1
    assert tracer.self_seconds() == tracer.top_s
