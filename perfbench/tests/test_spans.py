"""Self-time and tail arithmetic on synthetic spans."""

import pytest

from perfbench.metrics import tail
from perfbench.spans import Recorder, Span, covered_time, self_times


def tree():
    #   a [0, 10]
    #     b [1, 4]
    #       c [2, 3]
    #     d [5, 9]
    #   e [12, 13]
    return [
        Span("a", 0.0, 10.0, -1, 0, 0),
        Span("b", 1.0, 4.0, 0, 0, 0),
        Span("c", 2.0, 3.0, 1, 0, 0),
        Span("d", 5.0, 9.0, 0, 0, 0),
        Span("e", 12.0, 13.0, -1, 0, 1),
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(tree()) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])


def test_covered_time_is_the_union_of_top_level_spans_in_the_window():
    spans = tree() + [Span("f", 8.0, 11.0, -1, 0, 0)]
    assert covered_time(spans, 0.0, 12.5) == pytest.approx(11.0 + 0.5)


def test_recorder_links_parents_and_ops():
    rec = Recorder(rank=3, enabled=True)
    rec.op = 7
    out = rec.call("outer", lambda: rec.call("inner", lambda: 42))
    assert out == 42
    outer, inner = rec.spans
    assert (outer.name, outer.parent, inner.name, inner.parent) == ("outer", -1, "inner", 0)
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert {outer.rank, outer.op, inner.rank, inner.op} == {3, 7}


def test_disabled_recorder_records_nothing():
    rec = Recorder(rank=0, enabled=False)
    f = lambda x: x + 1  # noqa: E731
    assert rec.wrap("f", f) is f
    assert rec.call("f", f, 1) == 2
    assert rec.spans == []


def test_tail_has_ten_samples_beyond_it():
    xs = [float(i) for i in range(1, 101)]
    value, pct, n = tail(xs)
    assert (pct, n) == (90, 100)
    assert sum(x > value for x in xs) == 10
    assert tail([1.0, 2.0, 3.0]) == (2.0, 50, 3)
