"""Self time on a synthetic span tree, and spans from wrapped calls."""

import time

import pytest

from perfbench.spans import (
    LayerTotals,
    SpanRecorder,
    child_counts,
    covered,
    self_times,
)


def test_covered_merges_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 4.0)], 0.0, 10.0) == 3.0
    assert covered([(8.0, 12.0), (-2.0, 1.0)], 0.0, 10.0) == 3.0
    assert covered([(1.0, 2.0), (5.0, 6.0)], 0.0, 10.0) == 2.0


def test_self_time_subtracts_children_not_grandchildren():
    #  root 0..10
    #    a 1..4        (child)
    #      g 2..3      (grandchild: counted in a's cover, not root's twice)
    #    b 6..9        (child)
    spans = [
        (1, 0, "root", 0.0, 10.0, 0),
        (2, 1, "a", 1.0, 4.0, 0),
        (3, 2, "g", 2.0, 3.0, 0),
        (4, 1, "b", 6.0, 9.0, 0),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 3.0 - 3.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_layer_totals_roll_up_by_name_per_process():
    by_pid = {
        1: [(1, 0, "engine", 0.0, 4.0, 100), (2, 1, "kernel", 1.0, 2.0, 8)],
        2: [(1, 0, "engine", 0.0, 2.0, 50)],
    }
    totals = LayerTotals.from_processes(by_pid)
    assert totals.calls["engine"] == 2
    assert totals.self_s["engine"] == pytest.approx(3.0 + 2.0)
    assert totals.count["engine"] == 150
    assert totals.self_s["kernel"] == pytest.approx(1.0)
    assert sorted(child_counts(by_pid, "engine", "kernel")) == [0, 1]


def test_recorder_links_nested_calls_and_counts():
    recorder = SpanRecorder()

    def inner(x):
        time.sleep(0.001)
        return x * 2

    wrapped_inner = recorder.wrap("inner", inner,
                                  after=lambda tok, a, k, r: float(r))

    def outer(x):
        return wrapped_inner(x) + wrapped_inner(x + 1)

    wrapped_outer = recorder.wrap("outer", outer,
                                  before=lambda a, k: a[0],
                                  after=lambda tok, a, k, r: float(tok))
    assert wrapped_outer(3) == 14
    by_name = {}
    for sid, parent, name, t0, t1, n in recorder.spans:
        by_name.setdefault(name, []).append((sid, parent, t0, t1, n))
    (outer_id, outer_parent, o0, o1, o_n), = by_name["outer"]
    assert outer_parent == 0 and o_n == 3.0
    assert [p for _, p, *_ in by_name["inner"]] == [outer_id, outer_id]
    assert [n for *_, n in by_name["inner"]] == [6.0, 8.0]
    assert all(o0 <= t0 <= t1 <= o1 for _, _, t0, t1, _ in by_name["inner"])


def test_recorder_keeps_the_span_when_the_call_raises():
    recorder = SpanRecorder()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        recorder.wrap("boom", boom)()
    assert [s[2] for s in recorder.spans] == ["boom"]
    assert recorder.wrap("ok", lambda: 1)() == 1
    assert recorder.spans[-1][1] == 0  # the stack unwound
