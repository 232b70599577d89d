"""The journal-derived latency breakdown on a hand-built journal."""

import pytest

from perfbench.daemon_workload import Job, backlog_growth, breakdown


def _transition(seq, job, old, new, t):
    return {"type": "transition", "seq": seq, "job": job, "from": old,
            "to": new, "t": t, "payload": {}}


def test_breakdown_splits_due_to_completed():
    jobs = [
        Job("a", (), due=100.0, submit_start=100.001, submit_end=100.011),
        Job("b", (), due=100.5, submit_start=100.5, submit_end=100.52),
        Job("lost", (), due=101.0, submit_start=101.0, submit_end=101.01),
    ]
    records = [
        {"type": "meta", "seq": 0, "event": "daemon-start", "t": 99.0},
        _transition(1, "a", None, "queued", 100.031),
        _transition(2, "a", "queued", "admitted", 100.032),
        _transition(3, "a", "admitted", "running", 100.041),
        _transition(4, "b", None, "queued", 100.55),
        _transition(5, "b", "queued", "admitted", 100.56),
        _transition(6, "b", "admitted", "running", 100.57),
        _transition(7, "b", "running", "preempted", 100.6),
        _transition(8, "b", "preempted", "resumed", 100.7),
        _transition(9, "a", "running", "completed", 100.241),
        _transition(10, "b", "resumed", "completed", 100.9),
        _transition(11, "lost", None, "queued", 101.05),
    ]
    parts = {
        "a": [{"key": "k1", "duration_s": 0.15},
              {"key": "hot", "duration_s": 9.0}],
        "b": [{"key": "k2", "duration_s": 0.25}],
    }
    out = breakdown(records, jobs, parts, cached={"hot"})
    assert set(out) == {"a", "b"}  # never-completed jobs have no row
    a = out["a"]
    assert a["latency"] == pytest.approx(241.0)
    assert a["late"] == pytest.approx(1.0)
    assert a["submit"] == pytest.approx(10.0)
    assert a["spool_wait"] == pytest.approx(20.0)
    assert a["queue_wait"] == pytest.approx(10.0)
    assert a["run"] == pytest.approx(200.0)
    # The cached spec's stored duration is not time spent in this job.
    assert a["handoff"] == pytest.approx(50.0)
    assert (a["late"] + a["submit"] + a["spool_wait"] + a["queue_wait"]
            + a["run"]) == pytest.approx(a["latency"])
    b = out["b"]
    # Queue wait ends at the first RUNNING record; preemption counts as run.
    assert b["queue_wait"] == pytest.approx(20.0)
    assert b["run"] == pytest.approx(330.0)
    assert b["handoff"] == pytest.approx(80.0)
    assert b["latency"] == pytest.approx(400.0)


def test_backlog_growth_is_the_least_squares_slope():
    assert backlog_growth([]) == 0.0
    assert backlog_growth([(0.0, 3)]) == 0.0
    assert backlog_growth([(0.0, 0), (1.0, 2), (2.0, 4)]) == pytest.approx(2.0)
    flat = [(t * 0.25, 2 + (t % 2)) for t in range(40)]
    assert abs(backlog_growth(flat)) < 0.05
