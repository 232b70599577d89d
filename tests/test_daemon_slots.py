"""Multi-slot daemon tests: parallel dispatch, cross-slot preemption,
group-commit, and concurrent crash recovery.

``test_service.py`` pins the PR 7 single-slot semantics; this file
covers what changes when the daemon owns N execution slots — slot
assignment in the journal, Chimera's cheapest-victim cost ordering
across slots, drain quiescing every slot, per-slot watchdogs and
``hang-worker@slot`` targeting, the ``crash-inflight@K`` fault, and the
kill-at-every-journal-boundary sweep with K jobs simultaneously in
flight.

Thread-mode slots (``use_processes=False``) keep the monkeypatched
executor visible to workers; one test at the bottom exercises the real
forked worker processes end to end.
"""

from __future__ import annotations

import json
import threading
import time
import types
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.harness import faults
from repro.harness.cache import ResultCache
from repro.harness.sweep import RunSpec
from repro.service import (
    JobState,
    JobTable,
    JournalStore,
    SchedulerDaemon,
    ServiceClient,
)


@pytest.fixture(autouse=True)
def _clean_fault_state():
    faults.clear()
    yield
    faults.clear()


def _spec(seed):
    return RunSpec.periodic("BS", "drain", periods=2, seed=seed)


_QOS = {"preemptions": 0, "violations": 0, "escalations": 0, "aborted": 0,
        "worst_budget_ratio": 0.0, "calibration": {}}


def _gated_executor(gates=None):
    """``execute_timed`` stand-in: instant, but blocks on
    ``gates[spec.seed]`` when a gate is registered for that seed."""
    gates = gates or {}
    calls = []

    def run(spec):
        calls.append(spec)
        gate = gates.get(spec.seed)
        if gate is not None:
            assert gate.wait(timeout=30.0), "gate never opened"
        return types.SimpleNamespace(qos=dict(_QOS)), 0.001

    run.calls = calls
    return run


def _daemon(tmp_path, monkeypatch, executor, workers=2, **kwargs):
    kwargs.setdefault("capacity", 16)
    kwargs.setdefault("heartbeat_s", 30.0)
    kwargs.setdefault("poll_s", 0.0)
    kwargs.setdefault("use_processes", False)
    kwargs.setdefault("cache", ResultCache(tmp_path / "cache",
                                           enabled=False))
    if executor is not None:
        monkeypatch.setattr("repro.service.daemon.execute_timed", executor)
    return SchedulerDaemon(tmp_path / "svc", workers=workers, **kwargs)


def _tick_until(daemon, predicate, what, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        daemon.tick()


def _wait(predicate, what, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.001)


def _slot_of(daemon, job_id):
    for run in daemon.slots:
        if run is not None and run.job.job_id == job_id:
            return run
    return None


class TestConcurrentDispatch:
    def test_fills_every_slot_and_journals_the_assignment(
            self, tmp_path, monkeypatch):
        gates = {11: threading.Event(), 21: threading.Event()}
        daemon = _daemon(tmp_path, monkeypatch, _gated_executor(gates))
        client = ServiceClient(tmp_path / "svc")
        client.submit([_spec(11), _spec(12)], job_id="a")
        client.submit([_spec(21), _spec(22)], job_id="b")
        try:
            _tick_until(daemon,
                        lambda: all(r is not None for r in daemon.slots),
                        "both slots busy")
            assert daemon.slots[0].job.job_id == "a"
            assert daemon.slots[1].job.job_id == "b"
            assert daemon.table.jobs["a"].slot == 0
            assert daemon.table.jobs["b"].slot == 1
            for gate in gates.values():
                gate.set()
            daemon.run_until_idle()
        finally:
            daemon.shutdown()
        records = JournalStore(tmp_path / "svc").replay()
        running = {r["job"]: r["payload"]["slot"] for r in records
                   if r.get("to") == "running"}
        assert running == {"a": 0, "b": 1}
        assert client.status()["counts"] == {"completed": 2}

    def test_workers_1_keeps_single_slot_semantics(self, tmp_path,
                                                   monkeypatch):
        daemon = _daemon(tmp_path, monkeypatch, _gated_executor(),
                         workers=1)
        client = ServiceClient(tmp_path / "svc")
        client.submit([_spec(31)], job_id="solo")
        try:
            assert len(daemon.slots) == 1
            daemon.run_until_idle()
            assert daemon.running is None
        finally:
            daemon.shutdown()
        assert client.status()["counts"] == {"completed": 1}


class TestCrossSlotPreemption:
    def test_strongest_challengers_take_cheapest_victims(
            self, tmp_path, monkeypatch):
        """Greedy pairing: lowest-priority victim yields to the
        strongest waiting job, next-lowest to the next."""
        gates = {111: threading.Event(), 211: threading.Event()}
        daemon = _daemon(tmp_path, monkeypatch, _gated_executor(gates))
        client = ServiceClient(tmp_path / "svc")
        client.submit([_spec(111), _spec(112)], priority=0, job_id="a")
        client.submit([_spec(211), _spec(212)], priority=3, job_id="b")
        try:
            _tick_until(daemon,
                        lambda: all(r is not None for r in daemon.slots),
                        "both slots busy")
            run_a, run_b = _slot_of(daemon, "a"), _slot_of(daemon, "b")
            client.submit([_spec(311)], priority=5, job_id="c1")
            client.submit([_spec(321)], priority=4, job_id="c2")
            _tick_until(daemon,
                        lambda: run_a.preempt.is_set()
                        and run_b.preempt.is_set(),
                        "both victims preempted")
            assert run_a.preempted_by == "c1"
            assert run_b.preempted_by == "c2"
            for gate in gates.values():
                gate.set()
            daemon.run_until_idle()
        finally:
            daemon.shutdown()
        st = client.status()
        assert st["counts"] == {"completed": 4}
        records = JournalStore(tmp_path / "svc").replay()
        preempted = {r["job"]: r["payload"] for r in records
                     if r.get("to") == "preempted"}
        assert preempted["a"]["by"] == "c1"
        assert preempted["b"]["by"] == "c2"
        assert preempted["a"]["reason"] == "priority"

    def test_equal_priority_prefers_least_unmerged_work(
            self, tmp_path, monkeypatch):
        """Chimera's cheapest-victim cost: with priorities tied, the
        slot with the least completed-but-unmerged work yields."""
        gates = {102: threading.Event(), 201: threading.Event()}
        execu = _gated_executor(gates)
        daemon = _daemon(tmp_path, monkeypatch, execu)
        client = ServiceClient(tmp_path / "svc")
        # "a" finishes spec 0 then blocks (1 unmerged part);
        # "b" blocks inside spec 0 (0 unmerged parts) -> cheaper victim.
        client.submit([_spec(101), _spec(102)], priority=0, job_id="a")
        client.submit([_spec(201), _spec(202)], priority=0, job_id="b")
        try:
            _tick_until(daemon,
                        lambda: all(r is not None for r in daemon.slots),
                        "both slots busy")
            run_a, run_b = _slot_of(daemon, "a"), _slot_of(daemon, "b")
            _wait(lambda: run_a.completed == 1
                  and any(s.seed == 201 for s in execu.calls),
                  "a past its first boundary, b inside its first spec")
            client.submit([_spec(301)], priority=5, job_id="hi")
            _tick_until(daemon, lambda: run_b.preempt.is_set(),
                        "cheapest victim preempted")
            assert not run_a.preempt.is_set()
            assert run_b.preempted_by == "hi"
            for gate in gates.values():
                gate.set()
            daemon.run_until_idle()
        finally:
            daemon.shutdown()
        assert client.status()["counts"] == {"completed": 3}

    def test_free_slot_means_no_preemption(self, tmp_path, monkeypatch):
        gates = {401: threading.Event()}
        daemon = _daemon(tmp_path, monkeypatch, _gated_executor(gates))
        client = ServiceClient(tmp_path / "svc")
        client.submit([_spec(401), _spec(402)], priority=0, job_id="lo")
        try:
            _tick_until(daemon, lambda: _slot_of(daemon, "lo") is not None,
                        "lo running")
            run_lo = _slot_of(daemon, "lo")
            client.submit([_spec(411)], priority=9, job_id="hi")
            _tick_until(daemon, lambda: _slot_of(daemon, "hi") is not None,
                        "hi dispatched to the free slot")
            assert not run_lo.preempt.is_set()
            gates[401].set()
            daemon.run_until_idle()
        finally:
            daemon.shutdown()
        assert client.status()["counts"] == {"completed": 2}


class TestDrainAndWatchdog:
    def test_drain_quiesces_every_slot_then_restart_completes(
            self, tmp_path, monkeypatch):
        gates = {501: threading.Event(), 601: threading.Event()}
        execu = _gated_executor(gates)
        daemon = _daemon(tmp_path, monkeypatch, execu)
        client = ServiceClient(tmp_path / "svc")
        client.submit([_spec(501), _spec(502)], job_id="a")
        client.submit([_spec(601), _spec(602)], job_id="b")
        try:
            _tick_until(daemon,
                        lambda: all(r is not None for r in daemon.slots),
                        "both slots busy")
            _wait(lambda: len(execu.calls) == 2, "both workers in spec 0")
            daemon.request_drain()
            assert all(r.preempt.is_set() for r in daemon.slots
                       if r is not None)
            for gate in gates.values():
                gate.set()
            _tick_until(daemon, lambda: not daemon._busy(),
                        "all slots quiesced")
        finally:
            daemon.shutdown()
        table = JobTable.from_records(
            JournalStore(tmp_path / "svc").replay())
        assert {j.state for j in table.iter_jobs()} == {JobState.PREEMPTED}
        assert all(j.completed == 1 for j in table.iter_jobs())
        # Restart resumes both from their checkpoints.
        daemon2 = _daemon(tmp_path, monkeypatch, execu)
        try:
            daemon2.run_until_idle()
        finally:
            daemon2.shutdown()
        st = client.status()
        assert st["counts"] == {"completed": 2}
        for job_id in ("a", "b"):
            result = json.loads(
                (tmp_path / "svc" / "results" / f"{job_id}.json").read_text())
            assert [p["index"] for p in result["specs"]] == [0, 1]

    def test_watchdog_is_per_slot(self, tmp_path, monkeypatch):
        """``hang-worker@1`` wedges only slot 1; slot 0's job completes
        while the watchdog fails the hung one."""
        monkeypatch.setenv("CHIMERA_FAULT_HANG_S", "3.0")
        faults.install("hang-worker@1")
        daemon = _daemon(tmp_path, monkeypatch, _gated_executor(),
                         heartbeat_s=0.2)
        client = ServiceClient(tmp_path / "svc")
        client.submit([_spec(701)], job_id="a")
        client.submit([_spec(702)], job_id="b")
        try:
            _tick_until(daemon,
                        lambda: daemon.table.jobs.get("a") is not None
                        and daemon.table.jobs["a"].state is JobState.COMPLETED
                        and daemon.table.jobs["b"].state is JobState.FAILED,
                        "slot 0 completed, slot 1 failed by watchdog")
            assert daemon.table.jobs["b"].slot == 1
            assert daemon.table.jobs["b"].detail == {
                "reason": "heartbeat-lost"}
            assert all(r is None for r in daemon.slots)
        finally:
            daemon.shutdown()


class TestGroupCommit:
    def test_one_fsync_per_dirty_tick(self, tmp_path, monkeypatch):
        daemon = _daemon(tmp_path, monkeypatch, _gated_executor(),
                         workers=1)
        client = ServiceClient(tmp_path / "svc")
        for i in range(3):
            client.submit([_spec(810 + i), _spec(820 + i)], job_id=f"j{i}")
        try:
            daemon.run_until_idle()
            fsyncs = daemon.store.fsyncs
            records = len(JournalStore(tmp_path / "svc").replay())
            # 13 records (1 meta + 4 per job) but far fewer fsyncs: the
            # batched appends of each tick share one.
            assert records == 13
            assert 0 < fsyncs < records
            # An idle tick appends nothing and must not fsync.
            daemon.tick()
            assert daemon.store.fsyncs == fsyncs
        finally:
            daemon.shutdown()
        assert client.status()["counts"] == {"completed": 3}

    def test_workers_signal_the_wake_event(self, tmp_path, monkeypatch):
        """A worker's outcome rings the doorbell the loop sleeps on."""
        gates = {901: threading.Event()}
        daemon = _daemon(tmp_path, monkeypatch, _gated_executor(gates),
                         workers=1)
        client = ServiceClient(tmp_path / "svc")
        client.submit([_spec(901)], job_id="a")
        try:
            _tick_until(daemon, lambda: daemon.running is not None,
                        "job dispatched")
            daemon._await_ring(0.0)  # empty the pipe
            assert not daemon._await_ring(0.05), "rang before the outcome"
            gates[901].set()
            assert daemon._await_ring(5.0), \
                "worker outcome did not ring the doorbell"
            daemon.run_until_idle()
        finally:
            daemon.shutdown()
        assert client.status()["counts"] == {"completed": 1}


class TestCrashInflight:
    def test_requeues_every_in_flight_job_exactly_once(
            self, tmp_path, monkeypatch):
        """``crash-inflight@2``: die at the first journal append made
        with exactly two jobs in dispatch states. Thread starts are
        deferred past the group commit, so nothing has executed; the
        restart re-queues both and every spec runs exactly once."""
        execu = _gated_executor()
        svc = tmp_path / "svc"
        client = ServiceClient(svc)
        client.submit([_spec(61), _spec(62)], job_id="a")
        client.submit([_spec(63), _spec(64)], job_id="b")
        daemon = _daemon(tmp_path, monkeypatch, execu)
        with pytest.raises(faults.InjectedCrash) as crash:
            with faults.injected("crash-inflight@2"):
                try:
                    daemon.run_until_idle()
                finally:
                    daemon.shutdown()
        assert crash.value.kind == "crash-inflight"
        assert execu.calls == [], \
            "no spec may run before its dispatch record is committed"
        faults.clear()
        daemon2 = _daemon(tmp_path, monkeypatch, execu)
        try:
            daemon2.run_until_idle()
        finally:
            daemon2.shutdown()
        st = client.status()
        assert st["counts"] == {"completed": 2}
        assert {row["job_id"]: row["requeues"] for row in st["jobs"]} \
            == {"a": 1, "b": 1}
        # zero lost, zero duplicated: each of the 4 specs ran once
        assert sorted(s.seed for s in execu.calls) == [61, 62, 63, 64]


class TestKInflightCrashSweep:
    """The satellite acceptance property: kill -9 at *every* journal
    boundary with K jobs simultaneously in flight (K slots, K jobs)."""

    def _jobs(self, k):
        return [(f"j{i}", (_spec(100 + 10 * i), _spec(101 + 10 * i)))
                for i in range(k)]

    def _run(self, svc, monkeypatch, k, submit):
        client = ServiceClient(svc)
        if submit:
            for job_id, specs in self._jobs(k):
                client.submit(list(specs), job_id=job_id)
        monkeypatch.setattr("repro.service.daemon.execute_timed",
                            _gated_executor())
        daemon = SchedulerDaemon(svc, capacity=16, heartbeat_s=30.0,
                                 poll_s=0.0, workers=k,
                                 use_processes=False,
                                 cache=ResultCache(svc / "cache",
                                                   enabled=False))
        try:
            daemon.run_until_idle()
        finally:
            daemon.shutdown()
        return client

    def _assert_recovered(self, svc, client, k):
        st = client.status()
        assert st["counts"] == {"completed": k}
        assert st["qos"]["consistent"]
        records = JournalStore(svc).replay()
        table = JobTable.from_records(records)
        for job_id, specs in self._jobs(k):
            terminals = [r for r in records if r.get("job") == job_id
                         and r.get("to") in ("completed", "killed",
                                             "failed")]
            assert len(terminals) == 1 and terminals[0]["to"] == "completed"
            result = json.loads(
                (svc / "results" / f"{job_id}.json").read_text())
            # zero lost / duplicated specs
            assert [p["index"] for p in result["specs"]] \
                == list(range(len(specs)))
            # per-job restart counts match the journal scars
            scars = [r for r in records if r.get("job") == job_id
                     and r.get("to") == "queued"
                     and (r.get("payload") or {}).get("reason")
                     == "crash-recovery"]
            assert table.jobs[job_id].requeues == len(scars)

    @pytest.mark.parametrize("kind", ["crash-before-commit",
                                      "crash-after-commit",
                                      "torn-journal"])
    @pytest.mark.parametrize("k", [2, 4])
    def test_kill_at_every_boundary_with_k_in_flight(
            self, tmp_path, monkeypatch, kind, k):
        clean = tmp_path / "clean"
        client = self._run(clean, monkeypatch, k, submit=True)
        boundaries = len(JournalStore(clean).replay())
        # Interleaving-invariant: 1 daemon-start meta + 4 records per
        # job, whatever order the K slots finish in.
        assert boundaries == 1 + 4 * k
        self._assert_recovered(clean, client, k)
        for seq in range(boundaries + 1):
            svc = tmp_path / f"{kind}-{seq}"
            crashed = False
            try:
                with faults.injected(f"{kind}@{seq}"):
                    client = self._run(svc, monkeypatch, k, submit=True)
            except faults.InjectedCrash as crash:
                crashed = True
                assert crash.kind == kind and crash.seq == seq
                client = ServiceClient(svc)
            faults.clear()
            if crashed:
                client = self._run(svc, monkeypatch, k, submit=False)
                assert client.status()["restarts"] >= 1
            self._assert_recovered(svc, client, k)


class TestConfigAndStatus:
    def test_workers_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigError):
            SchedulerDaemon(tmp_path / "svc", workers=0)

    def test_status_reports_per_slot_occupancy(self, tmp_path,
                                               monkeypatch):
        gates = {941: threading.Event(), 951: threading.Event()}
        daemon = _daemon(tmp_path, monkeypatch, _gated_executor(gates))
        client = ServiceClient(tmp_path / "svc")
        client.submit([_spec(941), _spec(942)], job_id="a")
        client.submit([_spec(951), _spec(952)], job_id="b")
        try:
            _tick_until(daemon,
                        lambda: all(r is not None for r in daemon.slots),
                        "both slots busy")
            daemon.tick()
            daemon._publish_beacon()  # the occupancy, now
            st = client.status()
            assert st["workers"] == 2
            assert [s["slot"] for s in st["slots"]] == [0, 1]
            busy = {s["job_id"]: s for s in st["slots"]}
            assert set(busy) == {"a", "b"}
            for entry in busy.values():
                assert entry["checkpoint"] == 0
                assert entry["specs"] == 2
                assert entry["heartbeat_age_s"] >= 0.0
            for row in st["jobs"]:
                assert row["requeues"] == 0
                assert row["slot"] in (0, 1)
            for gate in gates.values():
                gate.set()
            daemon.run_until_idle()
            daemon.tick()
            daemon._publish_beacon()
            st = client.status()
            assert all(s["job_id"] is None for s in st["slots"])
        finally:
            daemon.shutdown()


@pytest.mark.slow
class TestProcessPool:
    def test_forked_pool_executes_real_specs(self, tmp_path):
        daemon = SchedulerDaemon(
            tmp_path / "svc", capacity=8, heartbeat_s=120.0, poll_s=0.0,
            workers=2,
            cache=ResultCache(tmp_path / "cache", enabled=True))
        client = ServiceClient(tmp_path / "svc")
        client.submit([_spec(31)], job_id="a")
        client.submit([_spec(32)], job_id="b")
        try:
            assert daemon.use_processes
            daemon.run_until_idle(timeout_s=180.0)
            assert len(daemon._executor._workers) == 2
        finally:
            daemon.shutdown()
        st = client.status()
        assert st["counts"] == {"completed": 2}
        for job_id in ("a", "b"):
            result = json.loads(
                (tmp_path / "svc" / "results" / f"{job_id}.json").read_text())
            assert result["specs"][0]["duration_s"] >= 0
