"""Scheduling-daemon tests: lifecycle, journal, admission, recovery.

The acceptance property of the service layer is proven here the hard
way: a clean run's journal is measured, then the daemon is killed (via
injected ``InjectedCrash``) at *every* journal boundary — before the
commit, after the commit, and mid-write (torn record) — and each time a
fresh daemon must recover to a consistent store and drain every
surviving job to completion with the QoS ledger reconciling against the
journal. No job lost, none executed twice (at most one terminal
transition per job, enforced by replay).

Most daemon tests monkeypatch ``repro.service.daemon.execute_timed``
with a controllable fake, so preemption/cancel/drain timing is
deterministic rather than racing the real simulator; the end-to-end
subprocess test at the bottom runs real specs through the real
``chimera serve``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

from repro.errors import (
    AdmissionError,
    ConfigError,
    JobStateError,
    ServiceError,
    StoreError,
)
from repro.harness import faults
from repro.harness.cache import ResultCache
from repro.harness.sweep import RunSpec
from repro.service import (
    AdmissionQueue,
    Job,
    JobState,
    JobTable,
    JournalStore,
    SchedulerDaemon,
    ServiceClient,
    reconcile_qos,
)
from repro.service.daemon import default_service_dir
from repro.service.state import TRANSITIONS, is_terminal, validate_transition
from repro.service.store import read_journal, spec_from_dict, spec_to_dict
from repro.workloads.multiprogram import MultiprogramWorkload


@pytest.fixture(autouse=True)
def _clean_fault_state():
    faults.clear()
    yield
    faults.clear()


def _spec(label="BS", seed=7, policy="drain"):
    return RunSpec.periodic(label, policy, periods=2, seed=seed)


def _fake_executor(qos=None, block_on=None, fail_index=None):
    """A stand-in for ``execute_timed``: instant, deterministic, and
    optionally blocking on an event keyed by call order."""
    calls = []

    def run(spec):
        index = len(calls)
        calls.append(spec)
        if block_on is not None:
            block_on.wait(timeout=30.0)
        if fail_index is not None and index == fail_index:
            raise ValueError("injected spec failure")
        result = types.SimpleNamespace(
            qos=dict(qos or {"preemptions": 1, "violations": 0,
                             "escalations": 0, "aborted": 0,
                             "worst_budget_ratio": 0.5,
                             "calibration": {}}))
        return result, 0.001

    run.calls = calls
    return run


def _daemon(tmp_path, monkeypatch=None, executor=None, **kwargs):
    kwargs.setdefault("capacity", 8)
    kwargs.setdefault("heartbeat_s", 30.0)
    kwargs.setdefault("poll_s", 0.0)
    # These tests pin the PR 7 single-slot semantics; multi-slot
    # behavior is covered by test_daemon_slots.py.
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("cache", ResultCache(tmp_path / "cache",
                                           enabled=False))
    if executor is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("repro.service.daemon.execute_timed", executor)
    return SchedulerDaemon(tmp_path / "svc", **kwargs)


def _tick_until(daemon, predicate, what, timeout_s=30.0):
    """Tick the daemon until ``predicate()`` holds (bounded)."""
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        daemon.tick()


class TestStateMachine:
    def test_happy_path_walk(self):
        job = Job(job_id="j", specs=(_spec(),))
        for state in (JobState.ADMITTED, JobState.RUNNING,
                      JobState.PREEMPTED, JobState.RESUMED,
                      JobState.COMPLETED):
            job.advance(state)
        assert is_terminal(job.state)

    def test_creation_must_be_queued(self):
        with pytest.raises(JobStateError):
            validate_transition("j", None, JobState.RUNNING)
        validate_transition("j", None, JobState.QUEUED)

    def test_illegal_edges_raise(self):
        with pytest.raises(JobStateError) as excinfo:
            validate_transition("j", JobState.QUEUED, JobState.COMPLETED)
        assert excinfo.value.from_state is JobState.QUEUED
        assert excinfo.value.to_state is JobState.COMPLETED
        with pytest.raises(JobStateError):
            validate_transition("j", JobState.QUEUED, JobState.RUNNING)

    def test_terminal_states_have_no_exits(self):
        for state in (JobState.COMPLETED, JobState.KILLED, JobState.FAILED):
            assert TRANSITIONS[state] == frozenset()
            for target in JobState:
                with pytest.raises(JobStateError):
                    validate_transition("j", state, target)

    def test_every_state_is_reachable(self):
        reached = {JobState.QUEUED}
        frontier = [JobState.QUEUED]
        while frontier:
            for nxt in TRANSITIONS[frontier.pop()]:
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        assert reached == set(JobState)


class TestSpecSerialization:
    def test_periodic_spec_roundtrips(self):
        spec = _spec()
        again = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert again == spec
        assert again.cache_key() == spec.cache_key()

    def test_pair_spec_roundtrips(self):
        workload = MultiprogramWorkload(("LUD", "MUM"), budget_insts=8e6)
        spec = RunSpec.pair(workload, "chimera", seed=3)
        again = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert again == spec
        assert again.cache_key() == spec.cache_key()

    def test_malformed_spec_dict_raises_store_error(self):
        with pytest.raises(StoreError):
            spec_from_dict({"kind": "periodic", "nonsense": True})


class TestJournalStore:
    def _open(self, tmp_path):
        store = JournalStore(tmp_path / "svc")
        store.open()
        return store

    def test_roundtrip_and_sequence(self, tmp_path):
        store = self._open(tmp_path)
        store.append_meta("daemon-start", pid=1)
        store.append_transition("j", None, JobState.QUEUED,
                                {"specs": [spec_to_dict(_spec())],
                                 "priority": 2})
        store.close()
        records = JournalStore(tmp_path / "svc").replay()
        assert [r["seq"] for r in records] == [0, 1]
        assert records[0]["type"] == "meta"
        assert records[1]["to"] == "queued"
        table = JobTable.from_records(records)
        assert table.jobs["j"].priority == 2

    def test_torn_tail_truncated_on_open(self, tmp_path):
        store = self._open(tmp_path)
        store.append_meta("daemon-start", pid=1)
        store.append_meta("drain")
        store.close()
        path = store.path
        whole = path.read_bytes()
        path.write_bytes(whole[:-20])  # tear the last record
        # read-only replay tolerates (and does not repair) the tear
        assert len(JournalStore(tmp_path / "svc").replay()) == 1
        assert path.read_bytes() == whole[:-20]
        # opening repairs: the torn tail is gone, appends continue at 1
        reopened = JournalStore(tmp_path / "svc")
        assert len(reopened.open()) == 1
        assert reopened.next_seq == 1
        reopened.append_meta("daemon-start", pid=2)
        reopened.close()
        records = JournalStore(tmp_path / "svc").replay()
        assert [r["seq"] for r in records] == [0, 1]

    def test_unterminated_final_record_is_torn(self, tmp_path):
        # A record exists once its newline is written: cut only the
        # final newline and the last record still decodes, but the
        # append that wrote it never returned, so it is torn.
        store = self._open(tmp_path)
        store.append_meta("daemon-start", pid=1)
        store.append_transition("a", None, JobState.QUEUED,
                                {"specs": [spec_to_dict(_spec())],
                                 "priority": 0})
        store.close()
        whole = store.path.read_bytes()
        store.path.write_bytes(whole[:-1])
        assert len(JournalStore(tmp_path / "svc").replay()) == 1
        reopened = JournalStore(tmp_path / "svc")
        assert len(reopened.open()) == 1
        assert store.path.read_bytes() == whole[:whole.index(b"\n") + 1]
        # The next append lands on a line of its own, not on the tail.
        reopened.append_meta("daemon-start", pid=2)
        reopened.close()
        records = JournalStore(tmp_path / "svc").replay()
        assert [r["seq"] for r in records] == [0, 1]
        assert records[1]["payload"] == {"pid": 2}
        assert "a" not in JobTable.from_records(records).jobs

    def test_midfile_corruption_refuses(self, tmp_path):
        store = self._open(tmp_path)
        store.append_meta("daemon-start", pid=1)
        store.append_meta("drain")
        store.close()
        lines = store.path.read_bytes().splitlines(keepends=True)
        lines[0] = b'{"garbage": true}\n'
        store.path.write_bytes(b"".join(lines))
        with pytest.raises(StoreError):
            JournalStore(tmp_path / "svc").replay()

    def test_checksum_damage_detected(self, tmp_path):
        store = self._open(tmp_path)
        store.append_meta("daemon-start", pid=1)
        store.close()
        data = store.path.read_bytes().replace(b'"daemon-start"',
                                               b'"daemon-smart"')
        store.path.write_bytes(data)
        # tail damage -> tolerated as torn; the record is dropped
        assert JournalStore(tmp_path / "svc").replay() == []

    def test_sequence_gap_refuses(self, tmp_path):
        store = self._open(tmp_path)
        store.append_meta("a")
        store.close()
        # duplicate the only record: second copy repeats seq 0
        store.path.write_bytes(store.path.read_bytes() * 2)
        with pytest.raises(StoreError):
            JournalStore(tmp_path / "svc").replay()

    def test_replay_rejects_double_terminal(self, tmp_path):
        records = [
            {"type": "transition", "seq": 0, "job": "j", "from": None,
             "to": "queued",
             "payload": {"specs": [spec_to_dict(_spec())], "priority": 0}},
            {"type": "transition", "seq": 1, "job": "j", "from": "queued",
             "to": "killed", "payload": {}},
            {"type": "transition", "seq": 2, "job": "j", "from": "killed",
             "to": "killed", "payload": {}},
        ]
        with pytest.raises(StoreError):
            JobTable.from_records(records)

    def test_replay_rejects_unknown_job_edge(self, tmp_path):
        with pytest.raises(StoreError):
            JobTable.from_records([
                {"type": "transition", "seq": 0, "job": "ghost",
                 "from": "queued", "to": "admitted", "payload": {}}])


class TestAdmissionQueue:
    def _job(self, job_id, priority=0, seq=0):
        return Job(job_id=job_id, specs=(_spec(),), priority=priority,
                   submit_seq=seq)

    def test_priority_then_fifo_order(self):
        queue = AdmissionQueue(capacity=8)
        for i, (jid, prio) in enumerate([("a", 0), ("b", 5), ("c", 5),
                                         ("d", 1)]):
            queue.push(self._job(jid, prio, seq=i))
        assert [queue.pop().job_id for _ in range(4)] == \
            ["b", "c", "d", "a"]

    def test_capacity_backpressure(self):
        queue = AdmissionQueue(capacity=2)
        queue.push(self._job("a", seq=0))
        queue.push(self._job("b", seq=1))
        with pytest.raises(AdmissionError) as excinfo:
            queue.check_capacity("c")
        assert excinfo.value.reason == "capacity"
        assert excinfo.value.job_id == "c"
        # recovery pushes bypass the bound rather than drop state
        queue.push(self._job("c", seq=2))
        assert len(queue) == 3

    def test_remove_by_id(self):
        queue = AdmissionQueue(capacity=8)
        for i in range(3):
            queue.push(self._job(f"j{i}", priority=i, seq=i))
        assert queue.remove("j1").job_id == "j1"
        assert queue.remove("j1") is None
        assert [j.job_id for j in queue.jobs()] == ["j2", "j0"]


class TestServiceEnv:
    def test_service_dir_env(self, monkeypatch):
        monkeypatch.delenv("CHIMERA_SERVICE_DIR", raising=False)
        assert default_service_dir() == ".chimera-service"
        monkeypatch.setenv("CHIMERA_SERVICE_DIR", "/tmp/x")
        assert default_service_dir() == "/tmp/x"


class TestDaemonLifecycle:
    def test_submit_runs_to_completion(self, tmp_path, monkeypatch):
        executor = _fake_executor()
        daemon = _daemon(tmp_path, monkeypatch, executor)
        client = ServiceClient(tmp_path / "svc")
        job_id = client.submit([_spec(), _spec(seed=8)], priority=1,
                               job_id="batch")
        daemon.run_until_idle()
        daemon.shutdown()
        assert client.job_state(job_id) == "completed"
        result = client.result(job_id)
        assert len(result["specs"]) == 2
        # per-spec ledgers folded into the job ledger
        assert result["qos"]["preemptions"] == 2
        assert result["qos"]["worst_budget_ratio"] == 0.5
        rec = reconcile_qos(tmp_path / "svc")
        assert rec["consistent"] and rec["completed_jobs"] == 1
        assert rec["totals"]["preemptions"] == 2

    def test_empty_and_duplicate_submissions_rejected(self, tmp_path,
                                                      monkeypatch):
        daemon = _daemon(tmp_path, monkeypatch, _fake_executor())
        client = ServiceClient(tmp_path / "svc")
        with pytest.raises(AdmissionError):
            client.submit([], job_id="empty")
        client.submit([_spec()], job_id="dup")
        with pytest.raises(AdmissionError) as excinfo:
            client.submit([_spec()], job_id="dup")
        assert excinfo.value.reason == "duplicate"
        daemon.run_until_idle()
        with pytest.raises(AdmissionError):
            client.submit([_spec()], job_id="dup")  # journaled now
        daemon.shutdown()

    def test_invalid_submission_gets_rejection_record(self, tmp_path,
                                                      monkeypatch):
        daemon = _daemon(tmp_path, monkeypatch, _fake_executor())
        daemon.start()
        (daemon.spool_dir / "broken.json").write_text("{not json")
        daemon.run_until_idle()
        daemon.shutdown()
        client = ServiceClient(tmp_path / "svc")
        assert client.job_state("broken") == "rejected"
        assert client.rejection("broken")["reason"] == "invalid-spec"

    def test_capacity_backpressure_rejects_with_reason(self, tmp_path,
                                                       monkeypatch):
        # capacity 1 and a worker blocked: the second submission queues,
        # the third is rejected.
        gate = threading.Event()
        daemon = _daemon(tmp_path, monkeypatch,
                         _fake_executor(block_on=gate), capacity=1)
        client = ServiceClient(tmp_path / "svc")
        client.submit([_spec()], job_id="first")
        daemon.start()
        _tick_until(daemon, lambda: daemon.running is not None,
                    "first job to dispatch")
        client.submit([_spec(seed=8)], job_id="second")
        client.submit([_spec(seed=9)], job_id="third")
        _tick_until(daemon, lambda: client.job_state("third") == "rejected",
                    "capacity rejection")
        rejection = client.rejection("third")
        assert rejection["reason"] == "capacity"
        gate.set()
        daemon.run_until_idle()
        daemon.shutdown()
        assert client.job_state("first") == "completed"
        assert client.job_state("second") == "completed"

    def test_priority_preemption_checkpoints_and_resumes(self, tmp_path,
                                                         monkeypatch):
        gate = threading.Event()
        executor = _fake_executor(block_on=gate)
        daemon = _daemon(tmp_path, monkeypatch, executor)
        client = ServiceClient(tmp_path / "svc")
        client.submit([_spec(), _spec(seed=8)], priority=0, job_id="low")
        daemon.start()
        _tick_until(daemon, lambda: daemon.running is not None,
                    "low to dispatch")      # low blocked in spec 0
        client.submit([_spec(seed=9)], priority=5, job_id="high")
        _tick_until(daemon, lambda: daemon.running.preempt.is_set(),
                    "preemption request")   # admit high, request preempt
        gate.set()                          # low yields at the boundary
        daemon.run_until_idle()
        daemon.shutdown()
        assert client.job_state("low") == "completed"
        assert client.job_state("high") == "completed"
        edges = [(r.get("from"), r.get("to"))
                 for r in JournalStore(tmp_path / "svc").replay()
                 if r.get("job") == "low"]
        assert ("running", "preempted") in edges
        assert ("preempted", "resumed") in edges
        # the checkpoint rode on the PREEMPTED record: spec 0 was done
        preempted = [r for r in JournalStore(tmp_path / "svc").replay()
                     if r.get("job") == "low"
                     and r.get("to") == "preempted"]
        assert preempted[0]["payload"]["completed"] == 1
        # high ran before low's remaining spec: preemption actually won
        assert [s.seed for s in executor.calls] == [7, 9, 8]

    def test_cancel_queued_and_running(self, tmp_path, monkeypatch):
        gate = threading.Event()
        daemon = _daemon(tmp_path, monkeypatch,
                         _fake_executor(block_on=gate))
        client = ServiceClient(tmp_path / "svc")
        # two specs: the cancel lands while spec 0 is in flight and the
        # worker acknowledges it at the next spec boundary
        client.submit([_spec(), _spec(seed=6)], job_id="running",
                      priority=5)
        client.submit([_spec(seed=8)], job_id="waiting", priority=0)
        daemon.start()
        _tick_until(daemon, lambda: daemon.running is not None,
                    "running to dispatch")
        assert client.cancel("waiting") is True
        assert client.cancel("running") is True
        assert client.cancel("ghost") is False
        _tick_until(daemon, lambda: client.job_state("waiting") == "killed",
                    "queued cancel")
        gate.set()
        daemon.run_until_idle()
        daemon.shutdown()
        assert client.job_state("running") == "killed"
        assert client.cancel("running") is False  # already terminal
        # the checkpoint rode on the KILLED record: spec 0 had finished
        table = JobTable.from_records(
            JournalStore(tmp_path / "svc").replay())
        assert table.jobs["running"].completed == 1
        # no cancel markers left behind
        assert not list((tmp_path / "svc" / "spool").glob("*.cancel"))

    def test_failed_spec_fails_the_job(self, tmp_path, monkeypatch):
        daemon = _daemon(tmp_path, monkeypatch,
                         _fake_executor(fail_index=1))
        client = ServiceClient(tmp_path / "svc")
        client.submit([_spec(), _spec(seed=8)], job_id="doomed")
        daemon.run_until_idle()
        daemon.shutdown()
        assert client.job_state("doomed") == "failed"
        table = JobTable.from_records(
            JournalStore(tmp_path / "svc").replay())
        assert "injected spec failure" in table.jobs["doomed"].detail["error"]

    def test_hang_worker_trips_watchdog(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHIMERA_FAULT_HANG_S", "30")
        faults.install("hang-worker@0")
        daemon = _daemon(tmp_path, monkeypatch, _fake_executor(),
                         heartbeat_s=0.05)
        client = ServiceClient(tmp_path / "svc")
        client.submit([_spec()], job_id="wedged")
        daemon.run_until_idle()
        daemon.shutdown()
        assert client.job_state("wedged") == "failed"
        table = JobTable.from_records(
            JournalStore(tmp_path / "svc").replay())
        assert table.jobs["wedged"].detail["reason"] == "heartbeat-lost"

    def test_drain_checkpoints_and_restart_resumes(self, tmp_path,
                                                   monkeypatch):
        gate = threading.Event()
        executor = _fake_executor(block_on=gate)
        daemon = _daemon(tmp_path, monkeypatch, executor)
        client = ServiceClient(tmp_path / "svc")
        client.submit([_spec(), _spec(seed=8)], job_id="long")
        client.submit([_spec(seed=9)], job_id="queued-behind")
        daemon.start()
        _tick_until(daemon, lambda: daemon.running is not None,
                    "long to dispatch")
        client.drain()
        # Let a tick see the drain file before spec 0 finishes: once the
        # gate opens, spec 1 would otherwise race the first tick.
        daemon.tick()
        gate.set()
        daemon.serve(idle_exit_s=0.0)  # exits once the drain completes
        assert client.job_state("long") == "preempted"
        assert client.job_state("queued-behind") == "queued"
        # restart without the drain marker: both jobs finish, and the
        # resumed job continues from its checkpoint (spec 0 not re-run).
        calls_before = len(executor.calls)
        daemon2 = _daemon(tmp_path, monkeypatch, executor)
        daemon2.run_until_idle()
        daemon2.shutdown()
        assert client.job_state("long") == "completed"
        assert client.job_state("queued-behind") == "completed"
        assert len(executor.calls) == calls_before + 2  # 1 remaining + 1

    def test_second_daemon_refused_while_first_lives(self, tmp_path,
                                                     monkeypatch):
        daemon = _daemon(tmp_path, monkeypatch, _fake_executor())
        daemon.start()
        daemon.shutdown()
        # a *foreign live* pid holds the lock -> refuse
        (daemon.control_dir / "daemon.pid").write_text("999999999\n")
        monkeypatch.setattr("repro.service.daemon._pid_alive",
                            lambda pid: True)
        other = SchedulerDaemon(tmp_path / "svc", capacity=8,
                                heartbeat_s=30.0, workers=1,
                                cache=ResultCache(tmp_path / "c2",
                                                  enabled=False))
        with pytest.raises(ServiceError):
            other.start()
        # a *dead* pid is a stale lock from a kill -9: taken over
        monkeypatch.setattr("repro.service.daemon._pid_alive",
                            lambda pid: False)
        other.start()
        other.shutdown()


class TestBeacon:
    """``control/daemon.json`` is a status snapshot: the first tick after
    every start publishes it, later ticks once per BEACON_PERIOD_S."""

    def _beacon(self, daemon):
        path = daemon.control_dir / "daemon.json"
        return json.loads(path.read_text()), path.stat().st_ino

    def test_first_tick_publishes_then_once_per_period(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setattr("repro.service.daemon.BEACON_PERIOD_S", 3600.0)
        daemon = _daemon(tmp_path, monkeypatch, _fake_executor())
        for _ in range(2):  # every start resets the publish clock
            daemon.start()
            try:
                # start() leaves only the pid lock's record there
                assert "slots" not in json.loads(
                    (daemon.control_dir / "daemon.json").read_text())
                daemon.tick()
                snapshot, ino = self._beacon(daemon)
                assert snapshot["pid"] == os.getpid()
                assert snapshot["workers"] == 1
                assert [s["slot"] for s in snapshot["slots"]] == [0]
                for _ in range(2):  # checked per tick: inodes get reused
                    daemon.tick()
                    assert self._beacon(daemon)[1] == ino
                daemon._publish_beacon()
                assert self._beacon(daemon)[1] != ino
                # Once the period has passed, the next tick publishes.
                ino = self._beacon(daemon)[1]
                daemon._beacon_t -= 3600.0
                daemon.tick()
                assert self._beacon(daemon)[1] != ino
            finally:
                daemon.shutdown()
            assert not (daemon.control_dir / "daemon.json").exists()

    def test_drain_between_publishes_is_honored(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setattr("repro.service.daemon.BEACON_PERIOD_S", 3600.0)
        gate = threading.Event()
        daemon = _daemon(tmp_path, monkeypatch,
                         _fake_executor(block_on=gate))
        client = ServiceClient(tmp_path / "svc")
        client.submit([_spec(), _spec(seed=8)], job_id="long")
        try:
            _tick_until(daemon, lambda: daemon.running is not None,
                        "long to dispatch")
            snapshot, ino = self._beacon(daemon)
            assert not snapshot["draining"]
            client.drain()
            daemon.tick()
            assert daemon._draining
            assert daemon.running.preempt.is_set()
            assert self._beacon(daemon)[1] == ino
        finally:
            gate.set()
            daemon.serve(idle_exit_s=0.0)  # exits once the drain is done
        assert client.job_state("long") == "preempted"


class TestWake:
    """``control/wake`` is the daemon's doorbell: submit, cancel, drain
    and slot outcomes ring it, so a serve loop asleep for ``poll_s``
    (30 s here) answers at once. Every join and wait is bounded."""

    def _serving(self, daemon):
        """Run ``daemon.serve()`` in a thread; return it once the first
        tick is done and the loop is asleep on the doorbell."""
        server = threading.Thread(target=daemon.serve,
                                  kwargs={"max_wall_s": 60.0}, daemon=True)
        server.start()
        deadline = time.monotonic() + 10.0
        while daemon._beacon_t is None:
            assert time.monotonic() < deadline, "serve loop never ticked"
            time.sleep(0.005)
        return server

    def _stop(self, daemon, server):
        daemon.request_drain()
        server.join(10.0)
        assert not server.is_alive(), "serve loop slept through the drain"
        assert not daemon.wake_path.exists()

    def test_submit_wakes_a_sleeping_serve_loop(self, tmp_path,
                                                monkeypatch):
        daemon = _daemon(tmp_path, monkeypatch, _fake_executor(),
                         poll_s=30.0)
        client = ServiceClient(tmp_path / "svc")
        server = self._serving(daemon)
        try:
            client.submit([_spec()], job_id="late")
            assert client.wait("late", timeout_s=5.0,
                               poll_s=0.01) == "completed"
        finally:
            self._stop(daemon, server)

    @pytest.mark.parametrize("via", ["request_drain", "client"])
    def test_drain_wakes_an_idle_serve_loop(self, tmp_path, monkeypatch,
                                            via):
        daemon = _daemon(tmp_path, monkeypatch, _fake_executor(),
                         poll_s=30.0)
        server = self._serving(daemon)
        if via == "client":
            ServiceClient(tmp_path / "svc").drain()
        else:
            daemon.request_drain()
        server.join(2.0)
        assert not server.is_alive(), "idle serve loop slept through drain"
        assert not daemon.wake_path.exists()

    def test_cancel_of_a_queued_job_lands_without_the_poll(self, tmp_path,
                                                           monkeypatch):
        gate = threading.Event()
        daemon = _daemon(tmp_path, monkeypatch,
                         _fake_executor(block_on=gate), poll_s=30.0)
        client = ServiceClient(tmp_path / "svc")
        client.submit([_spec()], job_id="running", priority=5)
        client.submit([_spec(seed=8)], job_id="waiting")
        server = self._serving(daemon)
        try:
            assert client.job_state("waiting") == "queued"
            assert client.cancel("waiting") is True
            assert client.wait("waiting", timeout_s=5.0,
                               poll_s=0.01) == "killed"
        finally:
            gate.set()
            self._stop(daemon, server)

    @pytest.mark.parametrize("bell", ["absent", "no-reader", "full"])
    def test_clients_ignore_a_doorbell_nobody_answers(self, tmp_path,
                                                      monkeypatch, bell):
        svc = tmp_path / "svc"
        wake = svc / "control" / "wake"
        # A job the journal already knows, so cancel writes a marker
        # (and rings) instead of retracting a spool file.
        store = JournalStore(svc)
        store.open()
        store.append_transition("old", None, JobState.QUEUED, {
            "specs": [spec_to_dict(_spec(seed=3))], "priority": 0})
        store.close()
        held = None
        if bell != "absent":
            # What a kill -9 leaves behind: the FIFO, with no reader.
            wake.parent.mkdir(parents=True)
            os.mkfifo(wake)
        if bell == "full":
            held = os.open(wake, os.O_RDWR | os.O_NONBLOCK)
            for chunk in (b"\0" * 4096, b"\0"):
                with pytest.raises(BlockingIOError):
                    while True:
                        os.write(held, chunk)
        try:
            client = ServiceClient(svc)
            started = time.monotonic()
            client.submit([_spec()], job_id="new")
            assert client.cancel("old") is True
            client.drain()
            assert time.monotonic() - started < 2.0
            assert wake.exists() == (bell != "absent")
            # A daemon started afterwards admits the job on its first
            # tick (without the drain marker, which would refuse it).
            (svc / "control" / "drain").unlink()
            daemon = _daemon(tmp_path, monkeypatch, _fake_executor())
            try:
                daemon.tick()
                assert daemon.table.jobs["new"].state is JobState.RUNNING
                assert daemon.table.jobs["old"].state is JobState.KILLED
            finally:
                daemon.shutdown()
        finally:
            if held is not None:
                os.close(held)

    def test_rings_racing_shutdown_never_fail(self, tmp_path, monkeypatch):
        """Slot threads ring while shutdown() closes the doorbell: each
        ring lands on the open FIFO or finds it gone."""
        daemon = _daemon(tmp_path, monkeypatch, _fake_executor())
        errors, stop = [], threading.Event()

        def ring():
            try:
                while not stop.is_set():
                    daemon._ring()
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        ringers = [threading.Thread(target=ring, daemon=True)
                   for _ in range(2 * (os.cpu_count() or 1) + 2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for ringer in ringers:
                ringer.start()
            for _ in range(20):
                daemon.start()
                time.sleep(0.005)
                daemon.shutdown()
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for ringer in ringers:
                ringer.join(5.0)
        assert not any(ringer.is_alive() for ringer in ringers)
        assert errors == []

    def test_ring_inside_the_lock_does_not_deadlock(self, tmp_path,
                                                    monkeypatch):
        """The SIGTERM handler runs on the main thread and can interrupt
        it while it holds the doorbell lock; its ring must go through."""
        daemon = _daemon(tmp_path, monkeypatch, _fake_executor())
        daemon.start()

        def interrupted():
            with daemon._bell_lock:
                daemon.request_drain()

        thread = threading.Thread(target=interrupted, daemon=True)
        thread.start()
        thread.join(5.0)
        # (A deadlocked thread keeps the lock, so shutdown() would hang.)
        assert not thread.is_alive(), "ring deadlocked on its own lock"
        try:
            assert daemon._await_ring(0.0)
        finally:
            daemon.shutdown()

    def test_start_refuses_a_non_fifo_doorbell(self, tmp_path,
                                               monkeypatch):
        daemon = _daemon(tmp_path, monkeypatch, _fake_executor())
        daemon.control_dir.mkdir(parents=True)
        daemon.wake_path.write_text("not a fifo\n")
        with pytest.raises(ServiceError, match="not a FIFO"):
            daemon.start()
        assert not (daemon.control_dir / "daemon.pid").exists()
        # A client never writes into it either.
        ServiceClient(tmp_path / "svc").submit([_spec()], job_id="j")
        assert daemon.wake_path.read_text() == "not a fifo\n"


def _assert_tail_matches_replay(client, svc):
    """The client's incremental table equals a full replay's."""
    full = JobTable.from_records(JournalStore(svc).replay())
    tail = client._table()
    assert list(tail.jobs) == list(full.jobs)
    assert vars(tail) == vars(full)  # states, checkpoints, details, ...


class TestClientJournalTail:
    """A long-lived ServiceClient reads only the records appended since
    its last call, and always agrees with a full replay."""

    def test_matches_replay_at_every_step(self, tmp_path, monkeypatch):
        svc = tmp_path / "svc"
        offsets = []

        def spy(path, offset=0):
            offsets.append(offset)
            return read_journal(path, offset)

        monkeypatch.setattr("repro.service.client.read_journal", spy)
        client = ServiceClient(svc)
        _assert_tail_matches_replay(client, svc)
        client.submit([_spec(), _spec(seed=8)], job_id="a", priority=1)
        daemon = _daemon(tmp_path, monkeypatch, _fake_executor())
        try:
            daemon.start()
            _assert_tail_matches_replay(client, svc)
            client.submit([_spec(seed=9)], job_id="b")
            client.submit([_spec(seed=10)], job_id="c", priority=5)
            deadline = time.monotonic() + 30.0
            steps = 0
            while not daemon._idle() or steps < 3:
                assert time.monotonic() < deadline, "daemon never idled"
                daemon.tick()
                _assert_tail_matches_replay(client, svc)
                if steps == 1:
                    client.submit([_spec(seed=11)], job_id="d")
                    assert client.cancel("b")
                    _assert_tail_matches_replay(client, svc)
                steps += 1
                time.sleep(0.001)
        finally:
            daemon.shutdown()
        # A restart journals its start on top.
        daemon = _daemon(tmp_path, monkeypatch, _fake_executor())
        daemon.start()
        daemon.shutdown()
        _assert_tail_matches_replay(client, svc)
        table = client._table()
        assert table.restarts == 2
        assert {j: table.jobs[j].state.value for j in "abcd"} == {
            "a": "completed", "b": "killed", "c": "completed",
            "d": "completed"}
        # Only the first read started at the top of the file.
        later = offsets[1:]
        assert offsets[0] == 0 and all(later)
        assert later == sorted(later)

    def _queued(self, store, job_id):
        store.append_transition(job_id, None, JobState.QUEUED,
                                {"specs": [spec_to_dict(_spec())],
                                 "priority": 0})

    def _journal(self, directory, job_ids):
        store = JournalStore(directory)
        store.open()
        store.append_meta("daemon-start", pid=1)
        for job_id in job_ids:
            self._queued(store, job_id)
        store.close()
        return store.path

    def test_half_written_record_is_not_consumed(self, tmp_path):
        svc = tmp_path / "svc"
        path = self._journal(svc, ["a", "b"])
        whole = path.read_bytes()
        last = len(whole) - whole.rindex(b"\n", 0, len(whole) - 1) - 1
        # An append in flight: half of b's line, then all of it.
        path.write_bytes(whole[:len(whole) - last // 2])
        client = ServiceClient(svc)
        _assert_tail_matches_replay(client, svc)
        assert set(client._table().jobs) == {"a"}
        path.write_bytes(whole)
        _assert_tail_matches_replay(client, svc)
        assert set(client._table().jobs) == {"a", "b"}
        # All of c's line but its newline: it decodes, yet it is torn.
        store = JournalStore(svc)
        store.open()
        self._queued(store, "c")
        store.close()
        path.write_bytes(path.read_bytes()[:-1])
        _assert_tail_matches_replay(client, svc)
        assert set(client._table().jobs) == {"a", "b"}
        # Reopening cuts it, and the next records land in its place.
        store = JournalStore(svc)
        assert len(store.open()) == 3
        self._queued(store, "d")
        store.close()
        assert len(path.read_bytes()) > len(whole)
        _assert_tail_matches_replay(client, svc)
        assert set(client._table().jobs) == {"a", "b", "d"}

    def test_recreated_journal_is_read_from_the_start(self, tmp_path):
        svc = tmp_path / "svc"
        path = self._journal(svc, ["a"])
        client = ServiceClient(svc)
        assert set(client._table().jobs) == {"a"}
        # A longer journal of other jobs takes its place; only its new
        # inode says the offset read so far means nothing there.
        other = self._journal(tmp_path / "other", ["x", "y", "z"])
        assert other.stat().st_size > path.stat().st_size
        os.replace(other, path)
        _assert_tail_matches_replay(client, svc)
        assert set(client._table().jobs) == {"x", "y", "z"}

    def test_sequence_gap_raises_like_replay(self, tmp_path):
        svc = tmp_path / "svc"
        path = self._journal(svc, [])
        client = ServiceClient(svc)
        assert client._table().restarts == 1
        # A second copy of the only record repeats seq 0.
        path.write_bytes(path.read_bytes() * 2)
        with pytest.raises(StoreError):
            JournalStore(svc).replay()
        for _ in range(2):  # the read from the offset, then from 0
            with pytest.raises(StoreError):
                client._table()


class TestCrashRecovery:
    """The acceptance property: kill -9 at every journal boundary."""

    JOBS = (("low", 0, (_spec(seed=7), _spec(seed=8))),
            ("high", 5, (_spec(seed=9),)))

    def _submit_all(self, svc):
        client = ServiceClient(svc)
        for job_id, priority, specs in self.JOBS:
            client.submit(list(specs), priority=priority, job_id=job_id)
        return client

    def _run(self, svc, monkeypatch, submit):
        client = self._submit_all(svc) if submit else ServiceClient(svc)
        daemon = SchedulerDaemon(svc, capacity=8, heartbeat_s=30.0,
                                 poll_s=0.0, workers=1,
                                 cache=ResultCache(svc / "cache",
                                                   enabled=False))
        monkeypatch.setattr("repro.service.daemon.execute_timed",
                            _fake_executor())
        try:
            daemon.run_until_idle()
        finally:
            daemon.shutdown()
        return client

    def _assert_consistent(self, svc, client):
        st = client.status()
        assert st["counts"] == {"completed": len(self.JOBS)}
        assert st["qos"]["consistent"]
        # no duplicated execution: exactly one terminal record per job
        records = JournalStore(svc).replay()
        for job_id, _, specs in self.JOBS:
            terminals = [r for r in records if r.get("job") == job_id
                         and r.get("to") in ("completed", "killed",
                                             "failed")]
            assert len(terminals) == 1
            assert terminals[0]["to"] == "completed"
            assert terminals[0]["payload"]["completed"] == len(specs)
            assert (svc / "results" / f"{job_id}.json").exists()

    def test_clean_run_baseline(self, tmp_path, monkeypatch):
        svc = tmp_path / "clean"
        client = self._run(svc, monkeypatch, submit=True)
        self._assert_consistent(svc, client)

    @pytest.mark.parametrize("kind", ["crash-before-commit",
                                      "crash-after-commit",
                                      "torn-journal"])
    def test_crash_at_every_boundary_recovers(self, tmp_path, monkeypatch,
                                              kind):
        # measure the clean journal once to know every boundary
        clean = tmp_path / "clean"
        self._run(clean, monkeypatch, submit=True)
        boundaries = len(JournalStore(clean).replay())
        assert boundaries >= 8
        for seq in range(boundaries + 1):
            svc = tmp_path / f"{kind}-{seq}"
            crashed = False
            try:
                with faults.injected(f"{kind}@{seq}"):
                    client = self._run(svc, monkeypatch, submit=True)
            except faults.InjectedCrash as crash:
                crashed = True
                assert crash.kind == kind and crash.seq == seq
                client = ServiceClient(svc)
            faults.clear()
            if crashed:
                # restart with the fault cleared: recovery must drain
                client = self._run(svc, monkeypatch, submit=False)
                # (== 1 happens when a torn record eats a daemon-start
                # meta line itself; the job invariants still must hold)
                assert client.status()["restarts"] >= 1
            self._assert_consistent(svc, client)

    def test_spool_file_not_admitted_twice(self, tmp_path, monkeypatch):
        """Crash after journaling QUEUED but before consuming the spool
        file: restart must dedup, not re-admit."""
        svc = tmp_path / "svc"
        client = self._submit_all(svc)
        # seq 1 is the first QUEUED transition (seq 0 is daemon-start)
        try:
            with faults.injected("crash-after-commit@1"):
                self._run(svc, monkeypatch, submit=False)
            pytest.fail("crash point did not fire")
        except faults.InjectedCrash:
            pass
        faults.clear()
        spooled = list((svc / "spool").glob("*.json"))
        assert spooled, "crash must leave the spool file behind"
        client = self._run(svc, monkeypatch, submit=False)
        self._assert_consistent(svc, client)

    def test_interrupted_dispatch_requeues_on_restart(self, tmp_path,
                                                      monkeypatch):
        """Kill with a job durably RUNNING: restart re-queues it via the
        -> QUEUED recovery edge and the journal shows the crash scar."""
        fired = False
        for seq in range(24):
            probe = tmp_path / f"probe-{seq}"
            try:
                with faults.injected(f"crash-after-commit@{seq}"):
                    self._run(probe, monkeypatch, submit=True)
            except faults.InjectedCrash:
                pass
            faults.clear()
            if not (probe / "journal.jsonl").exists():
                continue
            table = JobTable.from_records(JournalStore(probe).replay())
            running = [j for j in table.iter_jobs()
                       if j.state in (JobState.ADMITTED, JobState.RUNNING,
                                      JobState.RESUMED)]
            if not running:
                continue
            fired = True
            client = self._run(probe, monkeypatch, submit=False)
            records = JournalStore(probe).replay()
            assert any(r.get("to") == "queued"
                       and (r.get("payload") or {}).get("reason")
                       == "crash-recovery" for r in records)
            self._assert_consistent(probe, client)
            break
        assert fired, "no boundary left a job durably mid-dispatch"


class TestServeSubprocess:
    """End-to-end through real processes: ``chimera serve`` killed by an
    env-driven crash fault dies like kill -9 (exit 13) and a restarted
    daemon recovers — the same scenario the CI daemon-smoke job runs."""

    def _env(self, tmp_path, **extra):
        env = dict(os.environ)
        repo_src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        env["CHIMERA_SERVICE_DIR"] = str(tmp_path / "svc")
        env["CHIMERA_CACHE_DIR"] = str(tmp_path / "cache")
        env.pop("CHIMERA_FAULTS", None)
        env.update(extra)
        return env

    def _serve(self, env, *extra_args, timeout=240):
        return subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--idle-exit", "0.3",
             "--poll", "0.02", "--heartbeat", "60", *extra_args],
            env=env, capture_output=True, text=True, timeout=timeout)

    @pytest.mark.slow
    def test_sigkill_mid_run_then_restart_recovers(self, tmp_path):
        env = self._env(tmp_path)
        submit = subprocess.run(
            [sys.executable, "-m", "repro", "submit", "--kind", "periodic",
             "--bench", "BS", "--policies", "drain", "--periods", "2",
             "--priority", "3", "--job-id", "smoke"],
            env=env, capture_output=True, text=True, timeout=120)
        assert submit.returncode == 0, submit.stderr
        # crash the daemon right after it commits the RUNNING record
        crashed = self._serve(self._env(tmp_path,
                                        CHIMERA_FAULTS="crash-after-commit@3"))
        assert crashed.returncode == faults.CRASH_EXIT_CODE, crashed.stderr
        # restart clean: recovery re-queues and completes the job
        recovered = self._serve(env)
        assert recovered.returncode == 0, recovered.stderr
        status = subprocess.run(
            [sys.executable, "-m", "repro", "status", "--json"],
            env=env, capture_output=True, text=True, timeout=60)
        assert status.returncode == 0, status.stderr
        snapshot = json.loads(status.stdout)
        assert snapshot["counts"] == {"completed": 1}
        assert snapshot["restarts"] == 2
        assert snapshot["qos"]["consistent"]
