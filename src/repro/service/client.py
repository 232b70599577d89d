"""Client side of the scheduling daemon's filesystem API.

The daemon and its clients share only the service directory, so the
client works whether or not a daemon is currently alive: submissions
are atomic drops into ``spool/``, cancellation and drain are marker
files, and status is a *read-only replay* of the journal — the exact
code path the daemon itself recovers through, which means "what the
client sees" and "what a restart would recover" are the same thing by
construction. Each drop is followed by one byte to the daemon's
doorbell FIFO (``control/wake``), which wakes a sleeping serve loop at
once; with no daemon alive the ring is a no-op. A long-lived client
reads the journal incrementally: each call applies only the records
appended since the previous one.
"""

from __future__ import annotations

import json
import os
import random
import time
import uuid
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import AdmissionError, ServiceError
from repro.harness.sweep import RunSpec
from repro.metrics.slo import service_report
from repro.service.daemon import (
    _atomic_write_json,
    _ring_doorbell,
    default_service_dir,
    reconcile_qos,
)
from repro.service.state import JobState, is_terminal
from repro.service.store import (
    JobTable,
    JournalStore,
    check_sequence,
    read_journal,
    spec_to_dict,
)

#: Rejection reasons worth resubmitting after a backoff (transient
#: overload); anything else is permanent for this submission.
RETRYABLE_REASONS = frozenset({"capacity", "brownout", "unmeetable-slo",
                               "draining"})

__all__ = ["RETRYABLE_REASONS", "ServiceClient"]


class ServiceClient:
    """Submit, inspect, cancel, and await jobs in a service directory.

    A client caches the journal it has read, so give each thread its
    own.
    """

    def __init__(self, directory: Optional[os.PathLike] = None):
        self.directory = Path(directory if directory is not None
                              else default_service_dir())
        self.spool_dir = self.directory / "spool"
        self.results_dir = self.directory / "results"
        self.control_dir = self.directory / "control"
        #: The journal read so far: its (device, inode), the offset
        #: just past its last whole record, the next seq expected there,
        #: and the job table its records built.
        self._journal_id: Optional[Tuple[int, int]] = None
        self._journal_end = 0
        self._journal_seq = 0
        self._jobs = JobTable()

    # -- submission ----------------------------------------------------

    def submit(self, specs: Sequence[RunSpec], priority: int = 0,
               job_id: Optional[str] = None,
               slo_s: Optional[float] = None) -> str:
        """Drop a job into the spool; returns its id.

        ``slo_s`` declares the job's completion deadline budget
        (seconds from submission); the daemon's deadline-aware
        admission rejects the job up front (reason ``"unmeetable-slo"``)
        when its service-time estimates say the budget is already blown.

        Raises :class:`~repro.errors.AdmissionError` immediately for a
        duplicate id or an empty batch; capacity/overload backpressure
        arrives asynchronously as a ``spool/<id>.rejected.json`` record
        (see :meth:`rejection`). Resubmitting an id whose previous
        attempt was rejected is allowed — the stale rejection record is
        retracted.
        """
        if not specs:
            raise AdmissionError("a job needs at least one spec",
                                 reason="invalid-spec", job_id=job_id)
        if job_id is None:
            job_id = f"job-{uuid.uuid4().hex[:12]}"
        if "/" in job_id or job_id.startswith("."):
            raise AdmissionError(f"invalid job id {job_id!r}",
                                 reason="invalid-spec", job_id=job_id)
        if slo_s is not None and slo_s <= 0:
            raise AdmissionError("slo_s must be > 0 seconds",
                                 reason="invalid-spec", job_id=job_id)
        if (self.spool_dir / f"{job_id}.json").exists() \
                or job_id in self._table().jobs:
            raise AdmissionError(f"job id {job_id!r} already exists",
                                 reason="duplicate", job_id=job_id)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        payload = {"job_id": job_id, "priority": int(priority),
                   "specs": [spec_to_dict(s) for s in specs],
                   "t": round(time.time(), 3)}
        if slo_s is not None:
            payload["slo_s"] = float(slo_s)
        # A lingering rejection record belongs to a *previous* attempt
        # at this id; this submission supersedes it.
        (self.spool_dir / f"{job_id}.rejected.json").unlink(missing_ok=True)
        _atomic_write_json(self.spool_dir / f"{job_id}.json", payload)
        _ring_doorbell(self.control_dir)
        return job_id

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; False when the job is unknown or done."""
        job = self._table().jobs.get(job_id)
        pending = (self.spool_dir / f"{job_id}.json").exists()
        if job is None and not pending:
            return False
        if job is not None and is_terminal(job.state):
            return False
        if pending and job is None:
            # Not yet admitted: retract the submission directly.
            (self.spool_dir / f"{job_id}.json").unlink(missing_ok=True)
            return True
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        _atomic_write_json(self.spool_dir / f"{job_id}.cancel",
                           {"job_id": job_id, "t": round(time.time(), 3)})
        _ring_doorbell(self.control_dir)
        return True

    def drain(self) -> None:
        """Ask a serving daemon to checkpoint and exit gracefully."""
        self.control_dir.mkdir(parents=True, exist_ok=True)
        (self.control_dir / "drain").write_text("drain\n")
        _ring_doorbell(self.control_dir)

    # -- inspection ----------------------------------------------------

    def _table(self) -> JobTable:
        """The job table as of the journal's last whole record.

        Applies only the records appended since the previous call, with
        the checks a full replay makes. A journal that is another file
        now (new inode) or shorter than what was read is read again from
        the start.
        """
        path = self.directory / JournalStore.JOURNAL_NAME
        try:
            stat = os.stat(path)
        except FileNotFoundError:
            self._journal_id = None
            return JobTable()
        ident = (stat.st_dev, stat.st_ino)
        if ident != self._journal_id or stat.st_size < self._journal_end:
            self._journal_end, self._journal_seq = 0, 0
            self._jobs = JobTable()
        if stat.st_size > self._journal_end:
            # Invalid until the read lands: after an error, the next
            # call starts over (and raises again if the damage is real).
            self._journal_id = None
            records, end = read_journal(path, self._journal_end)
            check_sequence(path, records, self._journal_seq)
            for record in records:
                self._jobs.apply(record)
            self._journal_end = end
            self._journal_seq += len(records)
        self._journal_id = ident
        return self._jobs

    def job_state(self, job_id: str) -> Optional[str]:
        """Current state name, ``"pending"`` (spooled, not yet admitted),
        ``"rejected"``, or None when the service knows nothing of it."""
        job = self._table().jobs.get(job_id)
        if job is not None:
            return job.state.value
        # Pending beats rejected: a resubmission under the same id
        # supersedes a stale rejection record from an earlier attempt.
        if (self.spool_dir / f"{job_id}.json").exists():
            return "pending"
        if (self.spool_dir / f"{job_id}.rejected.json").exists():
            return "rejected"
        return None

    def rejection(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The backpressure record for a rejected submission, if any."""
        path = self.spool_dir / f"{job_id}.rejected.json"
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return None

    def result(self, job_id: str) -> Dict[str, Any]:
        """The merged result of a COMPLETED job."""
        path = self.results_dir / f"{job_id}.json"
        try:
            return json.loads(path.read_text())
        except OSError as exc:
            raise ServiceError(
                f"no result for job {job_id} in {self.results_dir}"
            ) from exc

    def status(self) -> Dict[str, Any]:
        """Full service snapshot: jobs, state histogram, restarts,
        rejections, and the QoS-vs-journal reconciliation."""
        table = self._table()
        jobs = []
        for job in sorted(table.iter_jobs(), key=lambda j: j.submit_seq):
            jobs.append({
                "job_id": job.job_id,
                "state": job.state.value,
                "priority": job.priority,
                "specs": len(job.specs),
                "completed": job.completed,
                "slot": job.slot,
                "requeues": job.requeues,
                "detail": job.detail,
            })
        rejected = []
        if self.spool_dir.is_dir():
            for path in sorted(self.spool_dir.glob("*.rejected.json")):
                record = self.rejection(path.name[:-len(".rejected.json")])
                if record:
                    rejected.append(record)
        beacon: Optional[Dict[str, Any]] = None
        try:
            beacon = json.loads(
                (self.control_dir / "daemon.json").read_text())
        except (OSError, ValueError):
            pass
        counts = table.counts()
        # Live-daemon signals come from the beacon; durable ones
        # (brownout level, shed/expired counts) from the journal, so
        # the overload picture survives the daemon being down.
        overload = {
            "queue_depth": (beacon or {}).get("queue", {}).get("depth"),
            "queue_capacity": (beacon or {}).get("queue", {}).get(
                "capacity"),
            "oldest_queued_age_s": (beacon or {}).get("queue", {}).get(
                "oldest_age_s"),
            "brownout": ((beacon or {}).get("brownout")
                         or {"level": table.brownout_level,
                             "name": table.brownout_name}),
            "breaker": ((beacon or {}).get("breaker")
                        or {"state": table.breaker_state}),
            "shed": counts.get(JobState.SHED.value, 0),
            "timed_out": counts.get(JobState.TIMED_OUT.value, 0),
        }
        return {
            "directory": str(self.directory),
            "daemon": beacon,
            "workers": (beacon or {}).get("workers"),
            "slots": (beacon or {}).get("slots"),
            "restarts": table.restarts,
            "transitions": table.transitions,
            "counts": counts,
            "overload": overload,
            "service": service_report(table.iter_jobs()),
            "jobs": jobs,
            "rejected": rejected,
            "qos": reconcile_qos(self.directory),
        }

    # -- waiting -------------------------------------------------------

    def wait(self, job_id: str, timeout_s: float = 60.0,
             poll_s: float = 0.05, max_poll_s: float = 1.0) -> str:
        """Block until ``job_id`` reaches a terminal state (or is
        rejected); returns the final state name.

        Polls with jittered exponential backoff — ``poll_s`` doubling
        up to ``max_poll_s``, each sleep scaled by a deterministic
        per-(job, process) jitter in [0.5, 1.5) — so a fleet of waiting
        clients neither hammers the journal at a fixed rate nor
        synchronizes into polling bursts. The backoff resets whenever
        the observed state changes (progress usually clusters).
        """
        rng = random.Random(f"{job_id}:{os.getpid()}")
        deadline = time.monotonic() + timeout_s
        delay = max(poll_s, 1e-4)
        max_poll_s = max(max_poll_s, delay)
        last_state: Optional[str] = "unobserved"
        while True:
            state = self.job_state(job_id)
            if state == "rejected":
                return state
            if state is not None and state not in ("pending",):
                if is_terminal(JobState(state)):
                    return state
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {state!r} after {timeout_s:.3g}s")
            if state != last_state:
                delay = max(poll_s, 1e-4)
                last_state = state
            sleep = min(delay, max_poll_s) * (0.5 + rng.random())
            sleep = min(sleep, max(deadline - time.monotonic(), 0.0))
            if sleep > 0:
                time.sleep(sleep)
            delay = min(delay * 2, max_poll_s)

    def submit_and_wait(self, specs: Sequence[RunSpec], priority: int = 0,
                        job_id: Optional[str] = None,
                        slo_s: Optional[float] = None,
                        timeout_s: float = 60.0, poll_s: float = 0.05,
                        retries: int = 0) -> str:
        """Submit, wait, and politely retry overload rejections.

        With ``retries > 0``, a rejection whose reason is transient
        (``capacity``, ``brownout``, ``unmeetable-slo``, ``draining``)
        is resubmitted after sleeping the daemon's ``retry_after_s``
        hint (jittered; falling back to an exponential schedule when the
        record carries none) — up to ``retries`` resubmissions within
        the overall ``timeout_s`` budget. Returns the final state name
        (``"rejected"`` once the retry budget or the deadline is
        exhausted). Raises like :meth:`submit` for permanent errors.
        """
        if job_id is None:
            job_id = f"job-{uuid.uuid4().hex[:12]}"
        rng = random.Random(f"{job_id}:{os.getpid()}:retry")
        deadline = time.monotonic() + timeout_s
        attempt = 0
        while True:
            self.submit(specs, priority=priority, job_id=job_id,
                        slo_s=slo_s)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    f"job {job_id} ran out of its {timeout_s:.3g}s budget "
                    f"while submitting")
            state = self.wait(job_id, timeout_s=remaining, poll_s=poll_s)
            if state != "rejected":
                return state
            record = self.rejection(job_id) or {}
            reason = record.get("reason")
            if attempt >= retries or reason not in RETRYABLE_REASONS:
                return state
            attempt += 1
            hint = record.get("retry_after_s")
            if not isinstance(hint, (int, float)) or hint <= 0:
                hint = min(poll_s * (2 ** attempt), 1.0)
            sleep = float(hint) * (0.5 + rng.random())
            sleep = min(sleep, max(deadline - time.monotonic(), 0.0))
            if sleep > 0:
                time.sleep(sleep)
