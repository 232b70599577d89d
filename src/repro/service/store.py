"""Crash-safe persistent job store: an append-only, checksummed journal.

The daemon's durability contract is **journal before act**: every
lifecycle transition is appended to ``journal.jsonl`` (one JSON object
per line, each carrying a CRC-32 of its canonical record body) and
``fsync``'d *before* the daemon acts on it. A ``kill -9`` at any
instant therefore leaves the journal in one of exactly three shapes:

* ends with a complete record — the last transition is durable; the
  action it announced may or may not have happened, and replay re-does
  it idempotently;
* ends with a torn record (crash mid-write) — the torn tail is
  truncated on the next open and the store recovers to the previous
  record. A record exists only once its newline is written: a final
  line without one is torn even if it happens to decode, because the
  append that wrote it never returned;
* unreadable in the *middle* — not a crash artifact but real
  corruption, and replay refuses with
  :class:`~repro.errors.StoreError` rather than guessing.

Replay rebuilds the full job table (:class:`JobTable`) by re-validating
every transition against the state machine, so a journal that type-checks
is also *semantically* consistent: no job has two terminal transitions,
no edge skips a state, and every job's checkpoint (``completed`` spec
count) is the one from its last durable record.

The journal is self-contained: the creation record of each job carries
its full description (priority + serialized RunSpecs), so recovery
needs no other file. Completed results live beside it under
``results/`` and are written atomically *before* the COMPLETED record —
a COMPLETED journal entry implies the result file exists.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import time
import zlib
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import StoreError
from repro.gpu.config import GPUConfig
from repro.harness import faults
from repro.harness.scenario import ScenarioSpec
from repro.harness.sweep import RunSpec
from repro.service.state import Job, JobState, is_terminal, validate_transition
from repro.workloads.traffic import ArrivalSpec, TenantSpec

logger = logging.getLogger("repro.service.store")

__all__ = ["JobTable", "JournalStore", "check_sequence", "read_journal",
           "spec_from_dict", "spec_to_dict"]

#: Journal format version, stamped into every record.
JOURNAL_VERSION = 1


# ----------------------------------------------------------------------
# RunSpec <-> JSON (the journal and the submission spool share this)
# ----------------------------------------------------------------------


def spec_to_dict(spec: RunSpec) -> Dict[str, Any]:
    """JSON-able form of a RunSpec (round-trips via :func:`spec_from_dict`)."""
    fields = dataclasses.asdict(spec)
    if spec.config is not None:
        fields["config"] = dataclasses.asdict(spec.config)
    return fields


def _scenario_from_dict(fields: Dict[str, Any]) -> ScenarioSpec:
    """Rebuild a nested ScenarioSpec (tenants + arrival processes)."""
    fields = dict(fields)
    tenants = []
    for tenant in fields.pop("tenants", ()):
        tenant = dict(tenant)
        arrival = ArrivalSpec(**(tenant.pop("arrival", None) or {}))
        tenants.append(TenantSpec(arrival=arrival, **tenant))
    return ScenarioSpec(tenants=tuple(tenants), **fields)


def spec_from_dict(fields: Dict[str, Any]) -> RunSpec:
    """Rebuild a RunSpec from its :func:`spec_to_dict` form."""
    fields = dict(fields)
    config = fields.pop("config", None)
    if config is not None:
        config = GPUConfig(**config)
    labels = fields.pop("labels", None)
    if labels is not None:
        labels = tuple(labels)
    scenario = fields.pop("scenario", None)
    try:
        if scenario is not None:
            scenario = _scenario_from_dict(scenario)
        return RunSpec(config=config, labels=labels, scenario=scenario,
                       **fields)
    except TypeError as exc:
        raise StoreError(f"malformed RunSpec record: {exc}") from exc


# ----------------------------------------------------------------------
# journal records
# ----------------------------------------------------------------------


def _canonical(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _encode(record: Dict[str, Any]) -> str:
    body = _canonical(record)
    crc = zlib.crc32(body.encode())
    return _canonical({"c": crc, "r": record}) + "\n"


def _decode(line: str) -> Dict[str, Any]:
    """Parse one journal line, raising ``ValueError`` on any damage."""
    obj = json.loads(line)
    if not isinstance(obj, dict) or "c" not in obj or "r" not in obj:
        raise ValueError("not a journal record")
    record = obj["r"]
    if zlib.crc32(_canonical(record).encode()) != obj["c"]:
        raise ValueError("checksum mismatch")
    return record


def read_journal(path: os.PathLike, offset: int = 0
                 ) -> Tuple[List[Dict[str, Any]], int]:
    """Decode the whole records of the journal at ``path`` from byte
    ``offset`` on.

    Only newline-terminated lines count: an unterminated final line is
    an append still in flight, or one torn by a crash, and is left
    unread. A damaged final line is torn too; damage with more data
    after it is corruption and raises :class:`StoreError`. Returns the
    records and the offset just past the last whole line read, which is
    where the next read starts (and where a torn tail is cut).
    """
    try:
        with open(path, "rb") as fh:
            fh.seek(offset)
            data = fh.read()
    except FileNotFoundError:
        return [], offset
    records: List[Dict[str, Any]] = []
    end = 0
    while True:
        newline = data.find(b"\n", end)
        if newline < 0:
            break
        raw = data[end:newline]
        if raw:
            try:
                records.append(_decode(raw.decode("utf-8")))
            except (ValueError, UnicodeDecodeError) as exc:
                if data[newline + 1:].strip():
                    raise StoreError(
                        f"corrupt journal record mid-file at byte "
                        f"{offset + end} of {path}: {exc}") from exc
                break
        end = newline + 1
    return records, offset + end


def check_sequence(path: os.PathLike, records: List[Dict[str, Any]],
                   first: int = 0) -> None:
    """Refuse records whose seqs do not run ``first, first + 1, ...``."""
    for i, record in enumerate(records, first):
        if record.get("seq") != i:
            raise StoreError(
                f"journal {path} sequence gap: record {i} carries "
                f"seq {record.get('seq')!r}")


class JournalStore:
    """Append-only journal under a service directory.

    ``append_transition`` is the single write path for lifecycle edges
    and hosts the deterministic crash points (``crash-before-commit``,
    ``crash-after-commit``, ``torn-journal``, ``crash-inflight``) keyed
    on the global record sequence number, so tests can kill the daemon
    at *every* journal boundary and prove recovery.

    With ``autosync=True`` (the default) every append is individually
    ``fsync``'d — one durability barrier per record. The daemon opens
    the store with ``autosync=False`` and instead calls :meth:`commit`
    once per tick: appends within a tick are written and flushed to the
    OS immediately (so an in-process crash at any boundary behaves
    exactly as before) but share a single fsync, issued *before* the
    daemon acts on any of them — group commit. Journal-before-act is
    preserved at tick granularity, and at high job rates the per-record
    fsync stops dominating the hot path. ``fsyncs`` counts the barriers
    actually issued, so tests can assert the batching.
    """

    JOURNAL_NAME = "journal.jsonl"

    def __init__(self, directory: os.PathLike, autosync: bool = True):
        self.directory = Path(directory)
        self.path = self.directory / self.JOURNAL_NAME
        self.autosync = autosync
        #: Durability barriers issued so far (observability + tests).
        self.fsyncs = 0
        #: Daemon-installed callable reporting how many jobs are in a
        #: dispatch state; drives the ``crash-inflight`` fault point.
        self.inflight_probe = None
        self._fh = None
        self._seq = 0
        self._dirty = False

    # -- lifecycle -----------------------------------------------------

    def open(self) -> List[Dict[str, Any]]:
        """Open for appending; repairs a torn tail and returns the
        replayed records so the caller can rebuild its job table."""
        self.directory.mkdir(parents=True, exist_ok=True)
        records = self._replay(repair=True)
        self._seq = (records[-1]["seq"] + 1) if records else 0
        self._fh = open(self.path, "a", encoding="utf-8")
        return records

    def close(self) -> None:
        if self._fh is not None:
            self.commit()
            self._fh.close()
            self._fh = None

    def commit(self) -> None:
        """Issue one durability barrier over all buffered appends.

        A no-op when nothing was appended since the last barrier (or
        when every append already synced itself under ``autosync``).
        """
        if self._fh is not None and self._dirty:
            os.fsync(self._fh.fileno())
            self.fsyncs += 1
            self._dirty = False

    @property
    def next_seq(self) -> int:
        """Sequence number the next appended record will get."""
        return self._seq

    # -- reading -------------------------------------------------------

    def replay(self) -> List[Dict[str, Any]]:
        """Read-only replay (status clients): tolerates a torn tail
        without repairing the file."""
        return self._replay(repair=False)

    def _replay(self, repair: bool) -> List[Dict[str, Any]]:
        records, end = read_journal(self.path)
        check_sequence(self.path, records)
        if repair and self.path.exists():
            torn = self.path.stat().st_size - end
            if torn:
                # Damage at the very end of the file is the signature of
                # a crash mid-write; nothing acted on the torn record.
                logger.warning("truncating torn journal tail (%d bytes) "
                               "in %s", torn, self.path)
                with open(self.path, "r+b") as out:
                    out.truncate(end)
        return records

    # -- writing -------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> int:
        if self._fh is None:
            raise StoreError("journal store is not open")
        seq = self._seq
        record = dict(record, seq=seq, v=JOURNAL_VERSION, t=round(
            time.time(), 6))
        line = _encode(record)
        if faults.torn_journal_fires(seq):
            # Crash mid-write: flush only a prefix of the line, then die.
            self._fh.write(line[:max(1, len(line) // 2)])
            self._fh.flush()
            os.fsync(self._fh.fileno())
            raise faults.InjectedCrash("torn-journal", seq)
        self._fh.write(line)
        self._fh.flush()
        if self.autosync:
            os.fsync(self._fh.fileno())
            self.fsyncs += 1
        else:
            self._dirty = True
        self._seq = seq + 1
        return seq

    def append_meta(self, event: str, **payload: Any) -> int:
        """Record a daemon-level event (start, drain, recovery note)."""
        return self._append({"type": "meta", "event": event,
                             "payload": payload})

    def append_transition(self, job_id: str, old: Optional[JobState],
                          new: JobState,
                          payload: Optional[Dict[str, Any]] = None) -> int:
        """Durably record one lifecycle edge — *before* acting on it.

        This is the crash boundary: ``crash-before-commit`` fires with
        the record unwritten, ``crash-after-commit`` with the record
        durable but unacted-upon, and ``torn-journal`` half-writes it.
        """
        if self.inflight_probe is not None:
            faults.service_inflight_crash(self.inflight_probe(), self._seq)
        faults.service_crash_point("crash-before-commit", self._seq)
        seq = self._append({
            "type": "transition",
            "job": job_id,
            "from": old.value if old is not None else None,
            "to": new.value,
            "payload": payload or {},
        })
        faults.service_crash_point("crash-after-commit", seq)
        return seq


# ----------------------------------------------------------------------
# replaying records into a job table
# ----------------------------------------------------------------------


class JobTable:
    """All jobs the journal knows about, with validated histories."""

    def __init__(self) -> None:
        self.jobs: Dict[str, Job] = {}
        #: Transition counts by (from, to) edge, for reporting.
        self.transitions: int = 0
        self.restarts: int = 0
        #: Last journaled brownout level (meta ``brownout`` records);
        #: restart recovery adopts it instead of resetting to normal.
        self.brownout_level: int = 0
        self.brownout_name: str = "normal"
        #: Last journaled circuit-breaker state (meta ``breaker``).
        self.breaker_state: str = "closed"

    @classmethod
    def from_records(cls, records: List[Dict[str, Any]]) -> "JobTable":
        table = cls()
        for record in records:
            table.apply(record)
        return table

    def apply(self, record: Dict[str, Any]) -> Optional[Job]:
        """Apply one replayed record, enforcing every invariant."""
        if record.get("type") == "meta":
            event = record.get("event")
            meta = record.get("payload") or {}
            if event == "daemon-start":
                self.restarts += 1
            elif event == "brownout":
                self.brownout_level = int(meta.get("level", 0))
                self.brownout_name = str(meta.get("name", "normal"))
            elif event == "breaker":
                self.breaker_state = str(meta.get("state", "closed"))
            return None
        job_id = record.get("job")
        payload = record.get("payload") or {}
        try:
            new = JobState(record.get("to"))
            old = (JobState(record["from"])
                   if record.get("from") is not None else None)
        except ValueError as exc:
            raise StoreError(
                f"journal names an unknown state: {exc}") from exc
        job = self.jobs.get(job_id)
        if job is None:
            if old is not None:
                raise StoreError(
                    f"journal transitions unknown job {job_id!r} "
                    f"({old.value} -> {new.value})")
            validate_transition(job_id, None, new)
            specs = tuple(spec_from_dict(d) for d in payload.get("specs", ()))
            if not specs:
                raise StoreError(
                    f"creation record for job {job_id!r} carries no specs")
            job = Job(job_id=job_id, specs=specs,
                      priority=int(payload.get("priority", 0)),
                      submit_seq=record["seq"])
            self.jobs[job_id] = job
        else:
            if is_terminal(job.state):
                raise StoreError(
                    f"job {job_id} transitions after terminal state "
                    f"{job.state.value} (to {new.value})")
            if old is not job.state:
                raise StoreError(
                    f"job {job_id} journal edge {old.value if old else None}"
                    f" -> {new.value} does not start at replayed state "
                    f"{job.state.value}")
            job.advance(new)
            if new is JobState.QUEUED:
                # A re-queue after creation: crash recovery (or any
                # future non-creation edge back to the queue).
                job.requeues += 1
        if "completed" in payload:
            job.completed = int(payload["completed"])
        if "slot" in payload:
            job.slot = int(payload["slot"])
        if new in (JobState.QUEUED, JobState.PREEMPTED):
            # The record timestamp is when the job (re-)entered a
            # queue-waiting state; queue-age pressure and TTL expiry
            # survive restarts because replay restores it.
            job.enqueued_t = float(record.get("t", 0.0))
        if is_terminal(new):
            job.detail = dict(payload)
        self.transitions += 1
        return job

    # -- queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.jobs)

    def by_state(self, *states: JobState) -> List[Job]:
        wanted = set(states)
        return [job for job in self.jobs.values() if job.state in wanted]

    def live_jobs(self) -> List[Job]:
        """Jobs not yet in a terminal state."""
        return [job for job in self.jobs.values()
                if not is_terminal(job.state)]

    def iter_jobs(self) -> Iterator[Job]:
        return iter(self.jobs.values())

    def counts(self) -> Dict[str, int]:
        """State histogram, for status output."""
        out: Dict[str, int] = {}
        for job in self.jobs.values():
            out[job.state.value] = out.get(job.state.value, 0) + 1
        return out
