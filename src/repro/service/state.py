"""Job lifecycle state machine for the scheduling daemon.

Every job the daemon hosts moves through an explicit state machine::

    QUEUED -> ADMITTED -> RUNNING -> COMPLETED
                             |   \\-> FAILED | KILLED
                             v
                         PREEMPTED -> RESUMED -> (as RUNNING)

plus recovery edges back to ``QUEUED`` (a crash while a job was
admitted/running re-queues it from its last durable transition), and two
overload exits out of the queue itself: ``SHED`` (brownout load
shedding dropped the job) and ``TIMED_OUT`` (it sat queued past
the queue TTL, ``serve --queue-ttl``). ``COMPLETED``, ``KILLED``, ``FAILED``,
``SHED``, and ``TIMED_OUT`` are terminal: a job reaches exactly one of
them exactly once, and the journal replay enforces it.

Transitions are validated by :func:`validate_transition`; an illegal
edge raises :class:`~repro.errors.JobStateError` whether it comes from
the live daemon (a bug) or from journal replay (a corrupt store).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, FrozenSet, Optional, Tuple

from repro.errors import JobStateError
from repro.harness.sweep import RunSpec

__all__ = ["Job", "JobState", "TRANSITIONS", "is_terminal",
           "validate_transition"]


class JobState(str, Enum):
    """One job's position in the daemon lifecycle."""

    QUEUED = "queued"          # accepted by admission, waiting for a slot
    ADMITTED = "admitted"      # popped from the queue, slot assigned
    RUNNING = "running"        # worker executing specs
    PREEMPTED = "preempted"    # checkpointed for a higher-priority job
    RESUMED = "resumed"        # re-dispatched after preemption
    COMPLETED = "completed"    # every spec executed, result durable
    KILLED = "killed"          # cancelled by the client
    FAILED = "failed"          # spec error or heartbeat loss
    SHED = "shed"              # dropped by brownout load shedding
    TIMED_OUT = "timed-out"    # expired in the queue (--queue-ttl)


#: Legal edges. Edges back to QUEUED are the crash-recovery re-queues:
#: a job whose last durable transition was ADMITTED/RUNNING/RESUMED is
#: put back in the queue on restart (its execution is deterministic and
#: idempotent through the result cache, so re-running loses nothing).
TRANSITIONS: Dict[JobState, FrozenSet[JobState]] = {
    JobState.QUEUED: frozenset({JobState.ADMITTED, JobState.KILLED,
                                JobState.SHED, JobState.TIMED_OUT}),
    JobState.ADMITTED: frozenset({JobState.RUNNING, JobState.KILLED,
                                  JobState.QUEUED}),
    JobState.RUNNING: frozenset({JobState.PREEMPTED, JobState.COMPLETED,
                                 JobState.FAILED, JobState.KILLED,
                                 JobState.QUEUED}),
    JobState.PREEMPTED: frozenset({JobState.RESUMED, JobState.KILLED,
                                   JobState.FAILED, JobState.QUEUED,
                                   JobState.SHED, JobState.TIMED_OUT}),
    JobState.RESUMED: frozenset({JobState.PREEMPTED, JobState.COMPLETED,
                                 JobState.FAILED, JobState.KILLED,
                                 JobState.QUEUED}),
    JobState.COMPLETED: frozenset(),
    JobState.KILLED: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.SHED: frozenset(),
    JobState.TIMED_OUT: frozenset(),
}

#: States a job can never leave.
TERMINAL_STATES: FrozenSet[JobState] = frozenset(
    {JobState.COMPLETED, JobState.KILLED, JobState.FAILED,
     JobState.SHED, JobState.TIMED_OUT})


def is_terminal(state: JobState) -> bool:
    """Is ``state`` one of the terminal states?"""
    return state in TERMINAL_STATES


def validate_transition(job_id: str, old: Optional[JobState],
                        new: JobState) -> None:
    """Raise :class:`~repro.errors.JobStateError` on an illegal edge.

    ``old=None`` is job creation: the only legal first state is
    ``QUEUED``.
    """
    if old is None:
        if new is not JobState.QUEUED:
            raise JobStateError(
                f"job {job_id}: first transition must create QUEUED, "
                f"got {new.value}", job_id=job_id, to_state=new)
        return
    if new not in TRANSITIONS[old]:
        raise JobStateError(
            f"job {job_id}: illegal transition {old.value} -> {new.value}",
            job_id=job_id, from_state=old, to_state=new)


@dataclass
class Job:
    """One submitted job: a priority and a batch of RunSpecs.

    The daemon executes the specs in order; the index of the first
    unexecuted spec (``completed``) is the job's checkpoint — it rides
    on every PREEMPTED/QUEUED journal payload, so a resumed or recovered
    job continues from its last durable boundary (and the
    content-addressed result cache makes even re-executed specs cheap
    and bit-identical).
    """

    job_id: str
    specs: Tuple[RunSpec, ...]
    priority: int = 0
    state: JobState = JobState.QUEUED
    #: Specs executed so far (the durable checkpoint).
    completed: int = 0
    #: Admission order, assigned by the daemon at each dispatch.
    ordinal: int = -1
    #: Execution slot of the last dispatch (-1: never dispatched);
    #: rides on every RUNNING/RESUMED payload so replay knows where
    #: each job last ran (and ``hang-worker@slot`` targets it).
    slot: int = -1
    #: Times this job re-entered the queue after its creation record
    #: (crash-recovery re-queues); replay derives it from the journal.
    requeues: int = 0
    #: FIFO tiebreaker within a priority level (journal seq of QUEUED).
    submit_seq: int = 0
    #: Wall time the job last entered a queue-waiting state (QUEUED or
    #: PREEMPTED); drives queue-age pressure and queue-TTL
    #: expiry. Replay restores it from the record timestamp.
    enqueued_t: float = 0.0
    #: Set on a terminal transition: error text, kill reason, ...
    detail: Dict[str, Any] = field(default_factory=dict)

    def advance(self, new: JobState) -> None:
        """Validated in-memory transition (the journal is written by the
        caller *before* this is applied)."""
        validate_transition(self.job_id, self.state, new)
        self.state = new

    @property
    def remaining(self) -> int:
        """Specs not yet executed."""
        return len(self.specs) - self.completed

    def sort_key(self) -> Tuple[int, int]:
        """Queue order: higher priority first, then submission order."""
        return (-self.priority, self.submit_seq)
