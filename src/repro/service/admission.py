"""Bounded priority admission queue with explicit backpressure.

The daemon never queues unboundedly: past ``capacity`` waiting jobs, a
submission is rejected with a machine-readable reason
(:class:`~repro.errors.AdmissionError`), and the client sees the
rejection rather than a silently growing backlog. Queued *and*
preempted-awaiting-resume jobs both occupy capacity — a preempted job
holds real state the daemon is still responsible for.

Ordering is strict priority (higher ``priority`` first), FIFO within a
level (by journal submission sequence), so the queue is deterministic
for a given submission history.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Set, Tuple

from repro.errors import AdmissionError, ConfigError, ServiceError
from repro.service.state import Job

__all__ = ["AdmissionQueue", "DEFAULT_CAPACITY"]

#: Default bound on waiting jobs (``serve --capacity``).
DEFAULT_CAPACITY = 64


class AdmissionQueue:
    """A bounded max-priority queue of :class:`~repro.service.state.Job`."""

    def __init__(self, capacity: Optional[int] = None):
        self.capacity = DEFAULT_CAPACITY if capacity is None else capacity
        if self.capacity < 1:
            raise ConfigError("admission queue capacity must be >= 1")
        self._heap: List[Tuple[Tuple[int, int], Job]] = []
        self._ids: Set[str] = set()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    @property
    def full(self) -> bool:
        return len(self._heap) >= self.capacity

    def check_capacity(self, job_id: str) -> None:
        """Raise the backpressure rejection if the queue is full."""
        if self.full:
            raise AdmissionError(
                f"admission queue is full ({self.capacity} jobs waiting); "
                f"rejecting {job_id}", reason="capacity", job_id=job_id)

    def push(self, job: Job) -> None:
        """Enqueue an accepted job (capacity must have been checked —
        recovery re-queues bypass the bound rather than drop state).

        A duplicate ``job_id`` is a daemon bug (double-queueing would
        dispatch the same job twice) and raises ``ServiceError``.
        """
        if job.job_id in self._ids:
            raise ServiceError(
                f"job {job.job_id} is already queued; refusing duplicate "
                f"push")
        heapq.heappush(self._heap, (job.sort_key(), job))
        self._ids.add(job.job_id)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._ids

    def pop(self) -> Job:
        """Remove and return the best job."""
        job = heapq.heappop(self._heap)[1]
        self._ids.discard(job.job_id)
        return job

    def peek(self) -> Optional[Job]:
        """The best job without removing it, or None when empty."""
        return self._heap[0][1] if self._heap else None

    def top(self, n: int) -> List[Job]:
        """The best ``n`` jobs in queue order, without removing them.

        The multi-slot preemption policy matches the strongest waiting
        jobs against running victims, so it needs more than ``peek``.
        """
        if n <= 0:
            return []
        return [job for _, job in heapq.nsmallest(
            n, self._heap, key=lambda kv: kv[0])]

    def remove(self, job_id: str) -> Optional[Job]:
        """Remove a job by id (cancellation/shedding), or None if absent."""
        for i, (_, job) in enumerate(self._heap):
            if job.job_id == job_id:
                self._heap[i] = self._heap[-1]
                self._heap.pop()
                heapq.heapify(self._heap)
                self._ids.discard(job_id)
                return job
        return None

    def jobs(self) -> List[Job]:
        """Snapshot in queue order (best first)."""
        return [job for _, job in sorted(self._heap, key=lambda kv: kv[0])]

    def oldest_age_s(self, now: float) -> Optional[float]:
        """Age in seconds of the longest-waiting job, or None when empty.

        Uses each job's ``enqueued_t`` wall-clock stamp; jobs that never
        got one (``enqueued_t == 0``) are ignored rather than reported
        as decades old.
        """
        stamps = [job.enqueued_t for _, job in self._heap
                  if job.enqueued_t > 0]
        if not stamps:
            return None
        return max(0.0, now - min(stamps))
