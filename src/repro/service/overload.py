"""Overload control for the scheduling daemon: graceful degradation.

The admission queue's capacity bound (PR 7) stops unbounded memory
growth, but under a sustained burst it still queues jobs whose SLO
deadlines are already unmeetable. This module adds two of the three
mechanisms the daemon composes into a graceful-degradation layer
(DESIGN.md §15); the third, the circuit breaker around the worker
processes, is :class:`~repro.harness.executor.CircuitBreaker`, shared
with the sweep runner:

* :class:`ServiceTimeEstimator` — a rolling per-spec-shape EWMA of
  observed service times, feeding **deadline-aware admission**: a job
  whose estimated queue wait already blows its SLO budget is rejected
  at admission with reason ``"unmeetable-slo"`` and a machine-readable
  ``retry_after_s`` hint, instead of queueing doomed work.
* :class:`BrownoutController` — a daemon-level load state machine
  (``normal → shed-best-effort → shed-low-priority → critical-only``)
  driven by queue depth/age watermarks with hysteresis (distinct enter
  and exit thresholds plus a dwell time between level changes, so the
  level cannot flap tick to tick). Each level sheds and rejects a wider
  band of priority classes; every transition is journaled so a restart
  recovers the exact brownout level.

Environment knobs (all optional; see the README table):

* ``CHIMERA_BROWNOUT_ENTER``   — pressure watermark to escalate one
  level (fraction, default ``0.85``)
* ``CHIMERA_BROWNOUT_EXIT``    — pressure watermark to de-escalate
  (default ``0.5``; must be below the enter watermark)
* ``CHIMERA_BROWNOUT_AGE_S``   — oldest-queued age that counts as
  full (1.0) pressure (default ``30``; ``0`` disables age pressure)
* ``CHIMERA_BROWNOUT_DWELL_S`` — minimum seconds between brownout
  level changes (default ``1.0``)

Priorities ≤ 0 are the best-effort class and priorities ≥ 5 the
critical class; between the two is "low priority".
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.env import env_float
from repro.errors import ConfigError

__all__ = [
    "BROWNOUT_LEVELS",
    "BrownoutController",
    "ServiceTimeEstimator",
    "default_brownout_config",
]

#: Brownout levels, mildest first. The index is the level number that
#: rides on every journaled ``brownout`` meta record.
BROWNOUT_LEVELS = ("normal", "shed-best-effort", "shed-low-priority",
                   "critical-only")


def default_brownout_config() -> Dict[str, float]:
    """Brownout knobs from the ``CHIMERA_BROWNOUT_*`` environment."""
    return {
        "enter_frac": env_float("CHIMERA_BROWNOUT_ENTER", 0.85,
                                minimum=0.0, maximum=1.0),
        "exit_frac": env_float("CHIMERA_BROWNOUT_EXIT", 0.5,
                               minimum=0.0, maximum=1.0),
        "age_full_s": env_float("CHIMERA_BROWNOUT_AGE_S", 30.0,
                                minimum=0.0),
        "dwell_s": env_float("CHIMERA_BROWNOUT_DWELL_S", 1.0, minimum=0.0),
    }


# ----------------------------------------------------------------------
# service-time estimation
# ----------------------------------------------------------------------


class ServiceTimeEstimator:
    """Rolling per-spec-shape EWMA of observed wall service times.

    Specs are keyed by *shape* — ``(kind, labels, policy)`` — not by
    content hash: two periodic runs of the same benchmark under the
    same policy take about as long regardless of seed, which is exactly
    the granularity admission needs. A global EWMA over every
    observation backs per-shape estimates for shapes never seen before;
    with zero observations the estimator declines to guess
    (:meth:`estimate_specs` returns ``None``) and admission stays
    permissive rather than rejecting on fiction.

    Thread-safe: slot threads observe, the tick thread estimates.
    """

    def __init__(self, alpha: float = 0.25):
        if not 0.0 < alpha <= 1.0:
            raise ConfigError("EWMA alpha must be in (0, 1]")
        self.alpha = alpha
        self._lock = threading.Lock()
        self._by_key: Dict[Tuple[Any, ...], float] = {}
        self._global: Optional[float] = None
        #: Observations folded in so far (observability).
        self.samples = 0

    @staticmethod
    def key(spec: Any) -> Tuple[Any, ...]:
        """The shape key of one RunSpec."""
        return (getattr(spec, "kind", None), getattr(spec, "label", None),
                getattr(spec, "labels", None), getattr(spec, "policy", None))

    def observe(self, spec: Any, seconds: float) -> None:
        """Fold one measured service time into the rolling estimates."""
        if seconds < 0:
            return
        key = self.key(spec)
        with self._lock:
            prior = self._by_key.get(key)
            self._by_key[key] = (seconds if prior is None else
                                 prior + self.alpha * (seconds - prior))
            self._global = (seconds if self._global is None else
                            self._global
                            + self.alpha * (seconds - self._global))
            self.samples += 1

    def estimate_spec(self, spec: Any) -> Optional[float]:
        """Estimated service seconds for one spec, or None if the
        estimator has never observed anything."""
        with self._lock:
            per_key = self._by_key.get(self.key(spec))
            return per_key if per_key is not None else self._global

    def estimate_specs(self, specs: Sequence[Any]) -> Optional[float]:
        """Estimated total service seconds of a spec batch, or None."""
        total = 0.0
        for spec in specs:
            est = self.estimate_spec(spec)
            if est is None:
                return None
            total += est
        return total

    def mean_estimate(self) -> Optional[float]:
        """The global EWMA (backs drain-time hints), or None."""
        with self._lock:
            return self._global

    def snapshot(self) -> Dict[str, Any]:
        """Beacon/status form."""
        with self._lock:
            return {"samples": self.samples,
                    "shapes": len(self._by_key),
                    "mean_s": (None if self._global is None
                               else round(self._global, 6))}


# ----------------------------------------------------------------------
# brownout load state machine
# ----------------------------------------------------------------------


class BrownoutController:
    """The daemon's load state machine with watermark hysteresis.

    Pressure is ``max(depth / capacity, oldest_age / age_full_s)``;
    while pressure sits at or above ``enter_frac`` the level escalates
    one step per ``dwell_s``, and while it sits at or below
    ``exit_frac`` it de-escalates one step per ``dwell_s``. Between the
    watermarks the level holds — that band *is* the hysteresis, and the
    dwell stops a shed (which instantly drops depth) from bouncing the
    level back down the very next tick.

    Levels gate two things, by priority class (``best_effort_max`` and
    ``critical_min`` split priorities into best-effort / low /
    critical):

    * **admission** (:meth:`admits`): level 1 rejects new best-effort
      submissions, levels 2+ reject everything below critical;
    * **shedding** (:meth:`sheds`): level 1 sheds queued best-effort
      jobs, level 2 sheds everything below critical *except* jobs with
      checkpointed work (preempted mid-job — their progress is worth
      keeping), and level 3 (``critical-only``) sheds checkpointed
      non-critical jobs too.
    """

    def __init__(self, enter_frac: float = 0.85, exit_frac: float = 0.5,
                 age_full_s: float = 30.0, dwell_s: float = 1.0,
                 best_effort_max: int = 0, critical_min: int = 5,
                 clock: Callable[[], float] = time.monotonic):
        if not 0.0 < enter_frac <= 1.0:
            raise ConfigError("brownout enter watermark must be in (0, 1]")
        if not 0.0 <= exit_frac < enter_frac:
            raise ConfigError(
                "brownout exit watermark must be below the enter watermark")
        if dwell_s < 0 or age_full_s < 0:
            raise ConfigError("brownout dwell/age knobs must be >= 0")
        if best_effort_max >= critical_min:
            raise ConfigError(
                "brownout best_effort_max must be below critical_min")
        self.enter_frac = enter_frac
        self.exit_frac = exit_frac
        self.age_full_s = age_full_s
        self.dwell_s = dwell_s
        self.best_effort_max = best_effort_max
        self.critical_min = critical_min
        self._clock = clock
        self.level = 0
        self.pressure = 0.0
        self._last_change = clock()

    @classmethod
    def from_env(cls, clock: Callable[[], float] = time.monotonic
                 ) -> "BrownoutController":
        return cls(clock=clock, **default_brownout_config())

    @property
    def name(self) -> str:
        """The current level's name (``normal`` .. ``critical-only``)."""
        return BROWNOUT_LEVELS[self.level]

    def restore(self, level: int) -> None:
        """Adopt a journal-recovered level without a new transition."""
        self.level = max(0, min(len(BROWNOUT_LEVELS) - 1, int(level)))
        self._last_change = self._clock()

    def observe(self, depth: int, capacity: int,
                oldest_age_s: Optional[float]) -> Optional[Tuple[int, int]]:
        """Fold one tick's load signal; returns ``(old, new)`` on a
        level change, else None."""
        pressure = depth / capacity if capacity > 0 else 0.0
        if self.age_full_s > 0 and oldest_age_s is not None:
            pressure = max(pressure, oldest_age_s / self.age_full_s)
        self.pressure = pressure
        now = self._clock()
        if now - self._last_change < self.dwell_s:
            return None
        old = self.level
        if pressure >= self.enter_frac and self.level < len(
                BROWNOUT_LEVELS) - 1:
            self.level += 1
        elif pressure <= self.exit_frac and self.level > 0:
            self.level -= 1
        else:
            return None
        self._last_change = now
        return (old, self.level)

    def admits(self, priority: int) -> bool:
        """May a new submission of this priority be admitted now?"""
        if self.level == 0:
            return True
        if self.level == 1:
            return priority > self.best_effort_max
        return priority >= self.critical_min

    def sheds(self, priority: int, protected: bool = False) -> bool:
        """Should a queued job of this priority be shed now?

        ``protected`` marks jobs with checkpointed work (preempted
        mid-job): levels 1–2 keep them, ``critical-only`` sheds them.
        """
        if self.level == 0:
            return False
        if protected and self.level < 3:
            return False
        if self.level == 1:
            return priority <= self.best_effort_max
        return priority < self.critical_min

    def snapshot(self) -> Dict[str, Any]:
        """Beacon/status form."""
        return {"level": self.level, "name": self.name,
                "pressure": round(self.pressure, 4)}
