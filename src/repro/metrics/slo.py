"""SLO accounting for open-arrival traffic scenarios.

Where :mod:`repro.metrics.metrics` scores closed two-benchmark runs
(ANTT/STP over whole benchmarks, deadline violations of one periodic
task), this module scores *traffic*: many tenants submitting kernels on
their own clocks, each arrival carrying its own completion-latency SLO.

The unit of account is the :class:`ArrivalOutcome` — one arrival's
measured lifecycle (arrival, dispatch, finish) plus its estimated
isolated service time. From a list of outcomes :func:`slo_report`
computes:

* per-tenant and overall **SLO attainment** — met / *arrivals*, so an
  arrival the scenario never finished (dropped at the horizon) counts
  as a miss, not a no-show;
* **p50/p99 completion latency** and **p50/p99 preemption latency**
  (interpolated percentiles — see :func:`repro.metrics.metrics.percentile`);
* **goodput under overload** — SLO-met completions per second, the
  number that keeps falling when offered load exceeds capacity even as
  raw throughput saturates;
* **windowed ANTT/STP** — the paper's Equations 1 and 2 applied per
  tumbling window to arrivals finishing inside it, with per-arrival
  NTT = sojourn time / isolated service time.

All report floats are rounded to 4 decimal places so reports are
byte-stable under canonical JSON encoding (the golden-report test
depends on this, exactly like the golden trace fixtures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.errors import ConfigError
from repro.metrics.metrics import antt, percentile, stp
from repro.workloads.traffic import DEFAULT_WINDOW_US

__all__ = ["ArrivalOutcome", "slo_report", "merge_slo_summaries",
           "attainment_of", "service_report"]

#: Rounding applied to every float in a report (byte-stability).
_ROUND = 4


@dataclass(frozen=True)
class ArrivalOutcome:
    """One arrival's measured lifecycle through a scenario."""

    seq: int
    tenant: str
    kernel: str
    priority: int
    t_us: float                    # arrival time
    slo_us: float                  # completion-latency target
    #: Estimated isolated (unshared) service time — the NTT denominator.
    isolated_us: float
    #: When the kernel first occupied SMs; None if never dispatched.
    dispatch_us: Optional[float] = None
    #: When the kernel completed; None if dropped at the horizon.
    finish_us: Optional[float] = None

    def __post_init__(self) -> None:
        if self.isolated_us <= 0:
            raise ConfigError(
                f"arrival {self.tenant}#{self.seq}: isolated_us must be "
                f"positive")
        if self.finish_us is not None and self.finish_us < self.t_us:
            raise ConfigError(
                f"arrival {self.tenant}#{self.seq}: finished before it "
                f"arrived")

    @property
    def completed(self) -> bool:
        """Did the kernel finish before the scenario horizon?"""
        return self.finish_us is not None

    @property
    def latency_us(self) -> Optional[float]:
        """Sojourn time (arrival to completion), or None if dropped."""
        if self.finish_us is None:
            return None
        return self.finish_us - self.t_us

    @property
    def met(self) -> bool:
        """Did this arrival meet its SLO? Dropped arrivals never do."""
        latency = self.latency_us
        return latency is not None and latency <= self.slo_us

    @property
    def ntt(self) -> Optional[float]:
        """Normalized turnaround (sojourn / isolated), or None."""
        latency = self.latency_us
        if latency is None:
            return None
        return max(1.0, latency / self.isolated_us)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (round-trips via :meth:`from_dict`)."""
        return {"seq": self.seq, "tenant": self.tenant,
                "kernel": self.kernel, "priority": self.priority,
                "t_us": self.t_us, "slo_us": self.slo_us,
                "isolated_us": self.isolated_us,
                "dispatch_us": self.dispatch_us,
                "finish_us": self.finish_us}

    @classmethod
    def from_dict(cls, fields: Dict[str, Any]) -> "ArrivalOutcome":
        """Rebuild an outcome from its :meth:`to_dict` form."""
        try:
            return cls(
                seq=int(fields["seq"]), tenant=str(fields["tenant"]),
                kernel=str(fields["kernel"]),
                priority=int(fields["priority"]),
                t_us=float(fields["t_us"]),
                slo_us=float(fields["slo_us"]),
                isolated_us=float(fields["isolated_us"]),
                dispatch_us=(None if fields.get("dispatch_us") is None
                             else float(fields["dispatch_us"])),
                finish_us=(None if fields.get("finish_us") is None
                           else float(fields["finish_us"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed outcome record: {exc}") from exc


def attainment_of(met: int, arrivals: int) -> float:
    """SLO attainment: met over *offered* arrivals (drops are misses)."""
    return met / arrivals if arrivals else 0.0


def _latency_block(latencies: Sequence[float]) -> Dict[str, Any]:
    return {
        "samples": len(latencies),
        "mean": round(sum(latencies) / len(latencies), _ROUND)
        if latencies else 0.0,
        "p50": round(percentile(latencies, 0.50), _ROUND),
        "p99": round(percentile(latencies, 0.99), _ROUND),
        "max": round(max(latencies), _ROUND) if latencies else 0.0,
    }


def _tenant_block(outcomes: Sequence[ArrivalOutcome],
                  horizon_us: float) -> Dict[str, Any]:
    latencies = [o.latency_us for o in outcomes if o.completed]
    met = sum(1 for o in outcomes if o.met)
    return {
        "arrivals": len(outcomes),
        "completed": sum(1 for o in outcomes if o.completed),
        "dropped": sum(1 for o in outcomes if not o.completed),
        "met": met,
        "attainment": round(attainment_of(met, len(outcomes)), _ROUND),
        "goodput_per_s": round(met / (horizon_us / 1e6), _ROUND),
        "latency_us": _latency_block(latencies),
    }


def _windows_block(outcomes: Sequence[ArrivalOutcome], horizon_us: float,
                   window_us: float) -> Dict[str, Any]:
    """Per-tumbling-window ANTT/STP over arrivals finishing inside it."""
    count = max(1, int(horizon_us // window_us))
    buckets: List[List[ArrivalOutcome]] = [[] for _ in range(count)]
    for outcome in outcomes:
        if outcome.finish_us is None:
            continue
        index = min(count - 1, int(outcome.finish_us // window_us))
        buckets[index].append(outcome)
    windows = []
    for i, bucket in enumerate(buckets):
        ntts = [o.ntt for o in bucket if o.ntt is not None]
        windows.append({
            "t0_us": round(i * window_us, _ROUND),
            "completed": len(bucket),
            "antt": round(antt(ntts), _ROUND) if ntts else None,
            "stp": round(stp(ntts), _ROUND) if ntts else 0.0,
        })
    return {"width_us": round(window_us, _ROUND), "windows": windows}


def slo_report(outcomes: Sequence[ArrivalOutcome],
               preemption_latencies_us: Sequence[float],
               horizon_us: float,
               window_us: Optional[float] = None) -> Dict[str, Any]:
    """The full SLO report of one traffic scenario, JSON-ready.

    ``preemption_latencies_us`` are the scheduler's measured preemption
    latencies over the run (from :attr:`SimSystem.records`); they are
    reported alongside but independently of the per-arrival outcomes.
    """
    if horizon_us <= 0:
        raise ConfigError("SLO report needs a positive horizon")
    if window_us is None:
        window_us = DEFAULT_WINDOW_US
    if window_us <= 0:
        raise ConfigError("SLO window must be positive")
    by_tenant: Dict[str, List[ArrivalOutcome]] = {}
    for outcome in outcomes:
        by_tenant.setdefault(outcome.tenant, []).append(outcome)
    met = sum(1 for o in outcomes if o.met)
    completed = [o for o in outcomes if o.completed]
    return {
        "horizon_us": round(horizon_us, _ROUND),
        "arrivals": len(outcomes),
        "completed": len(completed),
        "dropped": len(outcomes) - len(completed),
        "met": met,
        "attainment": round(attainment_of(met, len(outcomes)), _ROUND),
        "offered_per_s": round(len(outcomes) / (horizon_us / 1e6), _ROUND),
        "goodput_per_s": round(met / (horizon_us / 1e6), _ROUND),
        "latency_us": _latency_block([o.latency_us for o in completed]),
        "preemption_us": _latency_block(list(preemption_latencies_us)),
        "tenants": {name: _tenant_block(tenant_outcomes, horizon_us)
                    for name, tenant_outcomes
                    in sorted(by_tenant.items())},
        "sliding": _windows_block(outcomes, horizon_us, window_us),
    }


def merge_slo_summaries(
        summaries: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-spec SLO reports into one per-job aggregate.

    Mirrors :func:`repro.metrics.qos.merge_qos_summaries`: counters
    sum, attainment and goodput are recomputed from the summed
    counters, and latency percentiles merge by completion-weighted
    mean (exact when a job holds one traffic spec — the common case —
    and a documented approximation otherwise; the raw per-spec reports
    stay available in the result file). Deterministic, so the daemon's
    journaled value is reproducible from the result files.
    """
    arrivals = completed = dropped = met = 0
    horizon_us = 0.0
    latency_parts: List[Dict[str, Any]] = []
    preempt_parts: List[Dict[str, Any]] = []
    count = 0
    for summary in summaries:
        if not summary:
            continue
        count += 1
        arrivals += int(summary.get("arrivals", 0) or 0)
        completed += int(summary.get("completed", 0) or 0)
        dropped += int(summary.get("dropped", 0) or 0)
        met += int(summary.get("met", 0) or 0)
        horizon_us += float(summary.get("horizon_us", 0.0) or 0.0)
        if summary.get("latency_us"):
            latency_parts.append(summary["latency_us"])
        if summary.get("preemption_us"):
            preempt_parts.append(summary["preemption_us"])
    if not count:
        return {}
    return {
        "specs": count,
        "horizon_us": round(horizon_us, _ROUND),
        "arrivals": arrivals,
        "completed": completed,
        "dropped": dropped,
        "met": met,
        "attainment": round(attainment_of(met, arrivals), _ROUND),
        "goodput_per_s": round(met / (horizon_us / 1e6), _ROUND)
        if horizon_us > 0 else 0.0,
        "latency_us": _merge_latency_blocks(latency_parts),
        "preemption_us": _merge_latency_blocks(preempt_parts),
    }


def service_report(jobs: Iterable[Any]) -> Dict[str, Any]:
    """Job-level SLO accounting for the scheduling daemon.

    Takes :class:`~repro.service.state.Job` records (anything with
    ``state`` — a value-carrying enum or string — and ``priority``) and
    counts terminal outcomes with overload's miss categories kept
    **distinct**: a job shed by brownout (``shed``) or expired in the
    queue (``timed_out``) is a miss the daemon *chose*, unlike
    ``failed`` (the work broke) or ``killed`` (the client walked away).
    ``attainment`` is completed over all terminal jobs; the per-priority
    breakdown is what the overload acceptance criteria compare (high
    priority must stay ≥ 0.9 while best-effort is shed).
    """
    def bucket() -> Dict[str, int]:
        return {"completed": 0, "failed": 0, "killed": 0, "shed": 0,
                "timed_out": 0, "live": 0}

    overall = bucket()
    by_priority: Dict[int, Dict[str, int]] = {}
    slot = {"completed": "completed", "failed": "failed",
            "killed": "killed", "shed": "shed", "timed-out": "timed_out"}
    for job in jobs:
        state = getattr(job.state, "value", job.state)
        key = slot.get(state, "live")
        overall[key] += 1
        by_priority.setdefault(int(job.priority), bucket())[key] += 1

    def finish(counts: Dict[str, int]) -> Dict[str, Any]:
        terminal = sum(v for k, v in counts.items() if k != "live")
        out: Dict[str, Any] = dict(counts)
        out["terminal"] = terminal
        out["attainment"] = round(
            counts["completed"] / terminal if terminal else 0.0, _ROUND)
        return out

    return {
        **finish(overall),
        "priorities": {str(p): finish(c)
                       for p, c in sorted(by_priority.items())},
    }


def _merge_latency_blocks(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    total = sum(int(p.get("samples", 0) or 0) for p in parts)
    if not total:
        return {"samples": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0,
                "max": 0.0}

    def weighted(key: str) -> float:
        return round(sum(float(p.get(key, 0.0) or 0.0)
                         * int(p.get("samples", 0) or 0)
                         for p in parts) / total, _ROUND)

    return {
        "samples": total,
        "mean": weighted("mean"),
        "p50": weighted("p50"),
        "p99": weighted("p99"),
        "max": round(max(float(p.get("max", 0.0) or 0.0)
                         for p in parts), _ROUND),
    }
