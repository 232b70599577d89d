"""Machine description (the paper's Table 1) and derived quantities.

The default configuration models the Fermi-class GPU the paper
simulates: 30 SMs at 1400 MHz, 8-wide SIMT, 32768 registers and 48 kB of
shared memory per SM, at most 8 resident thread blocks per SM, and a
memory subsystem with 6 partitions totalling 177.4 GB/s.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.units import KB, bytes_per_cycle, us_to_cycles

#: Preemption-QoS guard modes (see :mod:`repro.sched.guard`):
#: ``off`` keeps the passive violation ledger only, ``warn`` detects
#: budget overruns at the deadline and emits VIOLATION trace events,
#: ``escalate`` re-plans lagging blocks toward cheaper techniques, and
#: ``strict`` aborts the run with
#: :class:`~repro.errors.PreemptionDeadlineError`.
QOS_MODES = ("off", "warn", "escalate", "strict")

#: Default watchdog slack on top of the preemption latency budget.
DEFAULT_QOS_SLACK = 0.25


def _default_qos_mode() -> str:
    """QoS guard mode from ``CHIMERA_QOS_MODE`` (default ``off``)."""
    return os.environ.get("CHIMERA_QOS_MODE", "").strip().lower() or "off"


def _default_qos_slack() -> float:
    """Watchdog slack fraction from ``CHIMERA_QOS_SLACK``."""
    raw = os.environ.get("CHIMERA_QOS_SLACK", "").strip()
    if not raw:
        return DEFAULT_QOS_SLACK
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(
            f"CHIMERA_QOS_SLACK must be a number, got {raw!r}") from exc


@dataclass(frozen=True)
class GPUConfig:
    """Immutable machine description.

    Attributes mirror Table 1 of the paper; extra fields parameterize
    the synthetic substrate (documented in DESIGN.md §5).
    """

    num_sms: int = 30
    clock_mhz: float = 1400.0
    simt_width: int = 8
    registers_per_sm: int = 32768
    max_tbs_per_sm: int = 8
    shared_memory_bytes: int = 48 * KB
    num_memory_partitions: int = 6
    memory_bandwidth_gbps: float = 177.4

    #: Fixed pipeline-reset cost of flushing an SM, in cycles. The paper
    #: treats flush latency as zero; a handful of cycles models the
    #: reset circuit without changing any conclusion.
    flush_reset_cycles: float = 0.0

    #: Scheduling overhead charged per preemption decision, in cycles.
    decision_overhead_cycles: float = 0.0

    #: Preemption-QoS guard mode (one of :data:`QOS_MODES`). Defaults
    #: to ``CHIMERA_QOS_MODE`` at construction time so sweeps inherit
    #: the knob through the environment (and it participates in the
    #: RunSpec cache key, like every other config field).
    qos_mode: str = field(default_factory=_default_qos_mode)

    #: Watchdog slack: the guard's enforcement deadline is
    #: ``budget × (1 + qos_slack)``. Defaults to ``CHIMERA_QOS_SLACK``.
    qos_slack: float = field(default_factory=_default_qos_slack)

    #: Straggler drain: a block put into drain takes this multiple of
    #: its remaining time. Perturbs the machine so the QoS guard's
    #: detection and escalation branches fire on purpose.
    drain_stall: float = 1.0

    #: Cost-model skew: multiplies the switch and drain latencies the
    #: cost model predicts (not the flush latency), so a skew below 1
    #: under-predicts and the realized latency overruns the plan.
    estimate_skew: float = 1.0

    def __post_init__(self) -> None:
        if self.num_sms < 1:
            raise ConfigError("num_sms must be >= 1")
        if self.clock_mhz <= 0:
            raise ConfigError("clock_mhz must be positive")
        if self.simt_width < 1:
            raise ConfigError("simt_width must be >= 1")
        if self.max_tbs_per_sm < 1:
            raise ConfigError("max_tbs_per_sm must be >= 1")
        if self.memory_bandwidth_gbps <= 0:
            raise ConfigError("memory_bandwidth_gbps must be positive")
        if self.num_memory_partitions < 1:
            raise ConfigError("num_memory_partitions must be >= 1")
        if self.shared_memory_bytes < 0 or self.registers_per_sm < 0:
            raise ConfigError("per-SM storage sizes must be non-negative")
        if self.qos_mode not in QOS_MODES:
            raise ConfigError(
                f"qos_mode must be one of {QOS_MODES}, got {self.qos_mode!r}")
        if self.qos_slack < 0:
            raise ConfigError("qos_slack must be >= 0")
        for name in ("drain_stall", "estimate_skew"):
            value = getattr(self, name)
            if not (0 < value < math.inf):
                raise ConfigError(
                    f"{name} must be positive and finite, got {value!r}")

    @property
    def bandwidth_bytes_per_cycle(self) -> float:
        """Aggregate DRAM bandwidth in bytes per core cycle."""
        return bytes_per_cycle(self.memory_bandwidth_gbps, self.clock_mhz)

    @property
    def sm_bandwidth_bytes_per_cycle(self) -> float:
        """One SM's even share of DRAM bandwidth, in bytes per cycle.

        The paper estimates context-switch latency assuming an SM has
        only its share of global memory bandwidth for context traffic.
        """
        return self.bandwidth_bytes_per_cycle / self.num_sms

    def us(self, us_value: float) -> float:
        """Convert microseconds to cycles under this config's clock."""
        return us_to_cycles(us_value, self.clock_mhz)

    def context_switch_cycles(self, context_bytes: int) -> float:
        """Cycles to move ``context_bytes`` over one SM's bandwidth share.

        This is the one-way (save *or* load) cost; the paper doubles it
        when charging throughput overhead.
        """
        if context_bytes < 0:
            raise ConfigError("context size must be non-negative")
        return context_bytes / self.sm_bandwidth_bytes_per_cycle

    def describe(self) -> str:
        """Human-readable Table 1 style dump."""
        lines = [
            f"SM                {self.num_sms} SMs, {self.clock_mhz:.0f} MHz, "
            f"{self.simt_width} SIMT width",
            f"                  {self.registers_per_sm} registers per SM",
            f"                  {self.max_tbs_per_sm} maximum thread blocks per SM",
            f"                  {self.shared_memory_bytes // KB} kB shared memory",
            f"Memory Subsystem  {self.num_memory_partitions} memory partitions",
            f"                  {self.memory_bandwidth_gbps} GB/s bandwidth",
        ]
        return "\n".join(lines)


#: The paper's evaluated machine.
FERMI_30SM = GPUConfig()
