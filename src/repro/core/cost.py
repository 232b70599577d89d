"""Preemption cost estimation (paper §3.2).

Chimera estimates, for every resident thread block and every technique,
a *preemption latency* in cycles and a *throughput overhead* in
instructions, from two hardware counters per block: executed
instructions (warp granularity) and occupied cycles. Both estimates use
only information a real scheduler would have:

* **Switch** — latency is the block's context over the SM's bandwidth
  share; overhead is the block's rate times twice that latency (save +
  restore stall).
* **Drain** — the block's total instruction count is unknown to
  hardware, so it is bounded from the kernel's completed blocks:
  ``max(mean + 3σ, observed max)`` (``safety_sigmas`` defaults to 3;
  see :meth:`OnlineKernelStats.conservative_tb_insts`). The bound is
  trusted only after ``MIN_SAMPLES`` (8) completions; before that, and
  once the block has executed past the bound, the latency is
  ``CONSERVATIVE``. Otherwise the latency is the bound minus the
  block's executed count, times the block's observed CPI. Overhead is
  the executed-instruction spread below the furthest block on the SM.
* **Flush** — zero latency, overhead equal to the executed instructions
  that would be discarded. Unavailable once the block has passed its
  non-idempotent point (or, under the strict condition, whenever the
  kernel is non-idempotent).

When a statistic is missing (e.g. no block of the kernel has completed
yet), the paper "conservatively uses the maximum value as the estimated
cost"; we use ``math.inf`` so affected techniques sort last and never
pass a latency check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.techniques import Technique
from repro.errors import PreemptionError
from repro.gpu.config import GPUConfig
from repro.gpu.threadblock import ThreadBlock

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.sm import StreamingMultiprocessor

#: Conservative stand-in when a statistic is unavailable.
CONSERVATIVE = math.inf


@dataclass(frozen=True)
class TBCost:
    """Estimated cost of preempting one block with one technique."""

    tb: ThreadBlock
    technique: Technique
    latency_cycles: float
    overhead_insts: float

    def meets_latency(self, limit_cycles: float) -> bool:
        """True when the estimated latency fits the limit."""
        return self.latency_cycles <= limit_cycles


@dataclass
class SMPlan:
    """A per-block technique assignment for one SM, with SM-level cost."""

    sm: "StreamingMultiprocessor"
    assignments: Dict[ThreadBlock, Technique] = field(default_factory=dict)
    latency_cycles: float = 0.0
    overhead_insts: float = 0.0
    #: Per-block estimates behind the assignments, for tracing and
    #: post-hoc calibration of predicted vs realized latency.
    costs: Dict[ThreadBlock, TBCost] = field(default_factory=dict)

    def meets_latency(self, limit_cycles: float) -> bool:
        """True when the estimated latency fits the limit."""
        return self.latency_cycles <= limit_cycles

    def technique_counts(self) -> Dict[Technique, int]:
        """Blocks per technique in this plan."""
        counts: Dict[Technique, int] = {}
        for tech in self.assignments.values():
            counts[tech] = counts.get(tech, 0) + 1
        return counts


class OnlineKernelStats:
    """The per-kernel statistics view the cost model is allowed to see.

    Wraps a :class:`~repro.gpu.kernel.Kernel` and exposes only
    measurable aggregates. An ``oracle`` variant (ablation) reads the
    true per-block totals instead.
    """

    #: Completed blocks required before the mean/stddev are trusted.
    #: The first completions are biased small (short blocks finish
    #: first), so a lone sample badly underestimates drain latency.
    MIN_SAMPLES = 8

    def __init__(self, kernel, oracle: bool = False):
        self.kernel = kernel
        self.oracle = oracle

    def mean_tb_insts(self, tb: Optional[ThreadBlock] = None) -> Optional[float]:
        """Mean instructions per block (measured or oracle)."""
        if self.oracle and tb is not None:
            return tb.total_insts
        if self.kernel.stats.tbs_completed < self.MIN_SAMPLES:
            return None
        return self.kernel.observed_mean_tb_insts()

    def conservative_tb_insts(self, tb: Optional[ThreadBlock],
                              safety_sigmas: float) -> Optional[float]:
        """Conservative per-TB size: the observed maximum, floored by
        mean plus a variance headroom.

        The paper §3.2 "conservatively uses the maximum value" when
        statistics are lacking and §4.1 suggests headroom against the
        residual drain-estimation error; tracking the all-time maximum
        keeps the estimate sound even for heavy-tailed kernels where a
        k-sigma margin is routinely exceeded.
        """
        mean = self.mean_tb_insts(tb)
        if mean is None or self.oracle:
            return mean
        bound = mean
        std = self.kernel.observed_std_tb_insts()
        if std is not None:
            bound = mean + safety_sigmas * std
        biggest = self.kernel.observed_max_tb_insts()
        if biggest is not None:
            bound = max(bound, biggest)
        return bound

    def tb_cpi(self, tb: ThreadBlock) -> Optional[float]:
        """Cycles per instruction at thread-block granularity.

        Prefers the block's own counters (always measurable while it is
        resident); falls back to the kernel aggregate over completed
        blocks; None if neither exists yet.
        """
        if self.oracle:
            return 1.0 / tb.rate
        if tb.executed_insts > 0 and tb.executed_cycles > 0:
            return tb.executed_cycles / tb.executed_insts
        stats = self.kernel.stats
        if stats.insts_retired > 0:
            return stats.cycles_retired / stats.insts_retired
        return None


class CostEstimator:
    """Implements the paper's per-technique cost estimates."""

    #: Variance headroom on the drain estimate, in standard deviations
    #: of the kernel's observed per-TB instruction count.
    DEFAULT_SAFETY_SIGMAS = 3.0

    def __init__(self, config: GPUConfig, oracle: bool = False,
                 strict_idempotence: bool = False,
                 safety_sigmas: Optional[float] = None):
        self.config = config
        self.oracle = oracle
        self.strict_idempotence = strict_idempotence
        self.safety_sigmas = (self.DEFAULT_SAFETY_SIGMAS
                              if safety_sigmas is None else safety_sigmas)

    # ------------------------------------------------------------------
    # per-technique estimates
    # ------------------------------------------------------------------

    def switch_cost(self, tb: ThreadBlock, stats: OnlineKernelStats) -> TBCost:
        """Context-switch cost of one block (paper formula)."""
        latency = self.config.context_switch_cycles(tb.context_bytes)
        cpi = stats.tb_cpi(tb)
        if cpi is None or cpi <= 0:
            overhead = CONSERVATIVE
        else:
            overhead = 2.0 * latency / cpi
        return TBCost(tb, Technique.SWITCH,
                      latency * self.config.estimate_skew, overhead)

    def drain_cost(self, tb: ThreadBlock, stats: OnlineKernelStats,
                   max_executed: float) -> TBCost:
        """Drain cost of one block from the online statistics."""
        total = stats.conservative_tb_insts(tb, self.safety_sigmas)
        cpi = stats.tb_cpi(tb)
        if total is None or cpi is None or cpi <= 0:
            latency = CONSERVATIVE
        elif tb.executed_insts >= total:
            # The block already outran the conservative size estimate:
            # it is an outlier and nothing bounds its remaining work.
            latency = CONSERVATIVE
        else:
            remaining = total - tb.executed_insts
            latency = remaining * cpi
        overhead = max(0.0, max_executed - tb.executed_insts)
        return TBCost(tb, Technique.DRAIN,
                      latency * self.config.estimate_skew, overhead)

    def flush_cost(self, tb: ThreadBlock) -> Optional[TBCost]:
        """None when flushing is illegal for this block right now."""
        if self.strict_idempotence:
            flushable = tb.kernel.spec.idempotent
        else:
            flushable = tb.idempotent_now
        if not flushable:
            return None
        return TBCost(tb, Technique.FLUSH, self.config.flush_reset_cycles,
                      tb.executed_insts)

    def tb_costs(self, tb: ThreadBlock, stats: OnlineKernelStats,
                 max_executed: float,
                 techniques: Sequence[Technique]) -> List[TBCost]:
        """All available (technique, cost) options for one block."""
        out: List[TBCost] = []
        for tech in techniques:
            if tech is Technique.SWITCH:
                out.append(self.switch_cost(tb, stats))
            elif tech is Technique.DRAIN:
                out.append(self.drain_cost(tb, stats, max_executed))
            elif tech is Technique.FLUSH:
                cost = self.flush_cost(tb)
                if cost is not None:
                    out.append(cost)
        return out

    # ------------------------------------------------------------------
    # SM-level aggregation
    # ------------------------------------------------------------------

    def combine(self, sm: "StreamingMultiprocessor",
                chosen: Dict[ThreadBlock, TBCost]) -> SMPlan:
        """Fold per-block choices into an SM plan.

        The SM's latency is the worst of: the longest drain, the total
        serialized context-save DMA, and the flush reset. Overheads add.
        """
        plan = SMPlan(sm=sm)
        switch_latency_total = 0.0
        max_drain = 0.0
        max_flush = 0.0
        for tb, cost in chosen.items():
            plan.assignments[tb] = cost.technique
            plan.costs[tb] = cost
            plan.overhead_insts += cost.overhead_insts
            if cost.technique is Technique.SWITCH:
                switch_latency_total += cost.latency_cycles
            elif cost.technique is Technique.DRAIN:
                max_drain = max(max_drain, cost.latency_cycles)
            else:
                max_flush = max(max_flush, cost.latency_cycles)
        plan.latency_cycles = max(switch_latency_total, max_drain, max_flush)
        return plan

    def plan_for_sm(self, sm: "StreamingMultiprocessor", limit_cycles: float,
                    techniques: Sequence[Technique]) -> SMPlan:
        """Algorithm 1, inner loop (lines 2-17): per-block selection.

        Costs are sorted by throughput overhead; each block takes the
        cheapest technique that meets the latency limit; blocks that
        cannot meet it with any technique fall back to context switching
        (or to draining when switching is not in the technique set).
        """
        blocks = sm.resident_snapshot()
        if not blocks:
            return SMPlan(sm=sm)
        stats_by_kernel: Dict[int, OnlineKernelStats] = {}
        for tb in blocks:
            key = id(tb.kernel)
            if key not in stats_by_kernel:
                stats_by_kernel[key] = OnlineKernelStats(tb.kernel, self.oracle)
        max_executed = max(tb.executed_insts for tb in blocks)

        all_costs: List[TBCost] = []
        for tb in blocks:
            stats = stats_by_kernel[id(tb.kernel)]
            all_costs.extend(self.tb_costs(tb, stats, max_executed, techniques))
        # Ties in overhead (e.g. identical switch costs) break toward
        # protecting the most-progressed blocks: flushing those later
        # would throw away the most work.
        all_costs.sort(key=lambda c: (c.overhead_insts, c.latency_cycles,
                                      -c.tb.executed_insts))

        # Context-save DMAs of co-selected blocks serialize on the SM's
        # bandwidth share, so a switch candidate is checked against the
        # cumulative DMA time, not its own in isolation.
        chosen: Dict[ThreadBlock, TBCost] = {}
        switch_dma_used = 0.0
        for cost in all_costs:
            if cost.tb in chosen:
                continue
            if cost.technique is Technique.SWITCH:
                if switch_dma_used + cost.latency_cycles <= limit_cycles:
                    chosen[cost.tb] = cost
                    switch_dma_used += cost.latency_cycles
            elif cost.meets_latency(limit_cycles):
                chosen[cost.tb] = cost
        # Fallback for blocks no technique could cover within the limit
        # (paper Algorithm 1 lines 14-16 context-switches them): switch
        # while the serialized DMA budget lasts, then drain — a switch
        # past the budget is guaranteed late, whereas a drain is merely
        # *estimated* late under the conservative headroom.
        for tb in blocks:
            if tb in chosen:
                continue
            stats = stats_by_kernel[id(tb.kernel)]
            switch = (self.switch_cost(tb, stats)
                      if Technique.SWITCH in techniques else None)
            if (switch is not None
                    and switch_dma_used + switch.latency_cycles <= limit_cycles):
                chosen[tb] = switch
                switch_dma_used += switch.latency_cycles
            else:
                chosen[tb] = self.drain_cost(tb, stats, max_executed)
        if set(chosen) != set(blocks):
            raise PreemptionError("cost model failed to cover all resident blocks")
        return self.combine(sm, chosen)
