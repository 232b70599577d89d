"""Kernel runtime instances for the fluid-timing GPU model.

A :class:`Kernel` owns a grid of thread blocks handed out lazily from
its :class:`~repro.workloads.specs.KernelSpec`. Per-TB instruction
counts are drawn lognormally around the spec's mean and the first
non-idempotent point (for non-idempotent kernels) is drawn from the
spec's Beta distribution — clustered near the end of the block, as the
paper observes. All draws for the grid are batched at construction
(one pass per stream) rather than made per thread block; the per-stream
draw order is identical, so traces match the per-TB formulation bit for
bit.

The kernel also accumulates the statistics Chimera's online cost model
needs and the counters the experiment harness reports.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import SimulationError
from repro.gpu.threadblock import ThreadBlock
from repro.sim.rng import RngStreams

if TYPE_CHECKING:  # pragma: no cover - avoids a gpu<->workloads cycle
    from repro.workloads.specs import KernelSpec

#: Process-unique kernel ids, used as dict keys. The runners name
#: every kernel they build, so no result depends on an id's value.
_kernel_ids = itertools.count()


class KernelStats:
    """Counters accumulated over a kernel instance's lifetime."""

    __slots__ = (
        "tbs_completed", "insts_retired", "cycles_retired", "insts_discarded",
        "stall_insts", "idle_slot_insts", "tb_insts_sumsq", "tb_insts_max",
    )

    def __init__(self) -> None:
        self.tbs_completed = 0
        self.insts_retired = 0.0
        self.cycles_retired = 0.0
        #: Sum of squared per-TB instruction counts (for the cost
        #: model's conservative drain estimate).
        self.tb_insts_sumsq = 0.0
        #: Largest completed-TB instruction count seen so far.
        self.tb_insts_max = 0.0
        #: Work thrown away by flushing (re-executed instructions).
        self.insts_discarded = 0.0
        #: Work forgone while context save/load DMAs stall blocks.
        self.stall_insts = 0.0
        #: Work forgone while preemption holds SM slots idle.
        self.idle_slot_insts = 0.0

    @property
    def wasted_insts(self) -> float:
        """Total throughput overhead in instructions (paper §3.2 units)."""
        return self.insts_discarded + self.stall_insts + self.idle_slot_insts


class Kernel:
    """A launched kernel: a grid of thread blocks plus statistics."""

    def __init__(self, spec: KernelSpec, grid_tbs: int, rng: RngStreams,
                 name: Optional[str] = None, clock_mhz: float = 1400.0):
        if grid_tbs < 1:
            raise SimulationError(f"kernel {spec.label}: grid must have >= 1 TB")
        self.kernel_id = next(_kernel_ids)
        self.spec = spec
        self.grid_tbs = grid_tbs
        self.name = name or f"{spec.label}/k{self.kernel_id}"
        self.clock_mhz = clock_mhz
        self._rng = rng
        self._next_index = 0
        self.stats = KernelStats()
        self.launch_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        #: Blocks currently resident on SMs (for live-progress queries),
        #: keyed by TB index. Insertion-ordered like the list it
        #: replaced, but removal is O(1) — retirement is the fluid
        #: model's hottest path and the map can hold ~a hundred blocks.
        self._live: Dict[int, ThreadBlock] = {}
        self._mean_tb_insts = spec.mean_tb_instructions(clock_mhz)
        # The whole grid's randomness is drawn in one batch per stream at
        # construction instead of 3 RNG calls per make_tb(). Per-stream
        # draw order is unchanged (streams are independent and each
        # benchmark label's kernels consume their streams sequentially),
        # so traces are bit-identical to the per-TB draws.
        label = spec.label
        totals = rng.lognormal_batch(f"tb:{label}", self._mean_tb_insts,
                                     spec.tb_cv, grid_tbs)
        self._tb_totals = [t if t > 1.0 else 1.0 for t in totals]
        # Per-TB wall-clock jitter enters through the rate.
        tb_rate = spec.tb_rate
        self._tb_rates = [
            tb_rate / jitter
            for jitter in rng.lognormal_batch(f"cpi:{label}", 1.0,
                                              spec.cpi_cv, grid_tbs)
        ]
        if spec.idempotent:
            self._nonidem_fracs: Optional[List[float]] = None
        else:
            self._nonidem_fracs = rng.beta_batch(f"idem:{label}",
                                                 *spec.nonidem_beta, grid_tbs)

    # ------------------------------------------------------------------
    # grid generation
    # ------------------------------------------------------------------

    @property
    def mean_tb_insts(self) -> float:
        """Mean instructions per block (measured or oracle)."""
        return self._mean_tb_insts

    def make_tb(self) -> ThreadBlock:
        """Generate the next thread block of the grid."""
        index = self._next_index
        if index >= self.grid_tbs:
            raise SimulationError(f"kernel {self.name}: grid exhausted")
        self._next_index = index + 1
        total = self._tb_totals[index]
        if self._nonidem_fracs is None:
            nonidem_at = math.inf
        else:
            nonidem_at = self._nonidem_fracs[index] * total
        return ThreadBlock(self, index, total, self._tb_rates[index], nonidem_at)

    @property
    def undispatched_tbs(self) -> int:
        """Fresh blocks never handed out yet (excludes preempted ones)."""
        return self.grid_tbs - self._next_index

    # ------------------------------------------------------------------
    # residency + completion tracking
    # ------------------------------------------------------------------

    def note_resident(self, tb: ThreadBlock) -> None:
        """Track a block placed on an SM."""
        self._live[tb.index] = tb

    def note_off_sm(self, tb: ThreadBlock) -> None:
        """Track a block leaving an SM."""
        try:
            del self._live[tb.index]
        except KeyError:
            raise SimulationError(f"{tb!r} was not resident") from None

    def note_completed(self, tb: ThreadBlock) -> None:
        """Retire a finished block into the statistics."""
        self.note_off_sm(tb)
        self.stats.tbs_completed += 1
        self.stats.insts_retired += tb.total_insts
        self.stats.cycles_retired += tb.executed_cycles
        self.stats.tb_insts_sumsq += tb.total_insts * tb.total_insts
        if tb.total_insts > self.stats.tb_insts_max:
            self.stats.tb_insts_max = tb.total_insts

    @property
    def finished(self) -> bool:
        """True once every grid block retired."""
        return self.stats.tbs_completed >= self.grid_tbs

    def live_progress_insts(self, now: float) -> float:
        """Instructions executed by currently-resident blocks up to now."""
        total = 0.0
        for tb in self._live.values():
            tb.advance_to(now)
            total += tb.executed_insts
        return total

    def useful_insts(self, now: float) -> float:
        """Retired plus live-but-not-yet-retired instructions.

        Saved (context-switched-out) blocks keep their progress; that
        progress is *not* counted here until they retire, matching how a
        hardware instruction counter would report committed work. The
        small understatement is identical across policies.
        """
        return self.stats.insts_retired + self.live_progress_insts(now)

    # ------------------------------------------------------------------
    # online statistics for the cost model (paper §3.2)
    # ------------------------------------------------------------------

    def observed_mean_tb_insts(self) -> Optional[float]:
        """Mean instructions per completed TB, or None before the first
        completion (the cost model then uses its conservative maximum)."""
        if self.stats.tbs_completed == 0:
            return None
        return self.stats.insts_retired / self.stats.tbs_completed

    def observed_max_tb_insts(self) -> Optional[float]:
        """Largest completed-TB instruction count, or None before the
        first completion."""
        if self.stats.tbs_completed == 0:
            return None
        return self.stats.tb_insts_max

    def observed_std_tb_insts(self) -> Optional[float]:
        """Standard deviation of instructions per completed TB, or None
        until two blocks have completed."""
        n = self.stats.tbs_completed
        if n < 2:
            return None
        mean = self.stats.insts_retired / n
        variance = max(0.0, self.stats.tb_insts_sumsq / n - mean * mean)
        return math.sqrt(variance)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Kernel {self.name} {self.stats.tbs_completed}/{self.grid_tbs} done>")


__all__ = ["Kernel", "KernelStats"]
