"""SM partitioning policy (paper §4, "Smart Even" + "Rounds" mix).

SMs are distributed evenly across active kernels, except when a kernel
is size-bound — its grid cannot occupy its even share (at launch, or
near the end when too few thread blocks remain). SMs a size-bound
kernel cannot use go to the others. Kernels with a fixed demand (the
periodic real-time task) take exactly their demand, capped by need.

The partition policy is orthogonal to the preemption decision (paper
§3.1): this module only says *how many* SMs each kernel should hold;
Chimera (or a baseline) decides which SMs move and how.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional

from repro.errors import SchedulingError


@dataclass(frozen=True)
class KernelDemand:
    """One active kernel's appetite for SMs."""

    key: int
    #: SMs the kernel can actually fill: ceil(unfinished TBs / TBs-per-SM).
    needed_sms: int
    #: Hard demand (real-time task); None for ordinary kernels.
    fixed_demand: Optional[int] = None
    #: Relative share weight (priority-proportional partitioning, as in
    #: Tanasic et al.'s priority policies). 1.0 reproduces the paper's
    #: even split.
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.needed_sms < 0:
            raise SchedulingError("needed_sms must be non-negative")
        if self.fixed_demand is not None and self.fixed_demand < 0:
            raise SchedulingError("fixed_demand must be non-negative")
        if self.weight <= 0:
            raise SchedulingError("weight must be positive")


_weight = attrgetter("weight")


def compute_partition(demands: List[KernelDemand], num_sms: int) -> Dict[int, int]:
    """Target SM count per kernel key.

    Fixed-demand kernels are served first (in list order), each taking
    ``min(fixed_demand, needed)``. The remaining SMs are water-filled
    evenly across the flexible kernels, capped by each kernel's need;
    leftover SMs go round-robin to kernels that can still use more.
    SMs nobody can use stay idle.

    The scheduler calls this on every launch, finish, idle SM and
    hand-over with every active kernel, hundreds of them past
    saturation, so the per-kernel work is plain loops and C-level sort
    keys. Every float operation and every tie-break is the
    straightforward water-fill's (``tests/test_partition.py`` keeps it
    as the reference).
    """
    if num_sms < 0:
        raise SchedulingError("num_sms must be non-negative")
    targets: Dict[int, int] = {d.key: 0 for d in demands}
    if len(targets) != len(demands):
        raise SchedulingError("duplicate kernel keys in demands")
    remaining = num_sms

    flexible: List[KernelDemand] = []
    for demand in demands:
        if demand.fixed_demand is None:
            flexible.append(demand)
            continue
        grant = min(demand.fixed_demand, demand.needed_sms, remaining)
        targets[demand.key] = grant
        remaining -= grant

    # Ascending-normalized-need water-fill: size-bound kernels take
    # less than their weighted share, and what they leave re-enters the
    # pool for the rest. Sorting positions by a precomputed key list is
    # the same stable sort as sorting the demands by that key.
    needs = [d.needed_sms / d.weight for d in flexible]
    pending = [flexible[i]
               for i in sorted(range(len(needs)), key=needs.__getitem__)]
    weight_left = sum([d.weight for d in pending])
    for demand in pending:
        weight = demand.weight
        share = int(remaining * weight / weight_left)
        if share:
            # A zero share grants nothing: the kernel's target stays 0.
            grant = min(demand.needed_sms, share)
            targets[demand.key] = grant
            remaining -= grant
        weight_left -= weight

    # Round-robin the remainder (heaviest first, list order among equal
    # weights) to kernels that can still use SMs.
    if remaining > 0:
        by_weight = sorted(flexible, key=_weight, reverse=True)
        while remaining > 0:
            hungry = [d for d in by_weight if targets[d.key] < d.needed_sms]
            if not hungry:
                break
            for demand in hungry[:remaining]:
                targets[demand.key] += 1
            remaining -= min(remaining, len(hungry))
    return targets
