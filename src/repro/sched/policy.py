"""SM partitioning policy (paper §4, "Smart Even" + "Rounds" mix).

SMs are distributed evenly across active kernels, except when a kernel
is size-bound — its grid cannot occupy its even share (at launch, or
near the end when too few thread blocks remain). SMs a size-bound
kernel cannot use go to the others. Kernels with a fixed demand (the
periodic real-time task) take exactly their demand, capped by need.

The partition policy is orthogonal to the preemption decision (paper
§3.1): this module only says *how many* SMs each kernel should hold;
Chimera (or a baseline) decides which SMs move and how.

The scheduler recomputes the partition on every launch, finish, idle
SM and hand-over, with hundreds of kernels active past saturation, of
which only the few holding an SM can change between two calls. So the
active kernels are kept in the partition's own order as they enter,
shrink and leave (:class:`PartitionOrder`), and :func:`compute_partition`
walks that order once, with no sort.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import attrgetter
from typing import Dict, List, Optional

from repro.errors import SchedulingError


class _Slot:
    """One kernel's place in a :class:`PartitionOrder`."""

    __slots__ = ("key", "seq", "need", "fixed", "weight", "fill_key",
                 "heavy_key")

    def __init__(self, key: int, seq: int, need: int,
                 fixed: Optional[int], weight: float):
        self.key = key
        self.seq = seq
        self.need = need
        self.fixed = fixed
        self.weight = weight
        self.fill_key = (need / weight, seq)
        self.heavy_key = (-weight, seq)


_seq = attrgetter("seq")
_fill_key = attrgetter("fill_key")
_heavy_key = attrgetter("heavy_key")


class PartitionOrder:
    """The active kernels, kept in the order the partition reads them.

    Each kernel has a key, an SM need (``ceil(unfinished blocks /
    blocks per SM)``: the SMs it can actually fill), an optional fixed
    demand (the real-time task) and a share weight (1.0 reproduces the
    paper's even split; priority-proportional partitioning as in
    Tanasic et al. gives heavier kernels more). Three sequences hold
    them:

    * fixed-demand kernels, in launch order;
    * flexible kernels by ``(need / weight, launch seq)``: the
      water-fill order;
    * flexible kernels by ``(-weight, launch seq)``: heaviest first, the
      round-robin order.

    The launch sequence is the order of :meth:`add` calls. A kernel
    enters with :meth:`add`, moves with :meth:`set_need` and leaves with
    :meth:`remove`; each is a binary search plus a list insert or
    delete. ``len()`` counts every kernel, fixed and flexible.
    """

    __slots__ = ("_slots", "_fixed", "_fill", "_fill_weights", "_heavy",
                 "_launches")

    def __init__(self) -> None:
        self._slots: Dict[int, _Slot] = {}
        self._fixed: List[_Slot] = []
        self._fill: List[_Slot] = []
        #: The flexible weights in water-fill order, for the C-level sum.
        self._fill_weights: List[float] = []
        self._heavy: List[_Slot] = []
        self._launches = 0

    def __len__(self) -> int:
        return len(self._slots)

    def add(self, key: int, needed_sms: int,
            fixed_demand: Optional[int] = None, weight: float = 1.0) -> None:
        """Enter a kernel behind every kernel already in the order."""
        if key in self._slots:
            raise SchedulingError(f"duplicate kernel key {key}")
        if needed_sms < 0:
            raise SchedulingError("needed_sms must be non-negative")
        if fixed_demand is not None and fixed_demand < 0:
            raise SchedulingError("fixed_demand must be non-negative")
        if not 0.0 < weight < math.inf:
            raise SchedulingError("weight must be positive and finite")
        slot = _Slot(key, self._launches, needed_sms, fixed_demand, weight)
        self._launches += 1
        self._slots[key] = slot
        if fixed_demand is not None:
            self._fixed.append(slot)
            return
        self._enter_fill(slot)
        heavy = self._heavy
        heavy.insert(bisect_left(heavy, slot.heavy_key, key=_heavy_key),
                     slot)

    def set_need(self, key: int, needed_sms: int) -> None:
        """Record a kernel's new SM need, moving it in the water-fill."""
        slot = self._slots[key]
        if needed_sms == slot.need:
            return
        if needed_sms < 0:
            raise SchedulingError("needed_sms must be non-negative")
        if slot.fixed is not None:
            slot.need = needed_sms
            return
        self._leave_fill(slot)
        slot.need = needed_sms
        slot.fill_key = (needed_sms / slot.weight, slot.seq)
        self._enter_fill(slot)

    def remove(self, key: int) -> None:
        """Take a kernel out of the order."""
        slot = self._slots.pop(key)
        if slot.fixed is not None:
            self._fixed.remove(slot)
            return
        self._leave_fill(slot)
        heavy = self._heavy
        del heavy[bisect_left(heavy, slot.heavy_key, key=_heavy_key)]

    def _enter_fill(self, slot: _Slot) -> None:
        at = bisect_left(self._fill, slot.fill_key, key=_fill_key)
        self._fill.insert(at, slot)
        self._fill_weights.insert(at, slot.weight)

    def _leave_fill(self, slot: _Slot) -> None:
        # Launch sequences are unique, so the key finds exactly this slot.
        at = bisect_left(self._fill, slot.fill_key, key=_fill_key)
        del self._fill[at]
        del self._fill_weights[at]


def compute_partition(order: PartitionOrder, num_sms: int) -> Dict[int, int]:
    """The kernels that get SMs and how many, in launch order.

    Fixed-demand kernels are served first (in launch order), each taking
    ``min(fixed_demand, needed)``. The remaining SMs are water-filled
    across the flexible kernels in ascending ``need / weight``, each
    taking its weighted share of what is left, capped by its need, so
    SMs a size-bound kernel cannot use re-enter the pool for the rest.
    Leftover SMs go round-robin, heaviest first, to kernels that can
    still use more. SMs nobody can use stay idle. Kernels that get no
    SM are left out of the result: at most ``num_sms`` kernels are in
    it, however many are active.

    One pass over the order. Every float operation is the plain
    water-fill's, in its order (``reference_partition`` in
    ``tests/test_partition.py`` keeps that as the oracle): the ``sum``
    of the flexible weights in water-fill order, ``remaining * weight /
    weight_left`` truncated by ``int()``, and the sequential
    ``weight_left -= weight``. The division is skipped only where its
    share is zero: for ``0 <= product < weight_left``, ``int(product /
    weight_left)`` is zero, since the correctly rounded quotient of two
    floats reaches 1 only if the real one does. A ``weight_left`` of
    zero or less, or a negative product, still runs it (and fails or
    grants as it always did). Weights are finite
    (:meth:`PartitionOrder.add`), so neither comparison meets a NaN.
    """
    if num_sms < 0:
        raise SchedulingError("num_sms must be non-negative")
    targets: Dict[_Slot, int] = {}
    remaining = num_sms

    for slot in order._fixed:
        grant = min(slot.fixed, slot.need, remaining)
        if grant:
            targets[slot] = grant
            remaining -= grant

    weights = order._fill_weights
    weight_left = sum(weights)
    for slot, weight in zip(order._fill, weights):
        product = remaining * weight
        if product >= weight_left or product < 0.0:
            share = int(product / weight_left)
            if share:
                grant = min(slot.need, share)
                targets[slot] = grant
                remaining -= grant
        weight_left -= weight

    # Round-robin passes, heaviest first (launch order among equal
    # weights), one SM per kernel that can still use one, until the SMs
    # or the takers run out. A kernel's hunger is read before its own
    # grant in a pass, and no other grant changes it.
    while remaining > 0:
        before = remaining
        for slot in order._heavy:
            target = targets.get(slot, 0)
            if target < slot.need:
                targets[slot] = target + 1
                remaining -= 1
                if not remaining:
                    break
        if remaining == before:
            break

    granted = [slot for slot, target in targets.items() if target]
    granted.sort(key=_seq)  # at most num_sms kernels
    return {slot.key: targets[slot] for slot in granted}
