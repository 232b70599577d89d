"""Unit + property tests for the SM partition policy."""

from __future__ import annotations

from typing import NamedTuple, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.sched.policy import PartitionOrder, compute_partition


class Demand(NamedTuple):
    """One kernel's appetite for SMs, as the reference reads it."""

    key: int
    needed_sms: int
    fixed_demand: Optional[int] = None
    weight: float = 1.0


def order_of(demands) -> PartitionOrder:
    """A partition order holding ``demands``, launched in list order."""
    order = PartitionOrder()
    for d in demands:
        order.add(d.key, d.needed_sms, d.fixed_demand, d.weight)
    return order


def partition(demands, num_sms):
    """The walk over ``demands`` launched in list order."""
    return compute_partition(order_of(demands), num_sms)


def test_even_split_two_kernels():
    demands = [Demand(1, 30), Demand(2, 30)]
    assert partition(demands, 30) == {1: 15, 2: 15}


def test_single_kernel_takes_what_it_needs():
    assert partition([Demand(1, 12)], 30) == {1: 12}


def test_size_bound_kernel_leaves_sms_for_others():
    """Paper: a size-bound kernel requests fewer than the even split;
    the remainder goes to the other kernel."""
    demands = [Demand(1, 4), Demand(2, 30)]
    assert partition(demands, 30) == {1: 4, 2: 26}


def test_both_size_bound_leaves_idle():
    demands = [Demand(1, 3), Demand(2, 5)]
    targets = partition(demands, 30)
    assert targets == {1: 3, 2: 5}
    assert sum(targets.values()) < 30


def test_fixed_demand_served_first():
    demands = [Demand(1, 30, fixed_demand=15), Demand(2, 30)]
    assert partition(demands, 30) == {1: 15, 2: 15}


def test_fixed_demand_capped_by_need():
    demands = [Demand(1, 3, fixed_demand=15), Demand(2, 30)]
    assert partition(demands, 30) == {1: 3, 2: 27}


def test_fixed_demand_capped_by_machine():
    demands = [Demand(1, 40, fixed_demand=40)]
    assert partition(demands, 30) == {1: 30}


def test_odd_split_distributes_remainder():
    demands = [Demand(1, 30), Demand(2, 30), Demand(3, 30)]
    targets = partition(demands, 31)
    assert sum(targets.values()) == 31
    assert sorted(targets.values()) == [10, 10, 11]


def test_no_kernels():
    assert partition([], 30) == {}


def test_zero_sms():
    """Nobody gets an SM, so the result names nobody."""
    assert partition([Demand(1, 5)], 0) == {}


def test_duplicate_keys_rejected():
    order = order_of([Demand(1, 5)])
    with pytest.raises(SchedulingError, match="duplicate kernel key 1"):
        order.add(1, 3)
    assert len(order) == 1


def test_negative_need_rejected():
    with pytest.raises(SchedulingError, match="needed_sms"):
        PartitionOrder().add(1, -1)
    order = order_of([Demand(1, 5)])
    with pytest.raises(SchedulingError, match="needed_sms"):
        order.set_need(1, -1)


def test_negative_num_sms_rejected():
    with pytest.raises(SchedulingError, match="num_sms"):
        partition([Demand(1, 5)], -1)


def test_every_kernel_gets_at_least_one_sm_when_possible():
    """Starvation avoidance (paper §2.1): with enough SMs, every kernel
    that has work receives at least one."""
    demands = [Demand(i, 30) for i in range(5)]
    targets = partition(demands, 30)
    assert sorted(targets) == list(range(5))
    assert all(v >= 1 for v in targets.values())


@settings(max_examples=100, deadline=None)
@given(
    needs=st.lists(st.integers(0, 64), min_size=1, max_size=8),
    num_sms=st.integers(0, 64),
)
def test_partition_invariants(needs, num_sms):
    demands = [Demand(i, n) for i, n in enumerate(needs)]
    targets = partition(demands, num_sms)
    # Never allocate more than available or more than needed.
    assert sum(targets.values()) <= num_sms
    for demand in demands:
        assert 0 <= targets.get(demand.key, 0) <= demand.needed_sms
    assert 0 not in targets.values()
    # Work-conserving: if SMs stay idle, every kernel is saturated.
    if sum(targets.values()) < num_sms:
        for demand in demands:
            assert targets.get(demand.key, 0) == demand.needed_sms


@settings(max_examples=60, deadline=None)
@given(
    needs=st.lists(st.integers(1, 64), min_size=2, max_size=6),
    num_sms=st.integers(2, 64),
)
def test_partition_fairness(needs, num_sms):
    """No kernel ends more than one SM below another that is not
    saturated (even split up to size-bound caps)."""
    demands = [Demand(i, n) for i, n in enumerate(needs)]
    targets = partition(demands, num_sms)
    unsaturated = [targets.get(d.key, 0) for d in demands
                   if targets.get(d.key, 0) < d.needed_sms]
    for a in unsaturated:
        for b in unsaturated:
            assert abs(a - b) <= 1


class TestWeightedPartition:
    """Priority-proportional sharing (weight=1 reproduces even split)."""

    def test_equal_weights_match_even_split(self):
        even = partition([Demand(1, 30), Demand(2, 30)], 30)
        weighted = partition(
            [Demand(1, 30, weight=2.0), Demand(2, 30, weight=2.0)], 30)
        assert even == weighted

    def test_double_weight_doubles_share(self):
        targets = partition(
            [Demand(1, 30, weight=2.0), Demand(2, 30, weight=1.0)], 30)
        assert targets == {1: 20, 2: 10}

    def test_weighted_respects_size_bound(self):
        targets = partition(
            [Demand(1, 5, weight=10.0), Demand(2, 30, weight=1.0)], 30)
        assert targets == {1: 5, 2: 25}

    def test_remainder_goes_to_heaviest(self):
        targets = partition(
            [Demand(1, 31, weight=3.0), Demand(2, 31, weight=1.0)], 31)
        assert targets[1] > targets[2]
        assert sum(targets.values()) == 31

    def test_round_robin_repeats_passes(self):
        """A rounded weight sum can leave more SMs after the water-fill
        than kernels that can take one: the round-robin then runs pass
        after pass. Here ``1 + w`` rounds up, so the light kernel's
        share is 12 of 20, and it takes the other 8 one pass at a
        time."""
        demands = [Demand(0, 1), Demand(1, 100, weight=0.6 * 2.0 ** -52)]
        assert partition(demands, 21) == {0: 1, 1: 20}
        assert partition(demands, 21) == reference_nonzero(demands, 21)

    def test_invalid_weight_rejected(self):
        for weight in (0.0, float("nan"), float("inf")):
            with pytest.raises(SchedulingError, match="weight"):
                PartitionOrder().add(1, 5, weight=weight)

    @settings(max_examples=50, deadline=None)
    @given(
        needs=st.lists(st.integers(0, 64), min_size=1, max_size=6),
        weights=st.lists(st.floats(0.1, 10.0), min_size=6, max_size=6),
        num_sms=st.integers(0, 64),
    )
    def test_weighted_invariants(self, needs, weights, num_sms):
        demands = [Demand(i, n, weight=weights[i])
                   for i, n in enumerate(needs)]
        targets = partition(demands, num_sms)
        assert sum(targets.values()) <= num_sms
        for demand in demands:
            assert 0 <= targets.get(demand.key, 0) <= demand.needed_sms
        if sum(targets.values()) < num_sms:
            for demand in demands:
                assert targets.get(demand.key, 0) == demand.needed_sms


# ----------------------------------------------------------------------
# reference equality with many kernels
# ----------------------------------------------------------------------


def reference_partition(demands, num_sms):
    """The straightforward water-fill, kept as the oracle for
    :func:`compute_partition`: a sort of every kernel per call,
    per-element lambdas, a full re-sort of the hungry kernels every
    round-robin pass, and a target for every kernel whether or not it
    gets an SM."""
    if num_sms < 0:
        raise SchedulingError("num_sms must be non-negative")
    targets = {d.key: 0 for d in demands}
    if len(targets) != len(demands):
        raise SchedulingError("duplicate kernel keys in demands")
    remaining = num_sms

    for demand in demands:
        if demand.fixed_demand is None:
            continue
        grant = min(demand.fixed_demand, demand.needed_sms, remaining)
        targets[demand.key] = grant
        remaining -= grant

    flexible = [d for d in demands if d.fixed_demand is None]
    pending = sorted(flexible, key=lambda d: d.needed_sms / d.weight)
    weight_left = sum(d.weight for d in pending)
    for demand in pending:
        share = int(remaining * demand.weight / weight_left)
        grant = min(demand.needed_sms, share)
        targets[demand.key] = grant
        remaining -= grant
        weight_left -= demand.weight

    while remaining > 0:
        hungry = sorted((d for d in flexible
                         if targets[d.key] < d.needed_sms),
                        key=lambda d: -d.weight)
        if not hungry:
            break
        for demand in hungry:
            if remaining == 0:
                break
            targets[demand.key] += 1
            remaining -= 1
    return targets


def reference_nonzero(demands, num_sms):
    """The reference's nonzero targets, in its (list) order."""
    return {key: target
            for key, target in reference_partition(demands, num_sms).items()
            if target}


def _outcome(fn, demands, num_sms):
    """``fn``'s result as its (key, target) items in order, or "error".
    The walk rejects a repeated key when the kernel enters and the
    reference when it partitions, so only the fact of an error is
    compared; the unit tests above pin each message."""
    try:
        targets = fn(demands, num_sms)
    except SchedulingError:
        return "error"
    return list(targets.items())


#: Weights as the scheduler sees them (1 + tenant priority) plus
#: non-integers whose float sums do not round-trip exactly.
TIED_WEIGHTS = st.sampled_from((1.0, 2.0, 3.0, 0.3, 1.7, 0.1, 2.5))
WEIGHTS = st.one_of(TIED_WEIGHTS, st.floats(0.05, 20.0))


def _check_against_reference(rows, num_sms, repeat=None):
    demands = [Demand(key, need, fixed, weight=weight)
               for key, (need, fixed, weight) in enumerate(rows)]
    if repeat is not None and demands:
        demands.append(demands[repeat % len(demands)])
    assert (_outcome(partition, demands, num_sms)
            == _outcome(reference_nonzero, demands, num_sms))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 64),
                               st.one_of(st.none(), st.integers(0, 64)),
                               WEIGHTS),
                     max_size=300),
       num_sms=st.integers(-2, 64),
       repeat=st.one_of(st.none(), st.integers(0, 299)))
def test_matches_reference(rows, num_sms, repeat):
    """The reference's nonzero targets in its key order, and an error
    where it errs (a repeated key, a negative machine), up to 300
    kernels."""
    _check_against_reference(rows, num_sms, repeat)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 12),
                               st.one_of(st.none(), st.integers(0, 6)),
                               TIED_WEIGHTS),
                     max_size=8),
       num_sms=st.integers(0, 24))
def test_matches_reference_on_ties(rows, num_sms):
    """Few kernels with tied needs and weights: the regime where SMs
    are left over for the round-robin, so its heaviest-first order and
    both orders' tie-breaks decide the result."""
    _check_against_reference(rows, num_sms)


@pytest.mark.parametrize("bad", [dict(fixed_demand=-1), dict(weight=-0.3)])
def test_demand_validation(bad):
    """The cases ``test_negative_need_rejected`` and
    ``test_invalid_weight_rejected`` leave out; a rejected kernel does
    not enter."""
    fields = dict(key=1, needed_sms=4, fixed_demand=None, weight=1.0)
    fields.update(bad)
    order = PartitionOrder()
    with pytest.raises(SchedulingError):
        order.add(**fields)
    assert len(order) == 0


# ----------------------------------------------------------------------
# the order as kernels launch, retire blocks, finish and die
# ----------------------------------------------------------------------

LAUNCH = st.tuples(st.just("launch"), st.integers(0, 40),
                   st.one_of(st.none(), st.none(), st.integers(0, 6)),
                   WEIGHTS)
SHRINK = st.tuples(st.just("shrink"), st.integers(0, 10 ** 6),
                   st.integers(1, 12))
FINISH = st.tuples(st.just("finish"), st.integers(0, 10 ** 6))
KILL = st.tuples(st.just("kill"), st.integers(0, 10 ** 6))


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(st.one_of(LAUNCH, LAUNCH, SHRINK, SHRINK, FINISH,
                                KILL),
                      max_size=80),
       num_sms=st.integers(0, 30))
def test_order_tracks_launches_retirements_and_exits(steps, num_sms):
    """After every step of a random run, the walk over the kept order
    equals the reference over demands built afresh from the run's
    current state, in the same key order. A retirement shrinks one
    kernel's need; a finish retires its last block and leaves; a kill
    leaves at whatever need it had."""
    order = PartitionOrder()
    live = {}  # key -> Demand, in launch order
    launches = 0
    for step in steps:
        kind = step[0]
        if kind == "launch":
            _, need, fixed, weight = step
            live[launches] = Demand(launches, need, fixed, weight)
            order.add(launches, need, fixed, weight)
            launches += 1
        elif live:
            key = list(live)[step[1] % len(live)]
            if kind == "shrink":
                need = max(0, live[key].needed_sms - step[2])
                live[key] = live[key]._replace(needed_sms=need)
                order.set_need(key, need)
            else:
                if kind == "finish":
                    order.set_need(key, 0)
                del live[key]
                order.remove(key)
        assert len(order) == len(live)
        assert (list(compute_partition(order, num_sms).items())
                == list(reference_nonzero(list(live.values()),
                                          num_sms).items()))
