"""Unit + property tests for the SM partition policy."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.sched.policy import KernelDemand, compute_partition


def test_even_split_two_kernels():
    demands = [KernelDemand(1, 30), KernelDemand(2, 30)]
    assert compute_partition(demands, 30) == {1: 15, 2: 15}


def test_single_kernel_takes_what_it_needs():
    assert compute_partition([KernelDemand(1, 12)], 30) == {1: 12}


def test_size_bound_kernel_leaves_sms_for_others():
    """Paper: a size-bound kernel requests fewer than the even split;
    the remainder goes to the other kernel."""
    demands = [KernelDemand(1, 4), KernelDemand(2, 30)]
    assert compute_partition(demands, 30) == {1: 4, 2: 26}


def test_both_size_bound_leaves_idle():
    demands = [KernelDemand(1, 3), KernelDemand(2, 5)]
    targets = compute_partition(demands, 30)
    assert targets == {1: 3, 2: 5}
    assert sum(targets.values()) < 30


def test_fixed_demand_served_first():
    demands = [KernelDemand(1, 30, fixed_demand=15), KernelDemand(2, 30)]
    assert compute_partition(demands, 30) == {1: 15, 2: 15}


def test_fixed_demand_capped_by_need():
    demands = [KernelDemand(1, 3, fixed_demand=15), KernelDemand(2, 30)]
    assert compute_partition(demands, 30) == {1: 3, 2: 27}


def test_fixed_demand_capped_by_machine():
    demands = [KernelDemand(1, 40, fixed_demand=40)]
    assert compute_partition(demands, 30) == {1: 30}


def test_odd_split_distributes_remainder():
    demands = [KernelDemand(1, 30), KernelDemand(2, 30), KernelDemand(3, 30)]
    targets = compute_partition(demands, 31)
    assert sum(targets.values()) == 31
    assert sorted(targets.values()) == [10, 10, 11]


def test_no_kernels():
    assert compute_partition([], 30) == {}


def test_zero_sms():
    assert compute_partition([KernelDemand(1, 5)], 0) == {1: 0}


def test_duplicate_keys_rejected():
    with pytest.raises(SchedulingError):
        compute_partition([KernelDemand(1, 5), KernelDemand(1, 3)], 30)


def test_negative_need_rejected():
    with pytest.raises(SchedulingError):
        KernelDemand(1, -1)


def test_negative_num_sms_rejected():
    with pytest.raises(SchedulingError):
        compute_partition([KernelDemand(1, 5)], -1)


def test_every_kernel_gets_at_least_one_sm_when_possible():
    """Starvation avoidance (paper §2.1): with enough SMs, every kernel
    that has work receives at least one."""
    demands = [KernelDemand(i, 30) for i in range(5)]
    targets = compute_partition(demands, 30)
    assert all(v >= 1 for v in targets.values())


@settings(max_examples=100, deadline=None)
@given(
    needs=st.lists(st.integers(0, 64), min_size=1, max_size=8),
    num_sms=st.integers(0, 64),
)
def test_partition_invariants(needs, num_sms):
    demands = [KernelDemand(i, n) for i, n in enumerate(needs)]
    targets = compute_partition(demands, num_sms)
    # Never allocate more than available or more than needed.
    assert sum(targets.values()) <= num_sms
    for demand in demands:
        assert 0 <= targets[demand.key] <= demand.needed_sms
    # Work-conserving: if SMs stay idle, every kernel is saturated.
    if sum(targets.values()) < num_sms:
        for demand in demands:
            assert targets[demand.key] == demand.needed_sms


@settings(max_examples=60, deadline=None)
@given(
    needs=st.lists(st.integers(1, 64), min_size=2, max_size=6),
    num_sms=st.integers(2, 64),
)
def test_partition_fairness(needs, num_sms):
    """No kernel ends more than one SM below another that is not
    saturated (even split up to size-bound caps)."""
    demands = [KernelDemand(i, n) for i, n in enumerate(needs)]
    targets = compute_partition(demands, num_sms)
    unsaturated = [d for d in demands if targets[d.key] < d.needed_sms]
    for a in unsaturated:
        for b in unsaturated:
            assert abs(targets[a.key] - targets[b.key]) <= 1


class TestWeightedPartition:
    """Priority-proportional sharing (weight=1 reproduces even split)."""

    def test_equal_weights_match_even_split(self):
        even = compute_partition(
            [KernelDemand(1, 30), KernelDemand(2, 30)], 30)
        weighted = compute_partition(
            [KernelDemand(1, 30, weight=2.0), KernelDemand(2, 30, weight=2.0)],
            30)
        assert even == weighted

    def test_double_weight_doubles_share(self):
        targets = compute_partition(
            [KernelDemand(1, 30, weight=2.0), KernelDemand(2, 30, weight=1.0)],
            30)
        assert targets == {1: 20, 2: 10}

    def test_weighted_respects_size_bound(self):
        targets = compute_partition(
            [KernelDemand(1, 5, weight=10.0), KernelDemand(2, 30, weight=1.0)],
            30)
        assert targets == {1: 5, 2: 25}

    def test_remainder_goes_to_heaviest(self):
        targets = compute_partition(
            [KernelDemand(1, 31, weight=3.0), KernelDemand(2, 31, weight=1.0)],
            31)
        assert targets[1] > targets[2]
        assert sum(targets.values()) == 31

    def test_invalid_weight_rejected(self):
        with pytest.raises(SchedulingError):
            KernelDemand(1, 5, weight=0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        needs=st.lists(st.integers(0, 64), min_size=1, max_size=6),
        weights=st.lists(st.floats(0.1, 10.0), min_size=6, max_size=6),
        num_sms=st.integers(0, 64),
    )
    def test_weighted_invariants(self, needs, weights, num_sms):
        demands = [KernelDemand(i, n, weight=weights[i])
                   for i, n in enumerate(needs)]
        targets = compute_partition(demands, num_sms)
        assert sum(targets.values()) <= num_sms
        for demand in demands:
            assert 0 <= targets[demand.key] <= demand.needed_sms
        if sum(targets.values()) < num_sms:
            for demand in demands:
                assert targets[demand.key] == demand.needed_sms


# ----------------------------------------------------------------------
# reference equality with many kernels
# ----------------------------------------------------------------------


def reference_partition(demands, num_sms):
    """The straightforward water-fill, kept as the oracle for
    :func:`compute_partition`: per-element lambdas, a full re-sort of
    the hungry kernels every round-robin pass, and a write for every
    kernel whether or not it gets an SM."""
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


def _outcome(fn, demands, num_sms):
    """``fn``'s result as (key order, values), or its error."""
    try:
        targets = fn(demands, num_sms)
    except SchedulingError as exc:
        return ("error", str(exc))
    return ("ok", list(targets.items()))


#: Weights as the scheduler sees them (1 + tenant priority) plus
#: non-integers whose float sums do not round-trip exactly.
TIED_WEIGHTS = st.sampled_from((1.0, 2.0, 3.0, 0.3, 1.7, 0.1, 2.5))
WEIGHTS = st.one_of(TIED_WEIGHTS, st.floats(0.05, 20.0))


def _check_against_reference(rows, num_sms, repeat=None):
    demands = [KernelDemand(key, need, fixed, weight=weight)
               for key, (need, fixed, weight) in enumerate(rows)]
    if repeat is not None and demands:
        demands.append(demands[repeat % len(demands)])
    assert (_outcome(compute_partition, demands, num_sms)
            == _outcome(reference_partition, demands, num_sms))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 64),
                               st.one_of(st.none(), st.integers(0, 64)),
                               WEIGHTS),
                     max_size=300),
       num_sms=st.integers(-2, 64),
       repeat=st.one_of(st.none(), st.integers(0, 299)))
def test_matches_reference(rows, num_sms, repeat):
    """Same dict, same key order and same errors (a repeated key, a
    negative machine) as the reference, up to 300 kernels."""
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
    both sorts' tie-breaks decide the result."""
    _check_against_reference(rows, num_sms)


@pytest.mark.parametrize("bad", [dict(fixed_demand=-1), dict(weight=-0.3)])
def test_demand_validation(bad):
    """The cases ``test_negative_need_rejected`` and
    ``test_invalid_weight_rejected`` leave out."""
    fields = dict(key=1, needed_sms=4, fixed_demand=None, weight=1.0)
    fields.update(bad)
    with pytest.raises(SchedulingError):
        KernelDemand(**fields)
