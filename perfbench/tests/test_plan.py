"""The daemon workload's inputs: the seed changes the draws, never the
amount or shape of the work."""

from collections import Counter

import perfbench.run  # noqa: F401 - puts the program's src/ on the path
from perfbench.daemon_workload import MISS_LABELS, plan_batch, plan_jobs


def _plan(seed):
    hot, jobs, offsets = plan_jobs(seed, 240, 8.0)
    mix = Counter(tuple(spec in hot for spec in job.specs) for job in jobs)
    return hot, jobs, offsets, mix


def test_every_seed_gets_the_same_mix():
    # 65% hits only, 25% one miss, 10% two misses (the p95's group).
    expected = {(True,): 144, (True, True): 12, (False,): 48,
                (True, False): 12, (False, False): 24}
    assert _plan(1)[3] == _plan(2)[3] == expected


def test_misses_are_distinct_specs_of_the_even_cost_benchmarks():
    hot, jobs, offsets, _ = _plan(3)
    misses = [spec for job in jobs for spec in job.specs if spec not in hot]
    assert {spec.label for spec in misses} == set(MISS_LABELS)
    assert len({spec.cache_key() for spec in misses}) == len(misses)
    assert offsets == sorted(offsets)
    assert 0.0 <= offsets[0] and offsets[-1] <= 240 / 8.0


def test_batches_differ_only_in_their_spec_seeds():
    def grid(batch):
        return [[(spec.label, spec.policy) for spec in job.specs]
                for job in batch]

    def seeds(batch):
        return [spec.seed for job in batch for spec in job.specs]

    a, b, again = plan_batch(1, 0), plan_batch(2, 0), plan_batch(1, 1)
    assert len(a) == 28 and grid(a) == grid(b) == grid(again)
    assert seeds(a) != seeds(b) and seeds(a) != seeds(again)
    assert seeds(a) == seeds(plan_batch(1, 0))
    assert not {j.job_id for j in a} & {j.job_id for j in again}
