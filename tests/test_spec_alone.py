"""A run's result depends on its spec alone.

The sweep cache and the daemon replay a result by
``RunSpec.cache_key()``, so nothing outside the spec may reach the
result: not what ran earlier in the process, not a simulation running
beside it in another thread, not the process it runs in. The machine
perturbations that exercise the QoS guard, ``drain_stall`` and
``estimate_skew``, are :class:`~repro.gpu.config.GPUConfig` fields for
that reason. Hypothesis draws short sequences of small periodic and
pair specs, each clean or perturbed, adds every spec's twin with the
perturbation flipped, and requires each spec's result digest to agree
across four legs:

* run in a fresh interpreter, the first spec first;
* run after all the others, in this process;
* run in a thread while its twin runs in another;
* run on a forked ``SweepRunner(jobs=2)`` worker with the cache off.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from hypothesis import example, given, settings, strategies as st

import repro
from repro.gpu.config import GPUConfig
from repro.harness.cache import ResultCache
from repro.harness.sweep import RunSpec, SweepRunner
from repro.workloads.multiprogram import MultiprogramWorkload
from tests.test_fluid_differential import _canonical

SMALL = dict(num_sms=4, num_memory_partitions=2,
             memory_bandwidth_gbps=177.4 * 4 / 30)
PERIODIC_LABELS = ("BS", "HS", "KM", "FWT")
PAIRS = (("LUD", "BS"), ("HS", "KM"), ("BS", "KM"))
CLEAN = dict(drain_stall=1.0, estimate_skew=1.0)
PERTURBATIONS = (dict(drain_stall=8.0), dict(estimate_skew=0.25),
                 dict(drain_stall=4.0, estimate_skew=0.5))

#: Executes the pickled specs on stdin in order; pickles the results.
CHILD = ("import pickle, sys\n"
         "specs = pickle.load(sys.stdin.buffer)\n"
         "pickle.dump([s.execute() for s in specs], sys.stdout.buffer)\n")

#: The run whose skew once hit whichever kernel a process built first:
#: it gave another result run first in a process than run second.
PROBE = RunSpec.periodic("BS", "chimera", periods=2, seed=3,
                         config=GPUConfig(estimate_skew=0.1))


@st.composite
def small_specs(draw):
    config = GPUConfig(qos_mode=draw(st.sampled_from(("off", "escalate"))),
                       **SMALL,
                       **draw(st.sampled_from((CLEAN,) + PERTURBATIONS)))
    policy = draw(st.sampled_from(("chimera", "drain")))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    if draw(st.booleans()):
        return RunSpec.periodic(draw(st.sampled_from(PERIODIC_LABELS)),
                                policy, periods=2, seed=seed, config=config)
    workload = MultiprogramWorkload(draw(st.sampled_from(PAIRS)), 1e6)
    return RunSpec.pair(workload, policy, seed=seed, config=config)


def twin(spec: RunSpec) -> RunSpec:
    """``spec`` with its perturbation flipped: clean if it had one,
    else stalled and skewed."""
    config = spec.config
    clean = config.drain_stall == 1.0 and config.estimate_skew == 1.0
    flipped = PERTURBATIONS[-1] if clean else CLEAN
    return dataclasses.replace(
        spec, config=dataclasses.replace(config, **flipped))


def digest(result) -> str:
    return hashlib.sha256(_canonical(result).encode()).hexdigest()[:16]


def in_fresh_interpreter(specs):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-c", CHILD], input=pickle.dumps(specs),
        capture_output=True, check=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))
    return [digest(r) for r in pickle.loads(done.stdout)]


def beside_twins(specs, twins):
    """Run each spec and its twin in two threads at once, switching
    between them as often as the interpreter allows; the digests of
    the specs, then of the twins."""
    def run(spec, barrier):
        barrier.wait()
        return digest(spec.execute())

    digests = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            for pair in zip(specs, twins):
                barrier = threading.Barrier(2, timeout=60)
                futures = [pool.submit(run, spec, barrier) for spec in pair]
                digests.append([f.result(timeout=120) for f in futures])
    finally:
        sys.setswitchinterval(interval)
    return [d[0] for d in digests] + [d[1] for d in digests]


@settings(max_examples=8, deadline=None)
@given(specs=st.lists(small_specs(), min_size=1, max_size=3))
@example(specs=[PROBE])
def test_digest_depends_on_the_spec_alone(specs):
    twins = [twin(spec) for spec in specs]
    batch = specs + twins
    first = in_fresh_interpreter(batch)
    after = [digest(spec.execute()) for spec in reversed(batch)][::-1]
    assert after == first
    assert beside_twins(specs, twins) == first
    runner = SweepRunner(jobs=2, cache=ResultCache(enabled=False))
    assert [digest(r) for r in runner.run(batch)] == first


def test_probe_skew_changes_its_result():
    """The explicit example above is a real perturbation."""
    assert digest(PROBE.execute()) != digest(twin(PROBE).execute())
