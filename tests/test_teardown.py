"""A finished run frees its simulation graph by reference counting.

Every runner closes its :class:`SimSystem` once the result is built
(:meth:`SimSystem.close`). So with the cyclic collector off, dropping
the result must leave no system, engine, kernel or thread block of the
run behind: nothing of it may wait for a full collection.
"""

from __future__ import annotations

import gc

import pytest

from repro.gpu.kernel import Kernel
from repro.gpu.threadblock import ThreadBlock
from repro.harness.runner import SimSystem, run_pair, run_periodic, run_solo
from repro.sched.kernel_scheduler import SchedulerMode
from repro.sim.engine import Engine
from repro.workloads.multiprogram import MultiprogramWorkload
from tests.test_saturated import run_saturated

GRAPH = (SimSystem, Engine, Kernel, ThreadBlock)


def _graph_objects() -> list:
    return [o for o in gc.get_objects() if type(o) in GRAPH]


def left_behind(run) -> list:
    """Type names of the graph objects that ``run()`` created and that
    outlive its dropped result, with the cyclic collector off."""
    gc.collect()
    gc.disable()
    try:
        before = _graph_objects()  # held, so no id is reused
        known = {id(o) for o in before}
        result = run()
        del result
        return sorted(type(o).__name__ for o in _graph_objects()
                      if id(o) not in known)
    finally:
        gc.enable()


PAIR = MultiprogramWorkload(("LUD", "BS"), budget_insts=2e6)

RUNS = {
    # Stops with real-time kernels and hand-overs still open.
    "periodic": lambda: run_periodic("FWT", "chimera", periods=2, seed=3),
    # Ends at the drain cut-off with dozens of kernels still resident.
    "traffic": run_saturated,
    "pair": lambda: run_pair(PAIR, "chimera", seed=1),
    "fcfs-pair": lambda: run_pair(PAIR, None, mode=SchedulerMode.FCFS,
                                  seed=1),
    "solo": lambda: run_solo("BS", 2e6, seed=1),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_dropped_result_leaves_no_graph(name):
    assert left_behind(RUNS[name]) == []


def test_closed_engine_has_nothing_pending():
    fired = []
    engine = Engine()
    event = engine.schedule(5.0, lambda: fired.append(1))
    engine.clear()
    assert engine.pending_events == 0
    assert event.callback is None
    engine.run()
    assert fired == []
