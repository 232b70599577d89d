"""Property-based tests for the preemption QoS guard.

Across randomized stall factors, budget fractions, slack values and
block counts, the guard's mode contracts must hold:

* ``escalate`` — every preemption either lands within
  ``budget × (1 + slack)`` or a VIOLATION event is traced;
* ``strict`` — whenever ``warn`` would have recorded an expiry-time
  violation for the same scenario, strict raises
  :class:`~repro.errors.PreemptionDeadlineError`;
* every completed trace passes the :class:`TraceChecker`, including the
  new ESCALATE/VIOLATION invariants.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.techniques import Technique
from repro.errors import PreemptionDeadlineError
from repro.gpu.config import GPUConfig
from repro.sim import trace as T
from repro.sim.trace_check import TraceChecker

from tests.test_guard import Scenario

# Keep the search small: each example runs a full event-driven
# simulation, and the state space is low-dimensional.
GUARD_SETTINGS = settings(max_examples=25, deadline=None)

scenario_params = st.fixed_dictionaries({
    # How far past its honest estimate the drain stalls (1.0 = on time).
    "stall_factor": st.floats(min_value=1.0, max_value=16.0,
                              allow_nan=False, allow_infinity=False),
    # Budget as a fraction of the honest remaining-time estimate.
    "budget_frac": st.floats(min_value=0.25, max_value=4.0,
                             allow_nan=False, allow_infinity=False),
    "slack": st.floats(min_value=0.0, max_value=1.0,
                       allow_nan=False, allow_infinity=False),
    "n_tbs": st.integers(min_value=1, max_value=3),
})


def _run(mode, params):
    """Run one stalled-drain preemption under ``mode``; returns the
    scenario, the preemption record, and the budget."""
    scenario = Scenario(mode, slack=params["slack"], n_tbs=params["n_tbs"],
                        config=GPUConfig(drain_stall=params["stall_factor"]))
    scenario.engine.run(until=100.0)
    scenario.sm.advance()
    budget = max(tb.remaining_cycles for tb in scenario.tbs)
    budget *= params["budget_frac"]
    assignments = {tb: Technique.DRAIN for tb in scenario.tbs}
    record = scenario.preempt(assignments, budget)
    scenario.engine.run()
    return scenario, record, budget


@GUARD_SETTINGS
@given(params=scenario_params)
def test_escalate_meets_deadline_or_traces_violation(params):
    scenario, record, budget = _run("escalate", params)
    deadline_latency = budget * (1.0 + params["slack"])
    cats = scenario.categories()
    if record.realized_latency > deadline_latency * (1 + 1e-9):
        assert T.VIOLATION in cats, (
            f"late preemption (realized={record.realized_latency}, "
            f"deadline latency={deadline_latency}) left no VIOLATION trace")
    # Ledger agrees with the trace.
    assert scenario.guard.ledger.violations == cats.count(T.VIOLATION)
    assert scenario.guard.pending == 0


@GUARD_SETTINGS
@given(params=scenario_params)
def test_strict_raises_exactly_when_warn_sees_expiry(params):
    warn_scenario, _, _ = _run("warn", params)
    expired = any(
        r.category == T.VIOLATION and r.payload.get("at_expiry")
        for r in warn_scenario.tracer.records)
    try:
        _run("strict", params)
        raised = False
    except PreemptionDeadlineError:
        raised = True
    assert raised == expired


@GUARD_SETTINGS
@given(params=scenario_params,
       mode=st.sampled_from(["off", "warn", "escalate"]))
def test_completed_traces_pass_checker(params, mode):
    scenario, _, _ = _run(mode, params)
    report = TraceChecker().check(scenario.tracer)
    assert report.ok, report.summary()
