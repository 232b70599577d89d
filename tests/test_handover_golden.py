"""Golden hand-over regression test: every way a block leaves a
preempting SM.

A preempted block leaves its SM by one of seven paths: a planned flush,
a completed context save, a switch that abandons an in-flight restore
DMA, a drain that runs to completion, and the QoS guard's three
escalations (drain→flush, drain→switch, save→flush). Three small
scenarios cover all seven. For each, the hand-over trace lines (PREEMPT,
FLUSH, SWITCH, DRAIN, ESCALATE, VIOLATION, RELEASE) and every
:class:`~repro.gpu.sm.PreemptionRecord`'s ``techniques`` (in key
order), ``tb_events`` and ``escalations`` are compared byte-for-byte
against ``tests/data/golden_handover.jsonl``.

``tests/test_fluid_differential.py`` cannot see these paths: its
reference SM inherits ``preempt``, ``escalate`` and ``_finish_save``
from the runtime class, so it compares them with themselves.

Regenerate with ``python tests/test_handover_golden.py`` only for an
intended change in hand-over behaviour.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterator, List

from repro.gpu.config import GPUConfig
from repro.harness import runner
from repro.harness.runner import run_pair, run_periodic
from repro.sim import trace as T
from repro.sim.trace import Tracer
from repro.workloads.multiprogram import MultiprogramWorkload

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "golden_handover.jsonl")

HANDOVER_CATEGORIES = {T.PREEMPT, T.FLUSH, T.SWITCH, T.DRAIN, T.ESCALATE,
                       T.VIOLATION, T.RELEASE}

#: The hand-over paths the scenarios must cover, as :func:`paths` names
#: them.
PATHS = ("flush", "saved-switch", "load-abandon", "drain", "drain->flush",
         "drain->switch", "switch->flush")

ESCALATE = GPUConfig(qos_mode="escalate")
STALLED = GPUConfig(qos_mode="escalate", drain_stall=8.0)

#: name -> (runner, kwargs)
SCENARIOS = {
    # Planned flushes and switches, a switch of a block still loading
    # its context, drains, and stalled drains escalated to flush.
    "pair LUD+BS chimera": (
        run_pair, dict(workload=MultiprogramWorkload(("LUD", "BS"), 2e6),
                       policy_name="chimera", seed=7, config=STALLED)),
    # Stalled drains of blocks past their non-idempotent point
    # escalated to a context switch.
    "periodic FWT flush": (
        run_periodic, dict(label="FWT", policy_name="flush", periods=1,
                           seed=7, config=STALLED)),
    # Context saves that outlive the budget, escalated to flush.
    "periodic HS switch": (
        run_periodic, dict(label="HS", policy_name="switch", periods=1,
                           seed=7, config=ESCALATE)),
}


def _line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@contextmanager
def _capture_systems() -> Iterator[List[runner.SimSystem]]:
    """Collect the :class:`SimSystem` a runner builds, for its records."""
    systems: List[runner.SimSystem] = []
    base = runner.SimSystem

    class Capturing(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            systems.append(self)

    runner.SimSystem = Capturing
    try:
        yield systems
    finally:
        runner.SimSystem = base


def scenario_lines(name: str) -> List[str]:
    """Hand-over trace lines, then one line per preemption record."""
    run, kwargs = SCENARIOS[name]
    tracer = Tracer(categories=HANDOVER_CATEGORIES, capacity=10**6)
    with _capture_systems() as systems:
        run(tracer=tracer, **kwargs)
    lines = [_line({"scenario": name})]
    lines += [_line({"t": r.time, "cat": r.category, "msg": r.message,
                     "data": r.payload}) for r in tracer.records]
    for record in systems[0].records:
        lines.append(_line({"record": {
            "sm": record.sm_id, "kernel": record.kernel_name,
            "request": record.request_time, "release": record.release_time,
            # A list keeps the dict's key order, which reports print.
            "techniques": [[tech.value, count]
                           for tech, count in record.techniques.items()],
            "tb_events": record.tb_events,
            "escalations": record.escalations}}))
    return lines


def paths(lines: List[str]) -> Counter:
    """Count each hand-over path in golden-format lines."""
    planned: Dict[tuple, str] = {}
    counts: Counter = Counter()
    for line in lines:
        rec = json.loads(line)
        cat, data = rec.get("cat"), rec.get("data")
        if cat == T.PREEMPT:
            for tb in data["tbs"]:
                planned[(data["sm"], tb["tb"])] = tb["tech"]
        elif cat == T.FLUSH:
            # One watchdog per preemption: an escalated block was still
            # in its planned technique.
            counts[planned[(data["sm"], data["tb"])] + "->flush"
                   if data.get("escalated") else "flush"] += 1
        elif cat == T.SWITCH:
            counts["load-abandon" if data["from_load"]
                   else "saved-switch"] += 1
        elif cat == T.DRAIN:
            counts["drain"] += 1
        elif cat == T.ESCALATE:
            counts.update("drain->switch" for tech in data["plan"].values()
                          if tech == "switch")
    return counts


def _golden_lines() -> List[str]:
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        return handle.read().splitlines()


class TestHandoverGolden:
    def test_matches_golden_bytes(self):
        assert [line for name in SCENARIOS
                for line in scenario_lines(name)] == _golden_lines(), (
            "hand-over behaviour changed; if intentional, regenerate with "
            "`python tests/test_handover_golden.py`")

    def test_golden_covers_every_path(self):
        assert set(paths(_golden_lines())) == set(PATHS)


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        for name in SCENARIOS:
            handle.writelines(line + "\n" for line in scenario_lines(name))
    print(f"wrote {GOLDEN}")
