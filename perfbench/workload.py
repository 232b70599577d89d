"""What every workload is given and what it hands back."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional


@dataclass
class Context:
    """One invocation's fixed inputs."""

    #: Root of the checkout (holds ``src/`` and ``perfbench/``).
    root: Path
    #: Scratch directory for this invocation, inside the checkout.
    scratch: Path
    seed: int
    seconds: int
    #: Pool and slot width (sweep ``jobs``, daemon ``--workers``).
    width: int
    #: Open-loop arrival rate of the daemon workload, jobs per second.
    rate_per_s: float

    def env(self, **extra: str) -> Dict[str, str]:
        """Environment for a child Python running the program from source."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env.update(extra)
        return env

    def fresh_dir(self, name: str) -> Path:
        path = self.scratch / name
        path.mkdir(parents=True, exist_ok=False)
        return path


@dataclass
class Outcome:
    """One measured (or traced) pass over a workload."""

    #: Seconds from input to finished output: the median grid or the
    #: mean replay for the simulator workloads, the median closed-batch
    #: makespan for the daemon.
    wall_s: float
    #: Per-operation latencies, ms: per spec of a grid (start of the
    #: sweep to its cache entry), per arrival of a replay (host time
    #: from its launch to its completion), or per open-loop job (due
    #: time to its COMPLETED record).
    latencies_ms: List[float]
    attempted: int
    failed: int
    #: Canonical digest of the simulated results.
    digest: str
    #: Simulated-time metrics: name -> (value, unit, better, paper value).
    sim: Dict[str, tuple] = field(default_factory=dict)
    #: Output checks: name -> passed.
    checks: Dict[str, bool] = field(default_factory=dict)
    #: Per-layer values measured from outside the program.
    layer: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: Seconds the pass spent in set-up, when the pass set itself up.
    setup_s: Optional[float] = None
    #: For an open loop: jobs were still outstanding when arrivals
    #: stopped, and the backlog was growing, so the latencies are not
    #: steady-state figures. None for a pass without an open loop.
    overloaded: Optional[bool] = None
    #: Spans recorded during a traced pass, grouped by process.
    spans: Optional[Dict[int, list]] = None
