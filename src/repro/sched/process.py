"""Benchmark processes: sequences of kernel launches with restart.

A :class:`BenchmarkProcess` models one CPU process offloading a
benchmark's kernels to the GPU back-to-back. When the last kernel of an
execution finishes the process either terminates or restarts from the
beginning (the paper restarts finished benchmarks so the survivors never
run alone, but reports statistics only for each benchmark's first
*budget* instructions or first complete execution, whichever comes
first).
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

from repro.errors import SchedulingError
from repro.gpu.kernel import Kernel
from repro.workloads.specs import KernelSpec
from repro.workloads.synthetic import SyntheticKernelFactory


class ProcessState(enum.Enum):
    """Lifecycle of a benchmark process."""
    READY = "ready"        # next kernel not yet launched
    RUNNING = "running"    # a kernel is on the GPU
    FINISHED = "finished"  # no restart and the plan is exhausted


class BenchmarkProcess:
    """One benchmark's stream of kernel launches."""

    def __init__(self, label: str, factory: SyntheticKernelFactory,
                 budget_insts: float, restart: bool = True,
                 plan: Optional[List[Tuple[KernelSpec, int]]] = None,
                 weight: float = 1.0):
        if weight <= 0:
            raise SchedulingError(f"process {label}: weight must be positive")
        self.label = label
        self.factory = factory
        self.budget_insts = budget_insts
        self.restart = restart
        #: Share weight used by the priority-proportional partition.
        self.weight = weight
        self.plan = plan if plan is not None else factory.launch_plan_for_label(label)
        if not self.plan:
            raise SchedulingError(f"process {label}: empty launch plan")
        self.state = ProcessState.READY
        self._position = 0
        self.executions_completed = 0
        self.current_kernel: Optional[Kernel] = None
        self._last_sample: Optional[Tuple[float, float]] = None  # (t, useful)
        #: Every kernel instance ever launched (for accounting).
        self.kernels: List[Kernel] = []
        #: Simulation time when the metric target was first reached.
        self.metric_time: Optional[float] = None
        #: Time of the first complete execution.
        self.first_execution_time: Optional[float] = None

    # ------------------------------------------------------------------
    # launch sequencing
    # ------------------------------------------------------------------

    def next_kernel(self) -> Kernel:
        """Instantiate the next kernel in the plan."""
        if self.state is ProcessState.FINISHED:
            raise SchedulingError(f"process {self.label} already finished")
        if self.current_kernel is not None:
            raise SchedulingError(f"process {self.label}: kernel already running")
        spec, grid = self.plan[self._position]
        exe = self.executions_completed
        kernel = self.factory.build(
            spec, grid_tbs=grid,
            name=f"{self.label}.{spec.index}e{exe}i{self._position}")
        self.current_kernel = kernel
        self.kernels.append(kernel)
        self.state = ProcessState.RUNNING
        return kernel

    def on_kernel_finished(self, kernel: Kernel, now: float) -> bool:
        """Advance the plan. Returns True if another kernel follows
        immediately (host code between kernels is assumed negligible)."""
        if kernel is not self.current_kernel:
            raise SchedulingError(f"process {self.label}: unexpected kernel finish")
        self.current_kernel = None
        self._position += 1
        if self._position < len(self.plan):
            self.state = ProcessState.READY
            return True
        # One full execution done.
        self.executions_completed += 1
        if self.first_execution_time is None:
            self.first_execution_time = now
            if self.metric_time is None:
                self.metric_time = now
        self._position = 0
        if self.restart:
            self.state = ProcessState.READY
            return True
        self.state = ProcessState.FINISHED
        return False

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def useful_insts(self, now: float) -> float:
        """Committed + live instructions across all launches (restarts
        included — the paper keeps restarted benchmarks running purely
        for contention, and the budget check below stops recording)."""
        return sum(k.useful_insts(now) for k in self.kernels)

    def wasted_insts(self) -> float:
        """Preemption-attributable waste across all launches."""
        return sum(k.stats.wasted_insts for k in self.kernels)

    def check_budget(self, now: float) -> None:
        """Latch the time the instruction budget is first reached.

        Samples arrive on a coarse grid; progress is piecewise linear
        between samples, so the crossing time is interpolated from the
        previous sample for sub-grid precision.
        """
        if self.metric_time is not None:
            return
        useful = self.useful_insts(now)
        if useful >= self.budget_insts:
            crossing = now
            if self._last_sample is not None:
                t_prev, useful_prev = self._last_sample
                if useful > useful_prev and useful_prev < self.budget_insts:
                    frac = (self.budget_insts - useful_prev) / (useful - useful_prev)
                    crossing = t_prev + frac * (now - t_prev)
            self.metric_time = crossing
        else:
            self._last_sample = (now, useful)

    @property
    def done_recording(self) -> bool:
        """True once the metric time has been latched."""
        return self.metric_time is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.label} {self.state.value} pos={self._position}>"
