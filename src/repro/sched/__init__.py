"""Two-level GPU scheduler: kernel scheduler + thread-block scheduler."""

from repro.sched.policy import PartitionOrder, compute_partition
from repro.sched.guard import GuardPolicy, PreemptionGuard
from repro.sched.tb_scheduler import ThreadBlockScheduler
from repro.sched.kernel_scheduler import KernelScheduler, SchedulerMode
from repro.sched.process import BenchmarkProcess, ProcessState

__all__ = [
    "PartitionOrder",
    "compute_partition",
    "GuardPolicy",
    "PreemptionGuard",
    "ThreadBlockScheduler",
    "KernelScheduler",
    "SchedulerMode",
    "BenchmarkProcess",
    "ProcessState",
]
