"""Thread-block scheduler (the paper's extended GigaThread engine).

Dispatches thread blocks to the SMs a kernel holds, keeps the per-kernel
queue of preempted blocks (flushed blocks rerun from scratch, switched
blocks resume from their saved context), and always prefers preempted
blocks over fresh ones so the preempted queue stays bounded (paper
§3.1). It is also the listener for every SM event and forwards
kernel-level changes (kernel finished, SM idle/released) to the kernel
scheduler.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Optional

from repro.errors import SchedulingError
from repro.gpu.kernel import Kernel
from repro.gpu.sm import PreemptionRecord, StreamingMultiprocessor
from repro.gpu.threadblock import ThreadBlock

if TYPE_CHECKING:  # pragma: no cover
    from repro.sched.kernel_scheduler import KernelScheduler


class ThreadBlockScheduler:
    """Hardware-level dispatcher + preempted-block queues."""

    def __init__(self) -> None:
        self._preempted: Dict[int, Deque[ThreadBlock]] = {}
        self._kernel_scheduler: Optional["KernelScheduler"] = None

    def attach(self, kernel_scheduler: Optional["KernelScheduler"]) -> None:
        """Bind the kernel scheduler this dispatcher reports to (None
        unbinds it)."""
        self._kernel_scheduler = kernel_scheduler

    @property
    def kernel_scheduler(self) -> "KernelScheduler":
        """The attached kernel scheduler (raises if none)."""
        if self._kernel_scheduler is None:
            raise SchedulingError("thread-block scheduler not attached")
        return self._kernel_scheduler

    # ------------------------------------------------------------------
    # work queues
    # ------------------------------------------------------------------

    def preempted_queue_len(self, kernel: Kernel) -> int:
        """Blocks waiting in a kernel's preempted queue."""
        queue = self._preempted.get(kernel.kernel_id)
        return len(queue) if queue else 0

    def has_work(self, kernel: Kernel) -> bool:
        """True while the kernel has blocks left to dispatch."""
        return self.preempted_queue_len(kernel) > 0 or kernel.undispatched_tbs > 0

    def _pop_next(self, kernel: Kernel) -> ThreadBlock:
        queue = self._preempted.get(kernel.kernel_id)
        if queue:
            return queue.popleft()
        return kernel.make_tb()

    def fill(self, sm: StreamingMultiprocessor) -> None:
        """Dispatch blocks until the SM is full or the kernel runs dry."""
        kernel = sm.kernel
        if kernel is None:
            raise SchedulingError(f"fill on unassigned SM{sm.sm_id}")
        dispatched = False
        while sm.free_slots > 0 and self.has_work(kernel):
            sm.dispatch(self._pop_next(kernel))
            dispatched = True
        if dispatched and kernel.undispatched_tbs == 0:
            self.kernel_scheduler.note_fully_dispatched(kernel)

    # ------------------------------------------------------------------
    # SMListener protocol
    # ------------------------------------------------------------------

    def on_tb_complete(self, sm: StreamingMultiprocessor, tb: ThreadBlock) -> None:
        """Refill the slot a finished block vacated."""
        kernel = tb.kernel
        if kernel.finished:
            self.kernel_scheduler.on_kernel_finished(kernel)
            return
        if sm.kernel is not kernel:  # pragma: no cover - defensive
            raise SchedulingError("completion routed to a foreign SM")
        self.fill(sm)
        if not sm.resident and not self.has_work(kernel):
            # Size-bound tail: the kernel cannot use this SM any more.
            sm.unassign()
            self.kernel_scheduler.on_sm_idle(sm)

    def on_tb_preempted(self, tb: ThreadBlock) -> None:
        """Queue a flushed/switched block for re-dispatch."""
        queue = self._preempted.setdefault(tb.kernel.kernel_id, deque())
        queue.append(tb)

    def on_sm_released(self, sm: StreamingMultiprocessor,
                       record: PreemptionRecord) -> None:
        """Handle a finished preemption hand-over."""
        self.kernel_scheduler.on_sm_released(sm, record)

    def drop_kernel(self, kernel: Kernel) -> None:
        """Forget a kernel's preempted queue (kernel finished or killed)."""
        self._preempted.pop(kernel.kernel_id, None)
