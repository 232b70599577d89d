"""Top-level GPU device: a set of SMs plus the memory subsystem.

The GPU wires every SM to a single listener (normally the thread-block
scheduler) and offers whole-device queries the kernel scheduler needs:
which SMs a kernel occupies, which are idle, aggregate occupancy.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ConfigError
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import Kernel
from repro.gpu.memory import MemorySubsystem
from repro.gpu.sm import SMListener, SMState, StreamingMultiprocessor
from repro.sim.engine import Engine
from repro.sim.trace import Tracer


class GPU:
    """The simulated device (Table 1 machine by default)."""

    def __init__(self, config: GPUConfig, engine: Engine, listener: SMListener,
                 tracer: Optional[Tracer] = None):
        self.config = config
        self.engine = engine
        self.memory = MemorySubsystem(config)
        self.tracer = tracer
        self.sms: List[StreamingMultiprocessor] = [
            StreamingMultiprocessor(i, config, engine, self.memory, listener,
                                    tracer=tracer)
            for i in range(config.num_sms)
        ]

    def sm(self, sm_id: int) -> StreamingMultiprocessor:
        """Look up one SM by id."""
        if not 0 <= sm_id < len(self.sms):
            raise ConfigError(f"no SM {sm_id}")
        return self.sms[sm_id]

    def sms_of(self, kernel: Kernel) -> List[StreamingMultiprocessor]:
        """SMs currently assigned to ``kernel`` (any state)."""
        return [sm for sm in self.sms if sm.kernel is kernel]

    def idle_sms(self) -> List[StreamingMultiprocessor]:
        """SMs currently assigned to no kernel."""
        return [sm for sm in self.sms if sm.state is SMState.IDLE]

    def occupancy(self) -> Dict[str, int]:
        """Kernel name -> number of SMs it holds (preempting SMs count
        toward the outgoing kernel until hand-over)."""
        out: Dict[str, int] = {}
        for sm in self.sms:
            if sm.kernel is not None:
                out[sm.kernel.name] = out.get(sm.kernel.name, 0) + 1
        return out

    def advance_all(self) -> None:
        """Advance progress of every resident block to the current time."""
        for sm in self.sms:
            sm.advance()

    def total_useful_insts(self, kernels: List[Kernel]) -> float:
        """Committed + live instructions across the given kernels."""
        now = self.engine.now
        return sum(k.useful_insts(now) for k in kernels)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        busy = sum(1 for sm in self.sms if sm.state is not SMState.IDLE)
        return f"<GPU {busy}/{len(self.sms)} SMs busy>"
