"""The top-level façade: one simulated machine ready to run workloads.

Typical use::

    from repro import System, MachineConfig, HTMConfig

    system = System(MachineConfig.scaled(1 / 16), HTMConfig(design="uhtm"))
    app = system.process("kvstore")

    def worker(api):
        table = ...  # build a data structure over api.heap
        for batch in batches:
            yield from api.run_transaction(lambda tx: table.insert(tx, ...))

    app.thread(worker)
    system.run()
    print(system.stats.counter("tx.commits"))
"""

from __future__ import annotations

from typing import List, Optional

from ..cache.hierarchy import CacheHierarchy
from ..htm.designs import build_htm
from ..htm.fallback import FallbackLockTable
from ..htm.recovery import CrashController, CrashReport, RecoveryReport
from ..mem.controller import MemoryController
from ..params import HTMConfig, MachineConfig
from ..sim.engine import Engine
from ..sim.rng import RngStreams
from ..sim.stats import StatsRegistry
from ..sim.trace import TraceRecorder
from ..sim.tracefile import MemoryTrace, TraceCapture
from .heap import TxHeap
from .process import SimProcess


class System:
    """A fully assembled machine: cores, caches, memories, HTM, and runtime."""

    #: Name of the execution engine, recorded in benchmark contexts.
    engine_name = "batched"

    def __init__(
        self,
        machine: Optional[MachineConfig] = None,
        htm_config: Optional[HTMConfig] = None,
        seed: int = 2020,
        trace: bool = False,
        capture_trace: bool = False,
    ) -> None:
        self.machine = machine or MachineConfig.scaled(1 / 16)
        self.htm_config = htm_config or HTMConfig()
        self.stats = StatsRegistry()
        self.rng = RngStreams(seed)
        self.trace = TraceRecorder(enabled=trace)
        self.engine = Engine()
        self.controller = MemoryController(
            self.machine.memory, self.machine.latency
        )
        self.hierarchy = CacheHierarchy(self.machine, self.controller)
        self.htm = build_htm(
            self.machine, self.htm_config, self.controller, self.hierarchy,
            self.stats,
        )
        self.heap = TxHeap(self.controller)
        if capture_trace:
            space = self.controller.address_space
            self.htm.capture = TraceCapture(
                space.dram_heap.base, space.nvm_heap.base
            )
        self.locks = FallbackLockTable()
        self.crash_controller = CrashController(self.controller, self.hierarchy)
        self.processes: List[SimProcess] = []
        self._next_thread_id = 0

    # -- construction -----------------------------------------------------------

    def process(self, name: str = "") -> SimProcess:
        pid = len(self.processes) + 1
        proc = SimProcess(self, pid, name or f"proc{pid}")
        self.processes.append(proc)
        return proc

    def next_thread_id(self) -> int:
        thread_id = self._next_thread_id
        self._next_thread_id += 1
        return thread_id

    # -- running -----------------------------------------------------------------

    def run(
        self, until_ns: Optional[float] = None, max_steps: Optional[int] = None
    ) -> float:
        """Run the engine; returns the simulated end time in nanoseconds."""
        return self.engine.run(until_ns=until_ns, max_steps=max_steps)

    @property
    def elapsed_ns(self) -> float:
        return self.engine.now()

    @property
    def epoch_stats(self) -> None:
        """Always ``None``: blocks no longer run as fused epochs.

        Kept for the benchmark harness, which reads a falsy value as zero
        epochs.
        """
        return None

    def throughput_ops_per_ms(self) -> float:
        """Committed operations per simulated millisecond."""
        elapsed = self.elapsed_ns
        if elapsed <= 0:
            return 0.0
        return self.stats.counter("ops.committed") / (elapsed / 1e6)

    def captured_trace(self) -> Optional[MemoryTrace]:
        """The memory trace recorded so far (None unless capturing)."""
        if self.htm.capture is None:
            return None
        return self.htm.capture.trace

    # -- failure injection ---------------------------------------------------------

    def crash(self) -> CrashReport:
        return self.crash_controller.crash()

    def recover(self) -> RecoveryReport:
        return self.crash_controller.recover()

    def install_fault_injector(self, injector) -> None:
        """Arm every fault hook point with ``injector`` (see :mod:`repro.faults`).

        The injector observes NVM log appends, commit-mark writes, recovery
        replay, and engine steps; when its armed crash point fires it raises
        :class:`~repro.errors.PowerFailure`, which unwinds out of
        :meth:`run` (or :meth:`recover`) back to the campaign driver.
        """
        self.controller.fault_injector = injector
        self.engine.fault_injector = injector
        self.controller.nvm_log.add_observer(injector.observe_nvm_log)

    # -- reporting -------------------------------------------------------------------

    def abort_breakdown(self) -> dict:
        prefix = "tx.aborts."
        return {
            name[len(prefix):]: value
            for name, value in self.stats.counters_with_prefix(prefix).items()
        }

    def abort_rate(self) -> float:
        """Aborted transaction attempts / all attempts."""
        begins = self.stats.counter("tx.begins")
        aborts = self.stats.counter("tx.aborts")
        if begins == 0:
            return 0.0
        return aborts / begins
