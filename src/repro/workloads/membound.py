"""A memory-intensive co-runner that hogs the shared LLC.

Stands in for the graph500-class applications the paper co-schedules to
"emulate contention in LLC" (Section VI-A): a non-transactional thread
streaming reads and writes over an array larger than the LLC, continuously
evicting the benchmarks' transactional lines — which is what pushes them
past the on-chip boundary and into overflow handling.

The co-runner has no natural end, so it runs until ``stop_when()`` becomes
true (the harness passes "all benchmark threads finished").
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

from ..mem.address import MemoryKind
from ..params import LINE_SIZE
from .base import Workload, WorkloadParams

#: Lines touched between scheduling yields.
_SWEEP_CHUNK = 32


class MemBoundWorkload(Workload):
    """A streaming scan sized at ``llc_multiple`` times the LLC."""

    name = "membound"

    def __init__(
        self,
        system,
        process,
        params: WorkloadParams,
        llc_multiple: float = 2.0,
        stop_when: Optional[Callable[[], bool]] = None,
        max_sweeps: int = 10_000,
    ) -> None:
        super().__init__(system, process, params)
        self.array_lines = max(
            _SWEEP_CHUNK,
            int(system.machine.llc.num_lines * llc_multiple),
        )
        self.stop_when = stop_when or (lambda: False)
        self.max_sweeps = max_sweeps
        self.base: Optional[int] = None
        self.sweeps_completed = 0

    def setup(self) -> None:
        self.base = self.system.heap.alloc(
            self.array_lines * LINE_SIZE, MemoryKind.DRAM
        )

    def thread_bodies(self) -> List[Callable]:
        return [self._make_body(i) for i in range(self.params.threads)]

    def _make_body(self, thread_index: int) -> Callable:
        stride = self.array_lines // self.params.threads
        start = thread_index * stride

        def body(api) -> Generator[None, None, None]:
            # One chunk of addresses per scheduling yield; the addresses are
            # a pure function of the sweep geometry, so they are computed
            # once up front and each chunk issues as a single read-modify-
            # write block.
            base = self.base
            array_lines = self.array_lines
            chunks = []
            for chunk_start in range(0, stride, _SWEEP_CHUNK):
                chunks.append(
                    [
                        base + ((start + i) % array_lines) * LINE_SIZE
                        for i in range(
                            chunk_start, min(chunk_start + _SWEEP_CHUNK, stride)
                        )
                    ]
                )
            stop_when = self.stop_when
            for _ in range(self.max_sweeps):
                if stop_when():
                    return
                for chunk in chunks:
                    # api.nontx is looked up per chunk: migration swaps in a
                    # new DirectContext bound to the destination core.
                    api.nontx.rmw_add_block(chunk, 1)
                    yield
                    if stop_when():
                        return
                self.sweeps_completed += 1

        return body
