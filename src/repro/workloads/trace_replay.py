"""Replay a captured memory trace as a workload.

Trace-driven simulation decouples workload generation from the machine under
test: record once (attach a tracer and fold its events with
``MemoryTrace.from_events``), then replay the same committed transaction
streams under any HTM design, cache scale, or latency configuration — the
standard methodology for architecture studies and the natural way to feed
this simulator traces derived from real applications.

Replay allocates one arena per memory kind sized to the trace's offsets and
issues each transaction through the normal Algorithm 1 retry loop, so
conflict detection, logging, and fallback behave exactly as for native
workloads.
"""

from __future__ import annotations

from typing import Callable, Generator, List

from ..mem.address import MemoryKind
from ..sim.tracefile import MemoryTrace
from .base import Workload, WorkloadParams

#: Operations issued between scheduling yields inside a replayed tx.
_OP_CHUNK = 16


class TraceReplayWorkload(Workload):
    """Drives one captured :class:`MemoryTrace` through the system."""

    name = "trace_replay"

    def __init__(
        self,
        system,
        process,
        params: WorkloadParams,
        trace: MemoryTrace,
    ) -> None:
        super().__init__(system, process, params)
        self.trace = trace
        self._arena = {}
        self.replayed_txs = 0

    def setup(self) -> None:
        for kind in (MemoryKind.DRAM, MemoryKind.NVM):
            size = self.trace.arena_bytes(kind)
            self._arena[kind] = (
                self.system.heap.alloc(max(64, size), kind) if size else 0
            )

    def resolve(self, kind: MemoryKind, offset: int) -> int:
        return self._arena[kind] + offset

    def thread_bodies(self) -> List[Callable]:
        return [
            self._make_body(thread_trace)
            for thread_trace in self.trace.threads
        ]

    def _make_body(self, thread_trace) -> Callable:
        def body(api) -> Generator[None, None, None]:
            for traced_tx in thread_trace.txs:
                ops = traced_tx.ops

                def work(tx, ops=ops):
                    for index, op in enumerate(ops):
                        addr = self.resolve(op.kind, op.offset)
                        if op.is_write:
                            tx.write_word(addr, op.offset)
                        else:
                            tx.read_word(addr)
                        if index % _OP_CHUNK == _OP_CHUNK - 1:
                            yield

                yield from api.run_transaction(work, ops=1)
                self.replayed_txs += 1

        return body

    def verify(self) -> bool:
        return self.replayed_txs == self.trace.total_txs()
