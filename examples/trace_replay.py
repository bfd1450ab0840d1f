#!/usr/bin/env python3
"""Trace-driven simulation: capture a workload once, replay it anywhere.

Records the committed memory operations of a hash-map workload running
under UHTM (a tracer's ``tx.*`` events, folded into a memory trace), saves
the trace to disk, then replays the identical transaction streams under
every HTM design — the methodology for comparing designs on *exactly* the
same work, and the natural entry point for feeding this simulator traces
derived from real applications.

Run with:  python examples/trace_replay.py
"""

import os
import tempfile

from repro import HTMConfig, MachineConfig, System
from repro.obs import Tracer, attach_tracer
from repro.sim.tracefile import MemoryTrace
from repro.workloads import TraceReplayWorkload, WORKLOADS, WorkloadParams


def capture() -> MemoryTrace:
    system = System(
        MachineConfig.scaled(1 / 16, cores=4),
        HTMConfig(design="uhtm"),
        seed=21,
    )
    tracer = attach_tracer(system, Tracer())
    proc = system.process("source")
    params = WorkloadParams(
        threads=4, txs_per_thread=6, value_bytes=64 << 10,
        keys=128, initial_fill=32,
    )
    workload = WORKLOADS["hashmap"](system, proc, params)
    workload.spawn()
    system.run()
    trace = MemoryTrace.from_events(
        tracer.events(), system.controller.address_space,
        dropped=tracer.dropped,
    )
    print(f"captured {trace.total_txs()} transactions, "
          f"{trace.total_ops()} operations from {len(trace.threads)} threads")
    return trace


def replay(trace: MemoryTrace, design: str) -> None:
    system = System(
        MachineConfig.scaled(1 / 16, cores=4, cache_scale=1 / 1024),
        HTMConfig(design=design),
        seed=5,
    )
    proc = system.process("replay")
    workload = TraceReplayWorkload(system, proc, WorkloadParams(), trace)
    workload.spawn()
    system.run()
    assert workload.verify()
    print(f"  {design:14s} elapsed={system.elapsed_ns / 1e6:7.3f} ms  "
          f"aborts={system.stats.counter('tx.aborts'):3d}  "
          f"slow-paths={system.stats.counter('tx.slow_path_executions')}")


def main() -> None:
    trace = capture()

    # Round-trip through the on-disk format.
    with tempfile.NamedTemporaryFile(
        "w", suffix=".trace", delete=False
    ) as handle:
        trace.dump(handle)
        path = handle.name
    with open(path, encoding="utf-8") as handle:
        restored = MemoryTrace.load(handle)
    os.unlink(path)
    print(f"trace round-tripped through disk "
          f"({restored.total_ops()} ops intact)\n")

    print("replaying the identical transactions under each design "
          "(tiny caches, so the footprints overflow):")
    for design in ("llc_bounded", "signature_only", "uhtm", "ideal"):
        replay(restored, design)
    print("\ntrace replay OK")


if __name__ == "__main__":
    main()
