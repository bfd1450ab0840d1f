"""Tests for trace recording, serialisation, and replay."""

from __future__ import annotations

import hashlib
import importlib.util
import io
from pathlib import Path

import pytest

from repro import HTMConfig, MachineConfig, System
from repro.errors import ReproError
from repro.mem.address import NVM_BASE, AddressSpace, MemoryKind
from repro.obs import TraceEvent, Tracer, attach_tracer
from repro.sim.tracefile import MemoryTrace, TracedOp, TracedTx
from repro.workloads import WORKLOADS, WorkloadParams
from repro.workloads.trace_replay import TraceReplayWorkload


def build_trace():
    trace = MemoryTrace()
    t0 = trace.thread(0)
    t0.txs.append(
        TracedTx([
            TracedOp(False, MemoryKind.DRAM, 0),
            TracedOp(True, MemoryKind.NVM, 128),
        ])
    )
    t1 = trace.thread(1)
    t1.txs.append(TracedTx([TracedOp(True, MemoryKind.DRAM, 64)]))
    return trace


class TestFormatRoundTrip:
    def test_dump_and_load(self):
        trace = build_trace()
        text = trace.dumps()
        restored = MemoryTrace.loads(text)
        assert restored.total_txs() == 2
        assert restored.total_ops() == 3
        op = restored.threads[0].txs[0].ops[1]
        assert op.is_write and op.kind is MemoryKind.NVM and op.offset == 128

    def test_arena_sizing(self):
        trace = build_trace()
        assert trace.arena_bytes(MemoryKind.NVM) == 136
        assert trace.arena_bytes(MemoryKind.DRAM) == 72

    def test_bad_header_rejected(self):
        with pytest.raises(ReproError):
            MemoryTrace.load(io.StringIO("not a trace\n"))

    def test_op_outside_tx_rejected(self):
        text = "# uhtm-trace v1\nTHREAD 0\nR d 0\n"
        with pytest.raises(ReproError):
            MemoryTrace.loads(text)

    def test_bad_record_rejected(self):
        bad = ["XYZZY", "THREAD", "R x 8", "R d", "W d abc", "R d -64", "R d 8 9"]
        for record in bad:
            text = f"# uhtm-trace v1\nTHREAD 0\nTX\n{record}\n"
            with pytest.raises(ReproError, match="line 4"):
                MemoryTrace.loads(text)

    def test_comments_and_blank_lines_skipped(self):
        text = (
            "# uhtm-trace v1\n\n# a comment\nTHREAD 0\nTX\nR d 0\nEND\n"
        )
        assert MemoryTrace.loads(text).total_ops() == 1


SPACE = AddressSpace(MachineConfig.scaled(1 / 64).memory)
DRAM_BASE = SPACE.dram_heap.base


def fold(events, dropped=0):
    return MemoryTrace.from_events(events, SPACE, dropped=dropped)


class TestCaptureSemantics:
    """The fold over ``tx.*`` events keeps exactly the committed work."""

    def test_only_commits_recorded(self):
        trace = fold([
            TraceEvent("tx.begin", 0.0, tx_id=1, thread_id=0),
            TraceEvent("tx.write", 1.0, 1, 0, (("addr", DRAM_BASE + 64),)),
            TraceEvent("tx.abort", 2.0, tx_id=1, thread_id=0),
            TraceEvent("tx.begin", 3.0, tx_id=2, thread_id=0),
            TraceEvent("tx.read", 4.0, 2, 0, (("addr", NVM_BASE + 128),)),
            TraceEvent("tx.commit", 5.0, tx_id=2, thread_id=0),
        ])
        assert trace.total_txs() == 1
        op = trace.threads[0].txs[0].ops[0]
        assert not op.is_write
        assert op.kind is MemoryKind.NVM and op.offset == 128

    def test_address_normalisation(self):
        trace = fold([
            TraceEvent("tx.begin", 0.0, tx_id=1, thread_id=3),
            TraceEvent("tx.write", 1.0, 1, 3, (("addr", DRAM_BASE),)),
            TraceEvent("tx.commit", 2.0, tx_id=1, thread_id=3),
        ])
        op = trace.thread(3).txs[0].ops[0]
        assert op.is_write and op.kind is MemoryKind.DRAM and op.offset == 0

    def test_ops_without_a_traced_begin_are_ignored(self):
        trace = fold([
            TraceEvent("tx.write", 1.0, 1, 0, (("addr", DRAM_BASE),)),
            TraceEvent("tx.commit", 2.0, tx_id=1, thread_id=0),
        ])
        assert trace.total_txs() == 0

    def test_unfinished_attempts_dropped_and_order_kept(self):
        trace = fold([
            TraceEvent("tx.begin", 0.0, tx_id=1, thread_id=0),
            TraceEvent("tx.begin", 0.0, tx_id=2, thread_id=1),
            TraceEvent("tx.write", 1.0, 1, 0, (("addr", DRAM_BASE + 64),)),
            TraceEvent("tx.read", 1.0, 2, 1, (("addr", DRAM_BASE),)),
            TraceEvent("tx.read", 2.0, 1, 0, (("addr", DRAM_BASE),)),
            TraceEvent("tx.commit", 3.0, tx_id=1, thread_id=0),
        ])
        assert [t.thread_id for t in trace.threads] == [0]
        ops = trace.threads[0].txs[0].ops
        assert [(op.is_write, op.offset) for op in ops] == [(True, 64), (False, 0)]

    def test_lossy_stream_rejected(self):
        with pytest.raises(ReproError, match="dropped 3 events"):
            fold([], dropped=3)


#: SHA-256 of ``MemoryTrace.dumps()`` for ``capture_run()`` and for the
#: capture in ``examples/trace_replay.py``, recorded when traces still came
#: from a dedicated capture hook in the HTM system.
CAPTURE_RUN_SHA256 = (
    "e6d3163001cdab9b192614ae9f97e6b696a859538be3a4975ca53a783d443cdc"
)
EXAMPLE_SHA256 = (
    "0b23b3ae577e7fbdf8a38cf1b8f53a23dfba45e598d0c4e6be92b4ab0e8b112b"
)
EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "trace_replay.py"


def sha256_of(trace: MemoryTrace) -> str:
    return hashlib.sha256(trace.dumps().encode("utf-8")).hexdigest()


class TestEndToEndCaptureReplay:
    def run_source(self, tracer):
        system = System(
            MachineConfig.scaled(1 / 64, cores=4),
            HTMConfig(design="uhtm"),
            seed=11,
        )
        attach_tracer(system, tracer)
        proc = system.process("source")
        params = WorkloadParams(
            threads=4, txs_per_thread=3, value_bytes=16 << 10,
            keys=64, initial_fill=16,
        )
        workload = WORKLOADS["hashmap"](system, proc, params)
        workload.spawn()
        system.run()
        return system

    def capture_run(self):
        tracer = Tracer()
        system = self.run_source(tracer)
        trace = MemoryTrace.from_events(
            tracer.events(), system.controller.address_space,
            dropped=tracer.dropped,
        )
        return system, trace

    def test_capture_produces_trace(self):
        system, trace = self.capture_run()
        assert trace.total_txs() == system.stats.counter("tx.commits")
        assert trace.total_ops() > 0

    def test_capture_pinned(self):
        _, trace = self.capture_run()
        assert sha256_of(trace) == CAPTURE_RUN_SHA256

    def test_example_capture_pinned(self):
        spec = importlib.util.spec_from_file_location("trace_replay_example", EXAMPLE)
        example = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(example)
        assert sha256_of(example.capture()) == EXAMPLE_SHA256

    def test_capture_from_overflowed_ring_rejected(self):
        tracer = Tracer(capacity=8)
        system = self.run_source(tracer)
        assert tracer.dropped > 0
        with pytest.raises(ReproError, match="dropped"):
            MemoryTrace.from_events(
                tracer.events(), system.controller.address_space,
                dropped=tracer.dropped,
            )

    @pytest.mark.parametrize("design", ["uhtm", "llc_bounded", "ideal"])
    def test_replay_under_any_design(self, design):
        _, trace = self.capture_run()
        replay_system = System(
            MachineConfig.scaled(1 / 64, cores=4), HTMConfig(design=design)
        )
        proc = replay_system.process("replay")
        workload = TraceReplayWorkload(
            replay_system, proc,
            WorkloadParams(threads=len(trace.threads)), trace,
        )
        workload.spawn()
        replay_system.run()
        assert workload.verify()
        assert (
            replay_system.stats.counter("ops.committed") == trace.total_txs()
        )

    def test_replay_after_serialisation_round_trip(self):
        _, trace = self.capture_run()
        restored = MemoryTrace.loads(trace.dumps())
        replay_system = System(
            MachineConfig.scaled(1 / 64, cores=4), HTMConfig()
        )
        proc = replay_system.process("replay")
        workload = TraceReplayWorkload(
            replay_system, proc, WorkloadParams(), restored
        )
        workload.spawn()
        replay_system.run()
        assert workload.verify()
