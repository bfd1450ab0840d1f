"""Integration: orthogonal features composed end-to-end.

Each test combines two or more optional features (banked signatures,
oldest-wins resolution, bandwidth model, migration, trace recording) with a
real workload and checks both progress and correctness — guarding against
pairwise interactions that per-feature tests miss.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import HTMConfig, MachineConfig, SignatureConfig, System
from repro.htm.conflict import ResolutionPolicy
from repro.mem.address import MemoryKind
from repro.obs import Tracer, attach_tracer
from repro.sim.tracefile import MemoryTrace
from repro.workloads import WORKLOADS, WorkloadParams


def small_params(**overrides):
    base = dict(
        threads=4, txs_per_thread=3, value_bytes=32 << 10,
        keys=64, initial_fill=16,
    )
    base.update(overrides)
    return WorkloadParams(**base)


def run(machine, config, workload="hashmap", seed=5, tracer=None,
        migrate_every_ns=0.0, params=None):
    system = System(machine, config, seed=seed)
    if tracer is not None:
        attach_tracer(system, tracer)
    proc = system.process("w")
    w = WORKLOADS[workload](system, proc, params or small_params())
    w.setup()
    for index, body in enumerate(w.thread_bodies()):
        proc.thread(body, migrate_every_ns=migrate_every_ns)
    system.run()
    return system, w


def memory_trace(system, tracer):
    return MemoryTrace.from_events(
        tracer.events(), system.controller.address_space,
        dropped=tracer.dropped,
    )


class TestBankedSignaturesEndToEnd:
    @pytest.mark.parametrize("design", ["uhtm", "signature_only"])
    def test_banked_filters_run_and_verify(self, design):
        machine = MachineConfig.scaled(1 / 64, cores=4, cache_scale=1 / 512)
        config = HTMConfig(
            design=design,
            signature=SignatureConfig(bits=1024, banked=True),
        )
        system, workload = run(machine, config)
        assert workload.verify()
        assert system.stats.counter("ops.committed") > 0


class TestOldestWinsEndToEnd:
    def test_workload_under_timestamp_ordering(self):
        machine = MachineConfig.scaled(1 / 64, cores=4, cache_scale=1 / 512)
        config = HTMConfig(resolution=ResolutionPolicy.OLDEST_WINS)
        system, workload = run(machine, config, workload="btree")
        assert workload.verify()

    def test_oldest_wins_with_overflow_and_signatures(self):
        """Large footprints: off-chip conflicts resolved by age, not
        overflow priority — still serializable and live."""
        machine = MachineConfig.scaled(1 / 64, cores=4, cache_scale=1 / 4096)
        config = HTMConfig(
            resolution=ResolutionPolicy.OLDEST_WINS,
            signature=SignatureConfig(bits=4096),
        )
        system, workload = run(
            machine, config, params=small_params(value_bytes=256 << 10)
        )
        assert workload.verify()
        assert system.stats.counter("tx.overflows") > 0


class TestBandwidthPlusHTM:
    def test_transactional_run_under_finite_bandwidth(self):
        base = MachineConfig.scaled(1 / 64, cores=4, cache_scale=1 / 512)
        machine = dataclasses.replace(
            base,
            memory=dataclasses.replace(base.memory, model_bandwidth=True),
        )
        system, workload = run(machine, HTMConfig())
        assert workload.verify()
        # The persistent hash map's misses travel the NVM channel.
        assert system.controller.nvm_channel.stats.requests > 0

    def test_bandwidth_and_crash_recovery(self):
        base = MachineConfig.scaled(1 / 64, cores=4)
        machine = dataclasses.replace(
            base,
            memory=dataclasses.replace(base.memory, model_bandwidth=True),
        )
        config = HTMConfig()
        system = System(machine, config, seed=5)
        proc = system.process("p")
        addr = system.heap.alloc_words(1, MemoryKind.NVM)

        def body(api):
            for _ in range(10):
                def work(tx):
                    value = tx.read_word(addr)
                    yield
                    tx.write_word(addr, value + 1)

                yield from api.run_transaction(work)

        for _ in range(3):
            proc.thread(body)
        system.run()
        system.crash()
        system.recover()
        assert system.controller.nvm.load(addr) == 30


class TestMigrationPlusCapture:
    def test_trace_spans_migrations(self):
        machine = MachineConfig.scaled(1 / 64, cores=4)
        tracer = Tracer()
        system, workload = run(
            machine, HTMConfig(), tracer=tracer, migrate_every_ns=2000.0
        )
        trace = memory_trace(system, tracer)
        assert trace.total_txs() == system.stats.counter("tx.commits")
        assert workload.verify()


class TestEverythingAtOnce:
    def test_kitchen_sink(self):
        """Banked sigs + oldest-wins + bandwidth + migration + tracing."""
        base = MachineConfig.scaled(1 / 64, cores=4, cache_scale=1 / 512)
        machine = dataclasses.replace(
            base,
            memory=dataclasses.replace(base.memory, model_bandwidth=True),
        )
        config = HTMConfig(
            signature=SignatureConfig(bits=1024, banked=True),
            resolution=ResolutionPolicy.OLDEST_WINS,
        )
        tracer = Tracer()
        system, workload = run(
            machine, config, workload="hybrid_index",
            tracer=tracer, migrate_every_ns=3000.0,
        )
        assert workload.verify()
        assert system.stats.counter("ops.committed") > 0
        trace = memory_trace(system, tracer)
        assert trace.total_txs() > 0
