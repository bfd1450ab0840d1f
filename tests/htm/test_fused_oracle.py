"""Fused epochs against the per-op walk: the epoch dispatcher's oracle.

Every System installs :class:`~repro.htm.batch.BatchDispatcher`, which runs
each block operation through fused loops unless its dependency fence drops
the block to the per-op walk in ``htm/base.py``.  The per-op walk is the
oracle: :func:`per_op` forces the fence for every block, and each test
below compares a fused run against that forced run.

Three kinds of evidence:

* whole-figure exports (fig2, fig7 at the smoke scale, two seeds) must be
  byte-identical;
* mutants that weaken the fence or skip the conflict staging inside the
  fused loops must be caught by the same fingerprints;
* Hypothesis searches random interleavings of transactional block
  reads/writes and non-transactional sweeps over shared DRAM and NVM.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.bench import SMOKE_SCALE
from repro.harness.export import to_json
from repro.harness.figures import fig2, fig7
from repro.htm.batch import BatchDispatcher
from repro.mem.address import MemoryKind
from repro.params import HTMConfig, LINE_SIZE, MachineConfig
from repro.runtime.system import System

SCALE = 1 / 64

#: The fence reason the oracle forces.
FORCED = "oracle"

#: Shared-array geometry: two threads hammer the same chunks and
#: transactions yield mid-body, so conflicts and aborts occur.
CHUNK_LINES = 16


def per_op(run, *args, **kwargs):
    """``run(*args, **kwargs)`` with every block forced down the per-op walk."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BatchDispatcher, "_fence_reason", lambda self: FORCED)
        return run(*args, **kwargs)


def fingerprint(system):
    """Everything a run observably produces: end time plus every counter."""
    return (system.elapsed_ns, system.stats.snapshot())


# -- whole-figure exports ---------------------------------------------------

FIGURES = {"fig2": fig2, "fig7": fig7}


def export(figure, seed):
    return to_json([FIGURES[figure](quick=True, scale=SMOKE_SCALE, seed=seed)])


@pytest.mark.parametrize("figure", sorted(FIGURES))
@pytest.mark.parametrize("seed", (2020, 7))
def test_exports_byte_identical_to_per_op(figure, seed):
    assert export(figure, seed) == per_op(export, figure, seed)


# -- a contended two-thread workload ----------------------------------------


def conflict_worker(api, bases, rounds=12, width=8):
    nbytes = width * LINE_SIZE
    sweep = [bases[0] + i * LINE_SIZE for i in range(width)]
    for round_no in range(rounds):
        def body(tx, tag=round_no):
            tx.write_block(bases[0], nbytes, tag)
            yield  # scheduling boundary: transactions overlap => conflicts
            tx.read_block(bases[1], nbytes)

        yield from api.run_transaction(body)
        api.nontx.rmw_add_block(sweep, 1)
        yield


def run_conflict_workload(mutant_cls=None, capture=False, bandwidth=False):
    machine = MachineConfig.scaled(SCALE)
    if bandwidth:
        machine = dataclasses.replace(
            machine,
            memory=dataclasses.replace(machine.memory, model_bandwidth=True),
        )
    system = System(machine, HTMConfig(), seed=11, capture_trace=capture)
    if mutant_cls is not None:
        system.htm.batch = mutant_cls(system.htm, system.epoch_stats)
    dram = system.heap.alloc(2 * CHUNK_LINES * LINE_SIZE, MemoryKind.DRAM)
    nvm = system.heap.alloc(CHUNK_LINES * LINE_SIZE, MemoryKind.NVM)
    bases = (dram, nvm)
    proc = system.process("fence")
    for _ in range(2):
        proc.thread(lambda api: conflict_worker(api, bases))
    system.run()
    return system


def test_fused_matches_per_op_on_conflict_workload():
    fused = run_conflict_workload()
    oracle = per_op(run_conflict_workload)
    assert oracle.stats.counter("tx.aborts") > 0, "scenario must conflict"
    assert fingerprint(fused) == fingerprint(oracle)
    assert fused.epoch_stats.epochs > 0, "blocks must actually fuse"
    assert oracle.epoch_stats.epochs == 0
    assert set(oracle.epoch_stats.fences) == {FORCED}


def test_capture_fence_drops_to_per_op_and_stays_identical():
    fused = run_conflict_workload(capture=True)
    oracle = per_op(run_conflict_workload, capture=True)
    assert fingerprint(fused) == fingerprint(oracle)
    f_trace, o_trace = fused.captured_trace(), oracle.captured_trace()
    assert (f_trace.total_txs(), f_trace.total_ops()) == (
        o_trace.total_txs(),
        o_trace.total_ops(),
    )
    assert f_trace.total_ops() > 0
    assert fused.epoch_stats.epochs == 0, "capture must fence every block"
    assert "capture" in fused.epoch_stats.fences


def test_bandwidth_fence_drops_to_per_op_and_stays_identical():
    fused = run_conflict_workload(bandwidth=True)
    oracle = per_op(run_conflict_workload, bandwidth=True)
    assert fingerprint(fused) == fingerprint(oracle)
    assert fused.epoch_stats.epochs == 0, "bandwidth must fence every block"
    assert "bandwidth" in fused.epoch_stats.fences


# -- mutants: each weakened fence / staging rule must be caught --------------


class FencelessDispatcher(BatchDispatcher):
    """Ignores every fence: fuses even when ordering is observable."""

    def _fence_reason(self):
        return None


def _ignore(*args):
    return None


class SilentConflictDispatcher(BatchDispatcher):
    """Skips the conflict-resolution staging inside the fused loops.

    The fused loops resolve through the HTM's ``_onchip_resolution`` and
    ``_offchip_resolution``, read once per block; the mutant shadows both
    on its HTM for the length of each block call.
    """

    def _silent(self, loop, *args):
        htm = self.htm
        htm._onchip_resolution = htm._offchip_resolution = _ignore
        try:
            return loop(self, *args)
        finally:
            del htm._onchip_resolution, htm._offchip_resolution

    def tx_write_block(self, *args):
        return self._silent(BatchDispatcher.tx_write_block, *args)

    def tx_read_block(self, *args):
        return self._silent(BatchDispatcher.tx_read_block, *args)

    def nontx_rmw_block(self, *args):
        return self._silent(BatchDispatcher.nontx_rmw_block, *args)


def test_fenceless_mutant_killed_by_capture_divergence():
    oracle = per_op(run_conflict_workload, capture=True)
    mutant = run_conflict_workload(FencelessDispatcher, capture=True)
    # The fused loops record nothing into the capture, so fusing past the
    # fence visibly loses trace operations.
    assert mutant.captured_trace().total_ops() < (
        oracle.captured_trace().total_ops()
    )


def test_fenceless_mutant_killed_by_bandwidth_divergence():
    oracle = per_op(run_conflict_workload, bandwidth=True)
    mutant = run_conflict_workload(FencelessDispatcher, bandwidth=True)
    # The fused loops charge flat device latency; with the channel model
    # armed, skipping per-request queueing must show up in the end time.
    assert fingerprint(mutant) != fingerprint(oracle)


def test_silent_conflict_mutant_killed_by_counter_divergence():
    oracle = per_op(run_conflict_workload)
    mutant = run_conflict_workload(SilentConflictDispatcher)
    assert fingerprint(mutant) != fingerprint(oracle)


# -- Hypothesis: random interleavings, fused == per-op -----------------------

op = st.tuples(
    st.sampled_from(["txw", "txr", "rmw"]),
    st.integers(min_value=0, max_value=3),  # which shared chunk
    st.sampled_from([1, 2, 4, 8, 16]),  # block width in lines
)
schedule = st.lists(op, min_size=1, max_size=10)


def run_schedule(schedules, seed):
    system = System(MachineConfig.scaled(SCALE), HTMConfig(), seed=seed)
    dram = system.heap.alloc(2 * CHUNK_LINES * LINE_SIZE, MemoryKind.DRAM)
    nvm = system.heap.alloc(2 * CHUNK_LINES * LINE_SIZE, MemoryKind.NVM)
    span = CHUNK_LINES * LINE_SIZE
    bases = (dram, dram + span, nvm, nvm + span)
    proc = system.process("prop")

    def worker(api, plan):
        for kind, chunk, width in plan:
            base = bases[chunk]
            nbytes = width * LINE_SIZE
            if kind == "rmw":
                api.nontx.rmw_add_block(
                    [base + i * LINE_SIZE for i in range(width)], 1
                )
            else:
                def body(tx, kind=kind, base=base, nbytes=nbytes):
                    if kind == "txw":
                        tx.write_block(base, nbytes, 0xB10C)
                    else:
                        tx.read_block(base, nbytes)
                    yield  # overlap with the other thread's transaction

                yield from api.run_transaction(body)
            yield

    for plan in schedules:
        proc.thread(lambda api, plan=plan: worker(api, plan))
    system.run()
    return fingerprint(system)


@settings(max_examples=20, deadline=None)
@given(
    schedules=st.lists(schedule, min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_fused_matches_per_op_over_random_interleavings(schedules, seed):
    assert run_schedule(schedules, seed) == per_op(
        run_schedule, schedules, seed
    )
