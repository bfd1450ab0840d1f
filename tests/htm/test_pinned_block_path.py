"""Absolute pins on what the block operations answer.

Block operations (``read_block``, ``write_block``, ``rmw_add_block``) once
had two implementations, fused loops and the per-op walk, and an oracle
that compared the two at the same commit.  Such an oracle cannot guard a
change that moves both paths, or deletes one of them.  These literals
were recorded while both paths still existed; the one remaining path must
keep reproducing them exactly.

* The fig2 smoke grid issues every workload's payload reads and writes as
  blocks, and its co-runner sweeps as read-modify-write blocks.
* The fig7 smoke grid runs the same co-runner sweeps beside PMDK-style
  transactions.  Its export digest is pinned in
  ``tests/signatures/test_pinned_answers.py``; here every run's full
  result (end time, commits, aborts by reason, signature checks) is
  pinned, which the export's abort-rate columns do not show.
* A contended two-thread workload mixes transactional block writes and
  reads over shared DRAM and NVM with non-transactional sweeps, so blocks
  conflict and abort.  It runs plain, with trace capture attached and with
  the DRAM bandwidth model enabled.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.harness.bench import SMOKE_SCALE
from repro.harness.export import to_json
from repro.harness.figures import fig2, fig7_grid
from repro.harness.parallel import run_keyed
from repro.mem.address import MemoryKind
from repro.params import HTMConfig, LINE_SIZE, MachineConfig
from repro.runtime.system import System

#: SHA-256 of ``python -m repro fig2 --scale 0.015625 --seed S --json``.
FIG2_SMOKE_SHA256 = {
    2020: "44ce241a16cde01d982dd78269e1c556da72cbcefce14e37a59c4338461a0d1a",
    7: "86ecf4f7c0d307e3d3db72412aa9396f4f1fb330402f1058df374a7f7e097871",
}


@pytest.mark.parametrize("seed", sorted(FIG2_SMOKE_SHA256))
def test_fig2_smoke_export_pinned(seed):
    export = to_json([fig2(quick=True, scale=SMOKE_SCALE, seed=seed)])
    digest = hashlib.sha256(export.encode("utf-8")).hexdigest()
    assert digest == FIG2_SMOKE_SHA256[seed]


#: SHA-256 of every fig7 smoke run's ``RunResult``, keyed and sorted as JSON.
FIG7_SMOKE_RUNS_SHA256 = {
    2020: "b3a003a93a01b6ceff18c7b9f926bbc7bb7fccbb5625c059ff6d72ff01421adf",
    7: "cd7cba55bbe8fe5553a50f7313675b373e2f8077cba8c4eb49ff62dde0be1865",
}


@pytest.mark.parametrize("seed", sorted(FIG7_SMOKE_RUNS_SHA256))
def test_fig7_smoke_runs_pinned(seed):
    runs = run_keyed(fig7_grid(quick=True, scale=SMOKE_SCALE, seed=seed))
    rows = [[list(key), dataclasses.asdict(runs[key])] for key in sorted(runs)]
    encoded = json.dumps(rows, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(encoded).hexdigest() == FIG7_SMOKE_RUNS_SHA256[seed]


# -- a contended two-thread workload ----------------------------------------

SCALE = 1 / 64

#: Shared-array geometry: two threads hammer the same chunks and
#: transactions yield mid-body, so conflicts and aborts occur.
CHUNK_LINES = 16


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


def run_conflict_workload(capture=False, bandwidth=False):
    machine = MachineConfig.scaled(SCALE)
    if bandwidth:
        machine = dataclasses.replace(
            machine,
            memory=dataclasses.replace(machine.memory, model_bandwidth=True),
        )
    system = System(machine, HTMConfig(), seed=11, capture_trace=capture)
    dram = system.heap.alloc(2 * CHUNK_LINES * LINE_SIZE, MemoryKind.DRAM)
    nvm = system.heap.alloc(CHUNK_LINES * LINE_SIZE, MemoryKind.NVM)
    bases = (dram, nvm)
    proc = system.process("fence")
    for _ in range(2):
        proc.thread(lambda api: conflict_worker(api, bases))
    system.run()
    return system


def fingerprint_sha256(system) -> str:
    """SHA-256 of the run's end time plus every counter, as sorted JSON."""
    fingerprint = [system.elapsed_ns, system.stats.snapshot()]
    encoded = json.dumps(fingerprint, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


#: ``fingerprint_sha256`` of :func:`run_conflict_workload` per variant.
#: Capture only observes, so its run must match the plain one.
PLAIN_SHA256 = "73161de390b25ac282e114d1696b9d761c196e10929f58c5ea52a615f5530e60"
CONFLICT_SHA256 = {
    "plain": ({}, PLAIN_SHA256),
    "capture": ({"capture": True}, PLAIN_SHA256),
    "bandwidth": (
        {"bandwidth": True},
        "14fad497201eb4991e9b3a34dec13c189337af6c01407ae1406449d4df17681c",
    ),
}


@pytest.mark.parametrize("variant", sorted(CONFLICT_SHA256))
def test_conflict_workload_pinned(variant):
    kwargs, expected = CONFLICT_SHA256[variant]
    system = run_conflict_workload(**kwargs)
    assert system.stats.counter("tx.aborts") > 0, "scenario must conflict"
    assert fingerprint_sha256(system) == expected
