"""Absolute pins on what the signature filters answer.

The differential and oracle suites compare two code paths of the same
commit, so a change to the filters' representation that moved an answer
in both paths at once would pass them.  These literals were recorded
before the filters moved from big-int bit arrays to byte arrays; any
representation must reproduce them exactly.

* The fig7 smoke grid runs 512- and 4096-bit flat filters, with and
  without isolation, and its false-positive abort counts are non-zero,
  so its export digest pins flat-filter answers.
* Two small banked runs pin banked-filter answers: a UHTM run that takes
  false-positive aborts off-chip, and a signature-only run that probes on
  every access.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import HTMConfig, MachineConfig, SignatureConfig, System
from repro.harness.bench import SMOKE_SCALE
from repro.harness.export import to_json
from repro.harness.figures import fig7
from repro.workloads import WORKLOADS, WorkloadParams

#: SHA-256 of ``python -m repro fig7 --scale 0.015625 --seed S --json``.
FIG7_SMOKE_SHA256 = {
    2020: "e3783d1e4e36bc93b748ea6731acb5722320f638f79609c97dd1872503905e73",
    7: "6c71b1bc06a64542c13fb0f8b405f69699cbd329f10891d17016c68aa4efdef3",
}


@pytest.mark.parametrize("seed", sorted(FIG7_SMOKE_SHA256))
def test_fig7_smoke_export_pinned(seed):
    export = to_json([fig7(quick=True, scale=SMOKE_SCALE, seed=seed)])
    digest = hashlib.sha256(export.encode("utf-8")).hexdigest()
    assert digest == FIG7_SMOKE_SHA256[seed]


#: ``(design, bits, value_bytes) -> (elapsed_ns, stats.snapshot())``.
BANKED_RUNS = {
    ("uhtm", 128, 64 << 10): (
        31276.462167415768,
        {
            "conflicts.offchip": 3,
            "l1.tx_evictions": 175,
            "llc.tx_evictions": 70,
            "nvm.early_evictions": 70,
            "nvm.log_appends": 306,
            "ops.by_process.1": 16,
            "ops.committed": 16,
            "sig.checks": 84,
            "sig.hits.false": 3,
            "tx.aborts": 3,
            "tx.aborts.false_positive": 3,
            "tx.begins": 19,
            "tx.commits": 16,
            "tx.fast_path_successes": 16,
            "tx.overflows": 8,
            "tx.retries": 3,
        },
    ),
    ("signature_only", 1024, 16 << 10): (
        42114.68452182852,
        {
            "conflicts.offchip": 21,
            "nvm.log_appends": 112,
            "ops.by_process.1": 16,
            "ops.committed": 16,
            "sig.checks": 61,
            "sig.hits.false": 21,
            "tx.aborts": 21,
            "tx.aborts.false_positive": 21,
            "tx.begins": 37,
            "tx.commits": 16,
            "tx.fast_path_successes": 16,
            "tx.retries": 21,
        },
    ),
}


@pytest.mark.parametrize("run_key", sorted(BANKED_RUNS), ids=str)
def test_banked_signature_run_pinned(run_key):
    design, bits, value_bytes = run_key
    machine = MachineConfig.scaled(1 / 64, cores=4, cache_scale=1 / 4096)
    config = HTMConfig(
        design=design, signature=SignatureConfig(bits=bits, banked=True)
    )
    system = System(machine, config, seed=5)
    proc = system.process("w")
    workload = WORKLOADS["hashmap"](
        system,
        proc,
        WorkloadParams(
            threads=4, txs_per_thread=4, value_bytes=value_bytes,
            keys=64, initial_fill=16,
        ),
    )
    workload.setup()
    for body in workload.thread_bodies():
        proc.thread(body)
    system.run()
    assert workload.verify()
    assert (system.elapsed_ns, system.stats.snapshot()) == BANKED_RUNS[run_key]
