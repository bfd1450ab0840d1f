"""Simulations in one process leave nothing behind that grows run to run.

A grid or a benchmark runs many simulations in one process.  Anything the
simulator keeps process-wide (a cache keyed by address, a registry keyed by
run) then grows with every new seed.  This runs one small UHTM spec, with
long read-only scans that overflow through the read signatures, at three
seeds in one process and compares the memory traced after each run once
the run's result is dropped and garbage collected.

Calibration: at seeds 1, 2, 3 the traced memory grows by about 200 B from
run 1 to run 3 (first-use interning); a process-wide page memo of hash
indices grew it by about 24 KB, because each seed's scans touch lines the
earlier runs did not.  The 4 KB bound sits between the two.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.harness.config import ExperimentSpec, consolidated
from repro.harness.runner import run_experiment
from repro.params import HTMConfig, HTMDesign, SignatureConfig
from repro.workloads import WorkloadParams

KB = 1 << 10
GROWTH_BOUND = 4 * KB


def _long_scan(seed: int) -> ExperimentSpec:
    params = WorkloadParams(
        threads=4,
        txs_per_thread=1,  # unused: horizon mode runs for a fixed window
        value_bytes=16 * KB,
        ops_per_tx=8,
        keys=1024,
        initial_fill=1024,
    )
    return ExperimentSpec(
        name="retained-memory",
        htm=HTMConfig(
            design=HTMDesign.UHTM,
            signature=SignatureConfig(bits=4096),
            isolation=True,
        ),
        benchmarks=consolidated(
            "echo",
            2,
            params,
            long_tx_ratio=0.02,
            long_scan_bytes=8 << 20,
            hot_keys=16,
            horizon_ns=2e5,
        ),
        scale=1 / 64,
        cache_scale=1 / 128,
        seed=seed,
    )


def test_retained_memory_does_not_grow_across_seeds():
    retained = []
    tracemalloc.start()
    try:
        for seed in (1, 2, 3):
            result = run_experiment(_long_scan(seed))
            assert result.overflows > 0  # a scan filled a read signature
            del result
            gc.collect()
            retained.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert retained[2] - retained[0] <= GROWTH_BOUND, retained
