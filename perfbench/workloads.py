"""The three benchmark workloads, as :class:`ExperimentSpec` builders.

Each builder takes the workload seed and a ``size`` multiplier on the
amount of simulated work (1.0 is the benchmark's size; the self-tests use
a small fraction).  The reasons for each choice are in ``DESIGN.md``.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.harness.config import ExperimentSpec, consolidated, mixed_pmdk
from repro.mem.address import MemoryKind
from repro.params import HTMConfig, HTMDesign, SignatureConfig
from repro.workloads import WorkloadParams

#: Machine scale of every workload (1/64 of the paper's Table III sizes).
SCALE = 1 / 64

KB = 1 << 10
MB = 1 << 20


def _uhtm(bits: int) -> HTMConfig:
    """UHTM with signature isolation: the paper's ``<bits>_opt`` design."""
    return HTMConfig(
        design=HTMDesign.UHTM,
        signature=SignatureConfig(bits=bits),
        isolation=True,
    )


def _scaled(count: int, size: float) -> int:
    return max(1, round(count * size))


def overflow_nvm(seed: int, size: float = 1.0) -> ExperimentSpec:
    """Fig. 7's setup: 500 KB NVM values overflow the LLC on every write."""
    params = WorkloadParams(
        threads=4,
        txs_per_thread=_scaled(16, size),
        value_bytes=500 * KB,
        ops_per_tx=1,
        keys=256,
        initial_fill=64,
    )
    return ExperimentSpec(
        name="perfbench:overflow-nvm",
        htm=_uhtm(4096),
        benchmarks=mixed_pmdk(params),
        scale=SCALE,
        membound_instances=2,
        seed=seed,
    )


def onchip_index(seed: int, size: float = 1.0) -> ExperimentSpec:
    """Small DRAM values: transactions stay on-chip, signatures idle."""
    params = WorkloadParams(
        threads=4,
        txs_per_thread=_scaled(48, size),
        value_bytes=64,
        ops_per_tx=4,
        keys=4096,
        initial_fill=2048,
        update_ratio=0.5,
        kind=MemoryKind.DRAM,
    )
    return ExperimentSpec(
        name="perfbench:onchip-index",
        htm=_uhtm(1024),
        benchmarks=mixed_pmdk(params),
        scale=SCALE,
        cache_scale=SCALE,
        seed=seed,
    )


def long_scan(seed: int, size: float = 1.0) -> ExperimentSpec:
    """Fig. 8's setup: long read-only scans overflow through the read set."""
    params = WorkloadParams(
        threads=4,
        txs_per_thread=1,  # unused: horizon mode runs for a fixed window
        value_bytes=16 * KB,
        ops_per_tx=8,
        keys=12 * 1024,
        initial_fill=12 * 1024,
    )
    benchmarks = consolidated(
        "echo",
        2,
        params,
        long_tx_ratio=0.02,
        long_scan_bytes=8 * MB,
        hot_keys=16,
        horizon_ns=3e6 * size,
    )
    return ExperimentSpec(
        name="perfbench:long-scan",
        htm=_uhtm(4096),
        benchmarks=benchmarks,
        scale=SCALE,
        cache_scale=SCALE / 2,
        seed=seed,
    )


WORKLOADS: Dict[str, Callable[..., ExperimentSpec]] = {
    "overflow-nvm": overflow_nvm,
    "onchip-index": onchip_index,
    "long-scan": long_scan,
}
