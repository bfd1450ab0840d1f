"""Experiment specifications.

An :class:`ExperimentSpec` is everything needed to reproduce one data point:
the machine (scale, cores), the HTM design under test, the consolidated
benchmark instances (the paper runs four instances with four threads each),
and how many memory-intensive co-runners to add.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from ..errors import ConfigError
from ..params import HTMConfig, MachineConfig
from ..workloads import WORKLOADS, WorkloadParams

#: Default machine scale for harness runs (1/16 of Table III sizes).
DEFAULT_SCALE = 1 / 16


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark instance: a workload bound to its own process."""

    workload: str
    params: WorkloadParams
    #: Extra constructor kwargs (e.g. Echo's ``long_tx_ratio``).
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ConfigError(f"unknown workload {self.workload!r}")

    def kwargs_dict(self) -> Dict[str, Any]:
        return dict(self.kwargs)


@dataclass(frozen=True)
class ExperimentSpec:
    """One simulator run."""

    name: str
    htm: HTMConfig
    benchmarks: Tuple[BenchmarkSpec, ...]
    scale: float = DEFAULT_SCALE
    cores: int = 16
    #: Memory-intensive co-runner instances (one thread each).
    membound_instances: int = 0
    membound_llc_multiple: float = 2.0
    #: Which co-runner: "membound" (streaming) or "graphhog" (random walk).
    corunner: str = "membound"
    seed: int = 2020
    #: Safety cap on scheduler steps (0 = unlimited).
    max_steps: int = 0
    #: Extra cache shrink relative to footprints (contention compensation;
    #: see :meth:`repro.params.MachineConfig.scaled`).  0 means "scale / 16".
    cache_scale: float = 0.0

    def __post_init__(self) -> None:
        if not self.benchmarks:
            raise ConfigError("an experiment needs at least one benchmark")
        if self.membound_instances < 0:
            raise ConfigError("membound_instances must be >= 0")
        if self.corunner not in ("membound", "graphhog"):
            raise ConfigError(f"unknown co-runner {self.corunner!r}")

    def machine(self) -> MachineConfig:
        cache_scale = self.cache_scale or self.scale / 16
        return MachineConfig.scaled(
            self.scale, cores=self.cores, cache_scale=cache_scale
        )


def consolidated(
    workload: str,
    instances: int,
    params: WorkloadParams,
    **kwargs: Any,
) -> Tuple[BenchmarkSpec, ...]:
    """The paper's setup: N instances of one benchmark, one process each."""
    return tuple(
        BenchmarkSpec(workload, params, tuple(sorted(kwargs.items())))
        for _ in range(instances)
    )


def mixed_pmdk(params: WorkloadParams) -> Tuple[BenchmarkSpec, ...]:
    """One instance of each PMDK micro-benchmark, consolidated."""
    return tuple(
        BenchmarkSpec(name, params)
        for name in ("hashmap", "btree", "rbtree", "skiplist")
    )
