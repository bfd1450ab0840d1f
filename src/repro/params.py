"""Simulation configuration, mirroring Table III of the paper.

The defaults reproduce the paper's machine: 16 in-order cores at 2 GHz, a
32 KB 8-way private L1 per core, a 16 MB 16-way shared LLC, DRAM at 82 ns,
and NVM at 175 ns read / 94 ns write (Optane-style asymmetry, where writes
complete at the controller's write-pending queue under ADR).

Because a pure-Python block-level simulator is orders of magnitude slower
than gem5, every size-like quantity accepts a *scale* factor.  Scaling
shrinks caches, transaction footprints, and signature widths **together**, so
the footprint-to-cache ratio — which is what determines overflow and conflict
behaviour — is preserved.  ``MachineConfig.scaled(1/16)`` is the harness
default; ``scaled(1)`` is paper scale.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError

#: Cache line size in bytes.  Fixed for the whole model (the paper's gem5
#: configuration uses 64-byte blocks).
LINE_SIZE = 64

#: Word size in bytes; the heap is word-addressable like a 64-bit machine.
WORD_SIZE = 8

#: Words per cache line.
WORDS_PER_LINE = LINE_SIZE // WORD_SIZE


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one set-associative cache."""

    size_bytes: int
    ways: int
    line_size: int = LINE_SIZE

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, "cache size must be positive")
        _require(self.ways > 0, "cache associativity must be positive")
        _require(self.line_size > 0, "line size must be positive")
        _require(
            self.size_bytes % (self.ways * self.line_size) == 0,
            f"cache size {self.size_bytes} is not divisible by "
            f"ways*line ({self.ways}*{self.line_size})",
        )

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_size

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.ways


@dataclass(frozen=True)
class LatencyConfig:
    """Access latencies in nanoseconds (Table III)."""

    l1_ns: float = 1.5
    llc_ns: float = 15.0
    dram_ns: float = 82.0
    nvm_read_ns: float = 175.0
    nvm_write_ns: float = 94.0
    #: The DRAM cache in front of NVM (Jeong et al., MICRO'18) is built from
    #: DRAM, so it inherits DRAM timing.
    dram_cache_ns: float = 82.0
    #: Fixed non-memory cost charged per data-structure operation, modelling
    #: the in-order core's compute between memory accesses.
    cpu_op_ns: float = 2.0
    #: Line-transfer (bandwidth) terms, used only when
    #: ``MemoryConfig.model_bandwidth`` is enabled: 64 B at ~25 GB/s DRAM
    #: and ~4 GB/s Optane-class NVM.
    dram_line_transfer_ns: float = 2.5
    nvm_line_transfer_ns: float = 16.0

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            _require(getattr(self, field.name) >= 0, f"{field.name} must be >= 0")


@dataclass(frozen=True)
class MemoryConfig:
    """Sizes of the simulated DRAM and NVM regions and their log areas.

    The log areas are reserved at system initialisation and are accessible
    only to the memory controllers, exactly as Section IV-B describes.
    """

    dram_bytes: int = 1 << 30
    nvm_bytes: int = 1 << 30
    dram_log_bytes: int = 64 << 20
    nvm_log_bytes: int = 64 << 20
    #: Capacity of the DRAM cache that buffers early-evicted NVM blocks.
    dram_cache_bytes: int = 4 << 20
    dram_cache_ways: int = 16
    #: Model finite channel bandwidth (queuing) for off-chip accesses.
    model_bandwidth: bool = False

    def __post_init__(self) -> None:
        _require(self.dram_bytes > 0, "dram_bytes must be positive")
        _require(self.nvm_bytes > 0, "nvm_bytes must be positive")
        _require(self.dram_log_bytes > 0, "dram_log_bytes must be positive")
        _require(self.nvm_log_bytes > 0, "nvm_log_bytes must be positive")
        _require(self.dram_cache_bytes > 0, "dram_cache_bytes must be positive")


@dataclass(frozen=True)
class SignatureConfig:
    """Per-core read/write address-signature configuration.

    ``bits`` is the advertised size used in the paper's labels (512_sig,
    1k_sig, 4k_sig).  ``effective_bits`` is the width after applying the
    machine scale factor so that Bloom-filter occupancy — and therefore the
    false-positive rate — matches the paper-scale behaviour.
    """

    bits: int = 1024
    hash_functions: int = 4
    #: Partition the filter into one bank per hash function (the SRAM
    #: organisation of LogTM-SE/Bulk) instead of one flat array.
    banked: bool = False

    def __post_init__(self) -> None:
        _require(self.bits >= 8, "signature must have at least 8 bits")
        _require(self.hash_functions >= 1, "need at least one hash function")
        if self.banked:
            _require(
                self.bits % self.hash_functions == 0,
                "banked signatures need bits divisible by hash_functions",
            )

    def effective_bits(self, scale: float) -> int:
        return max(8, int(round(self.bits * scale)))

    @property
    def label(self) -> str:
        if self.bits % 1024 == 0:
            return f"{self.bits // 1024}k"
        return str(self.bits)


@dataclass(frozen=True)
class MachineConfig:
    """The full simulated machine (Table III defaults at ``scale=1``)."""

    cores: int = 16
    clock_ghz: float = 2.0
    l1: CacheGeometry = CacheGeometry(size_bytes=32 << 10, ways=8)
    llc: CacheGeometry = CacheGeometry(size_bytes=16 << 20, ways=16)
    latency: LatencyConfig = LatencyConfig()
    memory: MemoryConfig = MemoryConfig()
    #: Linear shrink factor applied to caches / footprints / signatures.
    scale: float = 1.0

    def __post_init__(self) -> None:
        _require(self.cores > 0, "cores must be positive")
        _require(self.clock_ghz > 0, "clock must be positive")
        _require(0 < self.scale <= 1, "scale must be in (0, 1]")

    @staticmethod
    def scaled(
        scale: float, cores: int = 16, cache_scale: Optional[float] = None
    ) -> "MachineConfig":
        """Build a machine whose caches are shrunk by ``cache_scale``.

        ``scale`` governs footprints and signature widths; ``cache_scale``
        (default: equal to ``scale``) governs the cache geometries.
        Associativity is preserved; sizes are rounded to keep the
        sets-times-ways-times-line invariant.

        The experiment harness shrinks caches *more* than footprints:
        ``ExperimentSpec`` (``repro.harness.config``) passes
        ``cache_scale = scale / 16`` unless the spec sets its own.  That is
        contention compensation: a block-level model charges only memory
        latency, so transactions live shorter relative to co-runner
        eviction traffic than on the paper's in-order cores executing real
        instruction streams.  Shrinking the caches restores the paper's
        footprint-pressure-per-transaction-lifetime.  The DRAM cache in
        front of NVM shrinks by ``scale``, not ``cache_scale``.
        """
        _require(0 < scale <= 1, "scale must be in (0, 1]")
        if cache_scale is None:
            cache_scale = scale
        _require(0 < cache_scale <= 1, "cache_scale must be in (0, 1]")

        def shrink(geometry: CacheGeometry) -> CacheGeometry:
            target = max(1, int(round(geometry.num_sets * cache_scale)))
            return CacheGeometry(
                size_bytes=target * geometry.ways * geometry.line_size,
                ways=geometry.ways,
                line_size=geometry.line_size,
            )

        base = MachineConfig()
        return MachineConfig(
            cores=cores,
            clock_ghz=base.clock_ghz,
            l1=shrink(base.l1),
            llc=shrink(base.llc),
            latency=base.latency,
            memory=dataclasses.replace(
                base.memory,
                dram_cache_bytes=max(
                    LINE_SIZE * base.memory.dram_cache_ways,
                    int(base.memory.dram_cache_bytes * scale),
                ),
            ),
            scale=scale,
        )


class HTMDesign:
    """String constants naming the evaluated designs (Section V)."""

    LLC_BOUNDED = "llc_bounded"
    SIGNATURE_ONLY = "signature_only"
    UHTM = "uhtm"
    IDEAL = "ideal"

    ALL = (LLC_BOUNDED, SIGNATURE_ONLY, UHTM, IDEAL)


class DramLogPolicy:
    """Logging policy for LLC-overflowed DRAM blocks (Figure 10 ablation)."""

    UNDO = "undo"
    REDO = "redo"

    ALL = (UNDO, REDO)


@dataclass(frozen=True)
class HTMConfig:
    """Configuration of the transactional-memory design under test."""

    design: str = HTMDesign.UHTM
    signature: SignatureConfig = SignatureConfig()
    #: Signature isolation: confine conflict checks to the requester's
    #: conflict domain (the ``_opt`` labels in the paper's figures).
    isolation: bool = True
    #: Logging policy for LLC-overflowed DRAM data (Figure 10).
    dram_log_policy: str = DramLogPolicy.UNDO
    #: Conflict-resolution policy: "table2" (the paper's) or "oldest_wins"
    #: (timestamp-ordering extension; see repro.htm.conflict).
    resolution: str = "table2"
    #: Retries before falling back to the serialised slow path.
    max_retries: int = 8
    #: Mean of the randomised exponential backoff after an abort, ns.
    backoff_ns: float = 500.0
    #: Upper bound for the randomised backoff, ns.
    backoff_max_ns: float = 16_000.0

    def __post_init__(self) -> None:
        _require(self.design in HTMDesign.ALL, f"unknown design {self.design!r}")
        _require(
            self.dram_log_policy in DramLogPolicy.ALL,
            f"unknown DRAM log policy {self.dram_log_policy!r}",
        )
        _require(
            self.resolution in ("table2", "oldest_wins"),
            f"unknown resolution policy {self.resolution!r}",
        )
        _require(self.max_retries >= 0, "max_retries must be >= 0")
        _require(self.backoff_ns >= 0, "backoff_ns must be >= 0")
        _require(
            self.backoff_max_ns >= self.backoff_ns,
            "backoff_max_ns must be >= backoff_ns",
        )

    @property
    def label(self) -> str:
        """The figure label used in the paper, e.g. ``1k_opt``."""
        if self.design == HTMDesign.LLC_BOUNDED:
            return "LLC-Bounded"
        if self.design == HTMDesign.SIGNATURE_ONLY:
            return f"SigOnly-{self.signature.label}"
        if self.design == HTMDesign.IDEAL:
            return "Ideal"
        suffix = "opt" if self.isolation else "sig"
        return f"{self.signature.label}_{suffix}"
