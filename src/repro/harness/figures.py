"""Regeneration drivers for every figure and table in the paper.

Each function returns a :class:`FigureResult` whose rows mirror the
published series.  ``quick=True`` (the default) runs a reduced design/sweep
matrix sized for CI; ``quick=False`` runs the full matrix of the paper.

Every dynamic figure is split in two:

* ``<name>_grid(quick, scale, seed)`` materialises the figure's experiment
  grid — a deterministic, keyed list of
  :class:`~repro.harness.parallel.GridPoint`s — without running anything;
* ``<name>(quick, scale, seed, jobs, cache)`` fans that grid out through
  :func:`~repro.harness.parallel.run_keyed` (a process pool when
  ``jobs > 1``, an on-disk result cache when one is passed) and assembles
  the rows by key lookup.

Because simulation results are a pure function of each spec, rows are
bit-identical for every ``jobs`` value and cache state.  The exposed grids
also feed ``python -m repro bench`` (per-point timing) and the benchmark
smoke tier (one tiny point per figure).

Absolute numbers are simulated-time throughputs on the scaled machine; the
contract is *shape* fidelity (who wins, by roughly what factor, where
crossovers fall), recorded against the paper in ``EXPERIMENTS.md``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..htm.conflict import ConflictLocation, resolve_conflict
from ..mem.address import MemoryKind
from ..params import DramLogPolicy, HTMConfig, HTMDesign, SignatureConfig
from ..workloads import WORKLOADS, WorkloadParams
from .cache import ResultCache
from .config import (
    BenchmarkSpec,
    DEFAULT_SCALE,
    ExperimentSpec,
    consolidated,
    mixed_pmdk,
)
from .parallel import GridPoint, run_keyed
from .report import FigureResult

#: The PMDK micro-benchmarks plus Echo, as in Figure 6.
FIG6_BENCHMARKS = ("hashmap", "btree", "rbtree", "skiplist", "echo")

KB = 1 << 10
MB = 1 << 20


def _llc_bounded() -> HTMConfig:
    return HTMConfig(design=HTMDesign.LLC_BOUNDED)


def _ideal() -> HTMConfig:
    return HTMConfig(design=HTMDesign.IDEAL)


def _uhtm(bits: int, isolation: bool) -> HTMConfig:
    return HTMConfig(
        design=HTMDesign.UHTM,
        signature=SignatureConfig(bits=bits),
        isolation=isolation,
    )


def _sig_only(bits: int) -> HTMConfig:
    return HTMConfig(
        design=HTMDesign.SIGNATURE_ONLY, signature=SignatureConfig(bits=bits)
    )


def standard_design_matrix(quick: bool) -> List[HTMConfig]:
    """The Figure 6 comparison set (includes Signature-Only)."""
    sig_sizes = (1024,) if quick else (512, 1024, 4096)
    configs = [_llc_bounded(), _sig_only(sig_sizes[-1])]
    for bits in sig_sizes:
        configs.append(_uhtm(bits, isolation=False))
        configs.append(_uhtm(bits, isolation=True))
    configs.append(_ideal())
    return configs


def fig9_design_matrix(quick: bool) -> List[HTMConfig]:
    """The Figure 9 comparison set: LLC-Bounded, _sig/_opt sweeps, Ideal."""
    sig_sizes = (1024,) if quick else (512, 1024, 4096)
    configs = [_llc_bounded()]
    for bits in sig_sizes:
        configs.append(_uhtm(bits, isolation=False))
        configs.append(_uhtm(bits, isolation=True))
    configs.append(_ideal())
    return configs


def _pmdk_params(value_bytes: int, quick: bool) -> WorkloadParams:
    return WorkloadParams(
        threads=4,
        txs_per_thread=4 if quick else 8,
        value_bytes=value_bytes,
        ops_per_tx=1,
        keys=256,
        initial_fill=64,
    )


def _spec(
    name: str,
    htm: HTMConfig,
    benchmarks: Sequence[BenchmarkSpec],
    membound: int,
    scale: float,
    seed: int,
    cache_scale: float = 0.0,
) -> ExperimentSpec:
    return ExperimentSpec(
        name=name,
        htm=htm,
        benchmarks=tuple(benchmarks),
        scale=scale,
        cores=16,
        membound_instances=membound,
        seed=seed,
        cache_scale=cache_scale,
    )


# --------------------------------------------------------------------- Fig 2


def _fig2_benchmarks(quick: bool) -> Tuple[str, ...]:
    return FIG6_BENCHMARKS if not quick else ("hashmap", "btree", "skiplist")


def fig2_grid(
    quick: bool = True, scale: float = DEFAULT_SCALE, seed: int = 2020
) -> List[GridPoint]:
    value = 300 * KB  # past the on-chip boundary once consolidated
    points: List[GridPoint] = []
    for name in _fig2_benchmarks(quick):
        params = _pmdk_params(value, quick)
        for config in (_llc_bounded(), _ideal()):
            spec = _spec(
                f"fig2:{name}:{config.label}",
                config,
                consolidated(name, 4, params),
                membound=2,
                scale=scale,
                seed=seed,
            )
            points.append(GridPoint(spec, key=(name, config.label)))
    return points


def fig2(
    quick: bool = True,
    scale: float = DEFAULT_SCALE,
    seed: int = 2020,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> FigureResult:
    """LLC-Bounded vs Ideal unbounded throughput, 16 threads (Section III-C).

    The paper reports slowdowns of up to 6.2x for the bounded design.
    """
    result = FigureResult(
        "Fig. 2",
        "Throughput of LLC-Bounded vs Ideal unbounded HTM (normalised)",
        ["benchmark", "llc_bounded", "ideal", "ideal_speedup"],
    )
    runs = run_keyed(fig2_grid(quick, scale, seed), jobs=jobs, cache=cache)
    for name in _fig2_benchmarks(quick):
        bounded = runs[(name, "LLC-Bounded")]
        ideal = runs[(name, "Ideal")]
        result.add_row(
            name, 1.0, ideal.speedup_over(bounded), ideal.speedup_over(bounded)
        )
    return result


# --------------------------------------------------------------------- Fig 6


def fig6_grid(
    quick: bool = True, scale: float = DEFAULT_SCALE, seed: int = 2020
) -> List[GridPoint]:
    configs = standard_design_matrix(quick)
    points: List[GridPoint] = []
    for name in _fig2_benchmarks(quick):
        params = _pmdk_params(100 * KB, quick)
        for config in configs:
            spec = _spec(
                f"fig6:{name}:{config.label}",
                config,
                consolidated(name, 4, params),
                membound=2,
                scale=scale,
                seed=seed,
            )
            points.append(GridPoint(spec, key=(name, config.label)))
    return points


def fig6(
    quick: bool = True,
    scale: float = DEFAULT_SCALE,
    seed: int = 2020,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> FigureResult:
    """Throughput with 100 KB persistent transactions (Section VI-A).

    Four consolidated instances x four threads per benchmark plus two
    memory-intensive co-runners; everything normalised to LLC-Bounded.
    """
    configs = standard_design_matrix(quick)
    result = FigureResult(
        "Fig. 6",
        "Normalised throughput, 100 KB persistent transactions",
        ["benchmark"] + [c.label for c in configs],
    )
    runs = run_keyed(fig6_grid(quick, scale, seed), jobs=jobs, cache=cache)
    for name in _fig2_benchmarks(quick):
        baseline = runs[(name, configs[0].label)]
        row: List[object] = [name]
        for config in configs:
            row.append(runs[(name, config.label)].speedup_over(baseline))
        result.rows.append(row)
    return result


# --------------------------------------------------------------------- Fig 7


def _fig7_matrix(quick: bool) -> Tuple[Tuple[int, ...], List[HTMConfig]]:
    footprints = (100, 300, 500) if not quick else (100, 500)
    sig_sizes = (512, 1024, 4096) if not quick else (512, 4096)
    configs: List[HTMConfig] = []
    for bits in sig_sizes:
        configs.append(_uhtm(bits, isolation=False))
        configs.append(_uhtm(bits, isolation=True))
    return footprints, configs


def fig7_grid(
    quick: bool = True, scale: float = DEFAULT_SCALE, seed: int = 2020
) -> List[GridPoint]:
    footprints, configs = _fig7_matrix(quick)
    points: List[GridPoint] = []
    for footprint_kb in footprints:
        params = _pmdk_params(footprint_kb * KB, quick)
        for config in configs:
            spec = _spec(
                f"fig7:{footprint_kb}:{config.label}",
                config,
                mixed_pmdk(params),
                membound=2,
                scale=scale,
                seed=seed,
            )
            points.append(GridPoint(spec, key=(footprint_kb, config.label)))
    return points


def fig7(
    quick: bool = True,
    scale: float = DEFAULT_SCALE,
    seed: int = 2020,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> FigureResult:
    """Abort rates of UHTM, decomposed by cause (Section VI-A).

    Sweeps transaction footprint (100-500 KB) and signature size; reports
    the fraction of transaction attempts aborted by true conflicts, false
    positives, and capacity overflows.
    """
    result = FigureResult(
        "Fig. 7",
        "Abort-rate decomposition vs footprint and signature size",
        [
            "footprint_kb",
            "config",
            "abort_rate",
            "true_conflict",
            "false_positive",
            "capacity",
        ],
    )
    footprints, configs = _fig7_matrix(quick)
    runs = run_keyed(fig7_grid(quick, scale, seed), jobs=jobs, cache=cache)
    for footprint_kb in footprints:
        for config in configs:
            run = runs[(footprint_kb, config.label)]
            decomposition = run.abort_decomposition()
            result.add_row(
                footprint_kb,
                config.label,
                run.abort_rate,
                decomposition["true_conflict"],
                decomposition["false_positive"],
                decomposition["capacity"],
            )
    return result


# --------------------------------------------------------------------- Fig 8


def _fig8_ratios(quick: bool) -> Tuple[float, ...]:
    return (0.0, 0.01, 0.02) if quick else (0.0, 0.005, 0.01, 0.02)


def fig8_grid(
    quick: bool = True, scale: float = DEFAULT_SCALE, seed: int = 2020
) -> List[GridPoint]:
    params = WorkloadParams(
        threads=4,
        txs_per_thread=1,  # unused: horizon mode runs for a fixed window
        value_bytes=16 * KB,
        ops_per_tx=8,
        keys=12 * 1024,
        initial_fill=12 * 1024,
    )
    horizon_ns = (6e6 if quick else 15e6)  # 6 / 15 simulated ms
    points: List[GridPoint] = []
    for config in (_llc_bounded(), _uhtm(4096, True)):
        for ratio in _fig8_ratios(quick):
            spec = _spec(
                f"fig8:{ratio}:{config.label}",
                config,
                consolidated(
                    "echo",
                    2,
                    params,
                    long_tx_ratio=ratio,
                    long_scan_bytes=8 * MB,
                    hot_keys=16,
                    horizon_ns=horizon_ns,
                ),
                membound=0,
                scale=scale,
                seed=seed,
                # The hot put set must genuinely stay LLC-resident while
                # scans stream past it (the staged-detection win), so this
                # figure keeps the LLC at footprint scale / 2.
                cache_scale=scale / 2,
            )
            points.append(
                GridPoint(spec, label=config.label, key=(config.label, ratio))
            )
    return points


def fig8(
    quick: bool = True,
    scale: float = DEFAULT_SCALE,
    seed: int = 2020,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> FigureResult:
    """Echo with long-running read-only transactions (Section VI-B).

    0.5-2.0 % of operations are 8-32 MB read-only scans; the rest are 1 KB
    puts.  No co-runners.  The paper reports a 4.2x UHTM win at 0.5 %.
    """
    result = FigureResult(
        "Fig. 8",
        "Echo throughput with long-running read-only transactions "
        "(each series normalised to its own 0% run)",
        ["long_tx_pct", "llc_bounded", "uhtm", "uhtm_speedup"],
    )
    ratios = _fig8_ratios(quick)
    runs = run_keyed(fig8_grid(quick, scale, seed), jobs=jobs, cache=cache)
    bounded_base = runs[("LLC-Bounded", ratios[0])].throughput
    uhtm_base = runs[("4k_opt", ratios[0])].throughput
    for ratio in ratios:
        bounded = runs[("LLC-Bounded", ratio)].throughput
        uhtm = runs[("4k_opt", ratio)].throughput
        result.add_row(
            ratio * 100,
            bounded / bounded_base if bounded_base else 0.0,
            uhtm / uhtm_base if uhtm_base else 0.0,
            uhtm / bounded if bounded else 0.0,
        )
    return result


# --------------------------------------------------------------------- Fig 9


def _fig9_matrix(quick: bool):
    configs = fig9_design_matrix(quick)
    footprints = (600, 1200) if quick else (600, 900, 1200, 1500)
    workloads = (("Fig. 9a", "hybrid_index"), ("Fig. 9b", "dual_kv"))
    return configs, footprints, workloads


def fig9_grid(
    quick: bool = True, scale: float = DEFAULT_SCALE, seed: int = 2020
) -> List[GridPoint]:
    configs, footprints, workloads = _fig9_matrix(quick)
    points: List[GridPoint] = []
    for _, workload in workloads:
        for footprint_kb in footprints:
            ops = max(1, footprint_kb // 100)
            # A steady-state store: the whole key space is pre-populated and
            # operations are updates over per-thread shards, as in the
            # paper's pre-filled KV stores (inserting into an initially
            # empty scaled-down tree would serialise every thread on the
            # same few leaves, which millions-of-keys stores never do).
            params = WorkloadParams(
                threads=4,
                txs_per_thread=2 if quick else 4,
                value_bytes=100 * KB,
                ops_per_tx=ops,
                keys=4096,
                initial_fill=4096,
                update_ratio=1.0,
            )
            # Small consolidated runs are schedule-sensitive, so each point
            # averages a couple of seeds.
            for config in configs:
                for run_seed in (seed, seed + 1):
                    spec = _spec(
                        f"fig9:{workload}:{footprint_kb}:{config.label}",
                        config,
                        consolidated(workload, 4, params),
                        membound=0,
                        scale=scale,
                        seed=run_seed,
                        # No co-runners in this experiment: overflow comes
                        # from the footprints themselves, so the caches stay
                        # at footprint scale (partial spill, as at paper
                        # scale).
                        cache_scale=scale,
                    )
                    points.append(
                        GridPoint(
                            spec,
                            key=(workload, footprint_kb, config.label, run_seed),
                        )
                    )
    return points


def fig9(
    quick: bool = True,
    scale: float = DEFAULT_SCALE,
    seed: int = 2020,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> Tuple[FigureResult, FigureResult]:
    """Hybrid key-value stores vs transaction footprint (Section VI-C).

    Returns (Fig. 9a Hybrid-Index, Fig. 9b Dual).  Footprints grow via the
    operations batched per transaction; no LLC-hungry co-runners.
    """
    configs, footprints, workloads = _fig9_matrix(quick)
    runs = run_keyed(fig9_grid(quick, scale, seed), jobs=jobs, cache=cache)
    results = []
    for figure, workload in workloads:
        result = FigureResult(
            figure,
            f"{workload} normalised throughput vs footprint",
            ["footprint_kb"] + [c.label for c in configs],
        )
        for footprint_kb in footprints:
            baseline: Optional[float] = None
            row: List[object] = [footprint_kb]
            for config in configs:
                throughputs = [
                    runs[(workload, footprint_kb, config.label, run_seed)].throughput
                    for run_seed in (seed, seed + 1)
                ]
                mean = sum(throughputs) / len(throughputs)
                if baseline is None:
                    baseline = mean
                row.append(mean / baseline if baseline else 0.0)
            result.rows.append(row)
        results.append(result)
    return results[0], results[1]


# --------------------------------------------------------------------- Fig 10


def _fig10_matrix(quick: bool):
    footprints = (300, 900) if quick else (300, 600, 900)
    sig_sizes = (4096,) if quick else (1024, 4096)
    return footprints, sig_sizes


def fig10_grid(
    quick: bool = True, scale: float = DEFAULT_SCALE, seed: int = 2020
) -> List[GridPoint]:
    footprints, sig_sizes = _fig10_matrix(quick)
    points: List[GridPoint] = []
    for footprint_kb in footprints:
        params = _pmdk_params(footprint_kb * KB, quick).with_(
            kind=MemoryKind.DRAM, keys=2048, initial_fill=512
        )
        for policy in (DramLogPolicy.UNDO, DramLogPolicy.REDO):
            for bits in sig_sizes:
                config = HTMConfig(
                    design=HTMDesign.UHTM,
                    signature=SignatureConfig(bits=bits),
                    isolation=True,
                    dram_log_policy=policy,
                )
                spec = _spec(
                    f"fig10:{footprint_kb}:{policy}:{bits}",
                    config,
                    consolidated("hashmap", 2, params)
                    + consolidated("btree", 2, params),
                    membound=2,
                    scale=scale,
                    seed=seed,
                )
                points.append(
                    GridPoint(spec, key=(footprint_kb, policy, bits))
                )
    return points


def fig10(
    quick: bool = True,
    scale: float = DEFAULT_SCALE,
    seed: int = 2020,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> FigureResult:
    """Undo vs redo logging for overflowed DRAM blocks (Section VI-D).

    Volatile (DRAM-only) transactions under UHTM, identical except for the
    DRAM logging policy.  The paper reports undo ahead by 7.5 % at 300 KB
    and by up to 44.7 % as overflows grow.
    """
    result = FigureResult(
        "Fig. 10",
        "Volatile transactions: undo vs redo for overflowed DRAM blocks",
        ["footprint_kb", "undo", "redo", "undo_advantage"],
    )
    footprints, sig_sizes = _fig10_matrix(quick)
    runs = run_keyed(fig10_grid(quick, scale, seed), jobs=jobs, cache=cache)
    for footprint_kb in footprints:
        throughput = {}
        for policy in (DramLogPolicy.UNDO, DramLogPolicy.REDO):
            samples = [
                runs[(footprint_kb, policy, bits)].throughput
                for bits in sig_sizes
            ]
            throughput[policy] = sum(samples) / len(samples)
        undo = throughput[DramLogPolicy.UNDO]
        redo = throughput[DramLogPolicy.REDO]
        result.add_row(
            footprint_kb,
            1.0,
            redo / undo if undo else 0.0,
            (undo - redo) / redo if redo else 0.0,
        )
    return result


# ------------------------------------------------------- §IV-D abort claim


_ABORT_CLAIM_CONFIGS = (
    ("signature_only", lambda: _sig_only(1024)),
    ("uhtm_sig", lambda: _uhtm(1024, isolation=False)),
    ("uhtm_opt", lambda: _uhtm(1024, isolation=True)),
)


def abort_claim_grid(
    quick: bool = True, scale: float = DEFAULT_SCALE, seed: int = 2020
) -> List[GridPoint]:
    params = _pmdk_params(100 * KB, quick)
    points: List[GridPoint] = []
    for label, make_config in _ABORT_CLAIM_CONFIGS:
        spec = _spec(
            f"abort_claim:{label}",
            make_config(),
            mixed_pmdk(params),
            membound=2,
            scale=scale,
            seed=seed,
        )
        points.append(GridPoint(spec, label=label, key=label))
    return points


def abort_claim(
    quick: bool = True,
    scale: float = DEFAULT_SCALE,
    seed: int = 2020,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> FigureResult:
    """The 99% -> 26% -> 9% abort-rate reduction claim (Section IV-D).

    Signature-only (all-traffic checks) vs UHTM staged detection vs UHTM
    with conflict-domain isolation, on the consolidated PMDK set with
    co-runners.
    """
    result = FigureResult(
        "§IV-D",
        "Abort-rate reduction: all-traffic signatures -> staged -> isolated",
        ["config", "abort_rate", "false_positive_share"],
    )
    runs = run_keyed(
        abort_claim_grid(quick, scale, seed), jobs=jobs, cache=cache
    )
    for label, _ in _ABORT_CLAIM_CONFIGS:
        run = runs[label]
        result.add_row(label, run.abort_rate, run.false_positive_share)
    return result


# ------------------------------------------------- traffic (open-loop)


#: Tenants in the traffic scenario: one ``open_loop`` benchmark instance —
#: and therefore one simulated process / conflict domain — each.
TRAFFIC_TENANTS = 4

#: The figure's domain axis: the same signature hardware with conflict-
#: domain isolation off (one shared domain's worth of false aliasing
#: across tenants) vs on (the paper's per-tenant isolation, Section IV-D).
TRAFFIC_DOMAINS: Tuple[Tuple[str, bool], ...] = (
    ("shared", False),
    ("isolated", True),
)


def traffic_matrix(quick: bool) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """(inner stores, arrival models) the scenario sweeps."""
    inners = (
        ("hybrid_index",) if quick else ("hybrid_index", "dual_kv", "echo")
    )
    return inners, ("poisson", "bursty")


def traffic_spec(
    inner: str,
    arrival: str,
    domains: str,
    isolation: bool,
    quick: bool,
    scale: float,
    seed: int,
) -> ExperimentSpec:
    """One traffic point: N tenants of one store under one arrival model.

    Sized so each tenant thread sees a few hundred arrivals at ~2/3
    utilisation — busy enough that queueing (and abort retries) shape a
    real tail, open enough that the backlog drains.
    """
    params = WorkloadParams(
        threads=2,
        txs_per_thread=1,  # unused: open-loop runs until the horizon
        # Large enough that every put overflows the scaled L1 and enters
        # the staged signature path — without overflow the domains axis is
        # a no-op because signatures are never consulted.
        value_bytes=64 * KB,
        ops_per_tx=2,
        keys=512,
        initial_fill=512,
        update_ratio=1.0,
    )
    horizon_ns = 3e6 if quick else 8e6
    traffic_kwargs = dict(
        inner=inner,
        arrival=arrival,
        mean_gap_ns=25_000.0,
        horizon_ns=horizon_ns,
        zipf_theta=0.9,
        burst_on_ns=300_000.0,
        burst_off_ns=300_000.0,
        burst_factor=2.0,
    )
    benchmarks = tuple(
        BenchmarkSpec(
            "open_loop",
            params,
            tuple(sorted(dict(traffic_kwargs, tenant=tenant).items())),
        )
        for tenant in range(TRAFFIC_TENANTS)
    )
    return _spec(
        f"traffic:{inner}:{arrival}:{domains}",
        # 256-bit signatures: small enough that cross-tenant aliasing is
        # the dominant tail contributor when isolation is off.
        _uhtm(256, isolation),
        benchmarks,
        membound=1,
        scale=scale,
        seed=seed,
    )


def traffic_grid(
    quick: bool = True, scale: float = DEFAULT_SCALE, seed: int = 2020
) -> List[GridPoint]:
    inners, arrivals = traffic_matrix(quick)
    points: List[GridPoint] = []
    for inner in inners:
        for arrival in arrivals:
            for domains, isolation in TRAFFIC_DOMAINS:
                spec = traffic_spec(
                    inner, arrival, domains, isolation, quick, scale, seed
                )
                points.append(
                    GridPoint(
                        spec,
                        label=f"{inner}:{arrival}:{domains}",
                        key=(inner, arrival, domains),
                    )
                )
    return points


def traffic(
    quick: bool = True,
    scale: float = DEFAULT_SCALE,
    seed: int = 2020,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> FigureResult:
    """Open-loop multi-tenant tail latency (the ROADMAP traffic scenario).

    Four tenants of one store each, Zipf-skewed open-loop put traffic
    (Poisson or bursty arrivals), one LLC-polluting co-runner.  Latency is
    arrival-to-completion — queueing delay and abort retries included —
    with exact-sample percentiles.  The ``domains`` axis replays the
    paper's Section IV-D isolation claim under load: per-tenant conflict
    domains remove cross-tenant signature aliasing from the tail.
    """
    result = FigureResult(
        "Traffic",
        "Open-loop tail latency, 4 tenants (arrival->completion, "
        "microseconds)",
        [
            "inner",
            "arrival",
            "domains",
            "p50_us",
            "p99_us",
            "p999_us",
            "abort_rate",
            "backlog_share",
        ],
    )
    inners, arrivals = traffic_matrix(quick)
    runs = run_keyed(traffic_grid(quick, scale, seed), jobs=jobs, cache=cache)
    for inner in inners:
        for arrival in arrivals:
            for domains, _ in TRAFFIC_DOMAINS:
                run = runs[(inner, arrival, domains)]
                latency = run.latency
                requests = latency.get("count", 0.0)
                result.add_row(
                    inner,
                    arrival,
                    domains,
                    latency.get("p50", 0.0) / 1e3,
                    latency.get("p99", 0.0) / 1e3,
                    latency.get("p999", 0.0) / 1e3,
                    run.abort_rate,
                    latency.get("backlogged", 0.0) / requests
                    if requests
                    else 0.0,
                )
    return result


# -------------------------------------------------------------- Tables


def table1() -> FigureResult:
    """Table I: qualitative design comparison, rendered from the designs."""
    result = FigureResult(
        "Table I",
        "Comparison of UHTM with previous studies",
        ["design", "dram_boundary", "nvm_boundary", "onchip_detection",
         "offchip_detection", "dram_versioning", "nvm_versioning"],
    )
    result.add_row("LogTM/LTM/VTM", "unbounded", "none", "coherence",
                   "sticky/DRAM tables", "undo", "none")
    result.add_row("LogTM-SE/Bulk", "unbounded", "none", "signatures(L1)",
                   "signatures(all traffic)", "redo", "none")
    result.add_row("PTM/PHyTM/NV-HTM", "none", "L1", "coherence(L1)",
                   "none", "none", "undo/redo")
    result.add_row("DHTM", "none", "LLC", "coherence", "none", "none", "redo")
    result.add_row("UHTM", "unbounded", "unbounded", "coherence",
                   "signatures(LLC-miss)+isolation", "undo(overflow)", "redo")
    return result


def table2() -> FigureResult:
    """Table II: the conflict-resolution policy, probed from the code."""
    result = FigureResult(
        "Table II",
        "Conflict resolution policy of UHTM",
        ["location", "overflowed", "action"],
    )
    probes = [
        (ConflictLocation.ON_CHIP, True, False, "Abort non-overflowed Tx"),
        (ConflictLocation.ON_CHIP, False, False, "Requester-Wins"),
        (ConflictLocation.OFF_CHIP, True, False, "Abort non-overflowed Tx"),
        (ConflictLocation.OFF_CHIP, False, False, "Requester-Aborts"),
    ]
    for location, req_ovf, vic_ovf, expected in probes:
        resolution = resolve_conflict(location, req_ovf, [2], {2: vic_ovf})
        if resolution.requester_aborts:
            action = "Requester-Aborts"
        elif req_ovf != vic_ovf:
            action = "Abort non-overflowed Tx"
        else:
            action = "Requester-Wins"
        assert action == expected, f"policy drift: {location} {req_ovf}"
        label = "One" if req_ovf != vic_ovf else "None or both"
        result.add_row(location.value, label, action)
    return result


def table4() -> FigureResult:
    """Table IV: the benchmark list, from the workload registry."""
    descriptions = {
        "hashmap": "Insert/update entries in hash table",
        "btree": "Insert/update nodes in b-tree",
        "rbtree": "Insert/update nodes in red-black tree",
        "skiplist": "Insert/update entries in skip-list",
        "hybrid_index": "KV-store with two indexes in DRAM and in NVM",
        "dual_kv": "KV-store with two data structures in DRAM and NVM",
        "echo": "Insert/update KV-pairs to persistent hash table",
        "membound": "LLC-hungry streaming co-runner",
        "graphhog": "graph500-style random-walk co-runner",
        "open_loop": "Open-loop Zipf-skewed tenant traffic generator",
    }
    result = FigureResult(
        "Table IV", "Benchmarks", ["benchmark", "description"]
    )
    for name in WORKLOADS:
        result.add_row(name, descriptions[name])
    return result


ALL_FIGURES = {
    "fig2": fig2,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "abort_claim": abort_claim,
    "traffic": traffic,
    "table1": table1,
    "table2": table2,
    "table4": table4,
}

#: Grid builders for every dynamic figure — the unit ``repro bench`` times
#: and the benchmark smoke tier samples.  Same keys as ``ALL_FIGURES`` minus
#: the static tables.
FIGURE_GRIDS = {
    "fig2": fig2_grid,
    "fig6": fig6_grid,
    "fig7": fig7_grid,
    "fig8": fig8_grid,
    "fig9": fig9_grid,
    "fig10": fig10_grid,
    "abort_claim": abort_claim_grid,
    "traffic": traffic_grid,
}
