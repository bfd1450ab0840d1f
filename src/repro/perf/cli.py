"""``python -m repro profile`` — where does the host wall-clock go?

Runs a figure's quick grid (or one workload under UHTM) with the manual
phase timers attached and cProfile recording, then prints a hot-spot
report::

    python -m repro profile fig7 --json
    python -m repro profile hashmap --sort tottime --top 10
    python -m repro profile fig2 --points 2

The report has two sections: the simulator phases (exclusive time — see
:mod:`repro.perf.phases`) and the top functions by cumulative or total
time.  ``--json`` emits the same data machine-readably on stdout.

Profiled runs are slower than plain runs (tracing overhead); use
``python -m repro bench`` for honest wall-clock numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from ..harness.config import ExperimentSpec, consolidated
from ..harness.figures import FIGURE_GRIDS
from ..harness.report import format_table
from ..harness.runner import run_experiment
from ..harness.timer import Stopwatch
from ..params import HTMConfig
from ..workloads import WORKLOADS, WorkloadParams
from .phases import PHASES, PhaseTimers
from .profiler import SORT_KEYS, profile_callable

#: Co-runners only make sense next to a benchmark; not standalone targets.
_CORUNNERS = frozenset({"membound", "graphhog"})

#: Default machine scale for profiling runs: the smoke tier's, so a profile
#: finishes in seconds even under tracing overhead.
PROFILE_SCALE = 1 / 64


def _workload_runs(
    name: str, scale: float, seed: int
) -> List[Tuple[ExperimentSpec, str]]:
    """One consolidated UHTM run of ``name``, sized like the PMDK figures."""
    params = WorkloadParams(
        threads=4,
        txs_per_thread=4,
        value_bytes=300 << 10,
        ops_per_tx=1,
        keys=256,
        initial_fill=64,
    )
    spec = ExperimentSpec(
        name=f"profile:{name}",
        htm=HTMConfig(),
        benchmarks=consolidated(name, 4, params),
        scale=scale,
        seed=seed,
    )
    return [(spec, f"profile:{name}")]


def _figure_runs(
    name: str, scale: float, seed: int, points: int
) -> List[Tuple[ExperimentSpec, Optional[str]]]:
    grid = FIGURE_GRIDS[name](quick=True, scale=scale, seed=seed)
    if points:
        grid = grid[:points]
    return [(point.spec, point.label) for point in grid]


def build_report(
    target: str,
    sort: str = "cumtime",
    top: int = 15,
    scale: float = PROFILE_SCALE,
    seed: int = 2020,
    points: int = 0,
) -> dict:
    """Profile ``target`` and return the hot-spot report as plain data."""
    if target in FIGURE_GRIDS:
        kind = "figure"
        runs = _figure_runs(target, scale, seed, points)
    elif target in WORKLOADS and target not in _CORUNNERS:
        kind = "workload"
        runs = _workload_runs(target, scale, seed)
    else:
        choices = sorted(FIGURE_GRIDS) + sorted(set(WORKLOADS) - _CORUNNERS)
        raise ValueError(
            f"unknown profile target {target!r}; choose from: "
            + ", ".join(choices)
        )
    timers = PhaseTimers()
    stopwatch = Stopwatch()
    with timers:
        _, hotspots = profile_callable(
            lambda: [run_experiment(spec, label) for spec, label in runs],
            sort=sort,
            top=top,
        )
    return {
        "target": target,
        "kind": kind,
        "points": len(runs),
        "scale": scale,
        "seed": seed,
        "sort": sort,
        "top": top,
        "wall_s": round(stopwatch.elapsed_s, 3),
        "phases": timers.report(),
        "hotspots": [spot.to_dict() for spot in hotspots],
    }


def _print_report(report: dict) -> None:
    phase_rows = [
        [
            phase,
            f"{report['phases'][phase]['seconds']:.3f}s",
            report["phases"][phase]["calls"],
            f"{report['phases'][phase]['share'] * 100:.1f}%",
        ]
        for phase in PHASES
    ]
    print(
        format_table(
            ["phase", "exclusive", "calls", "share"],
            phase_rows,
            title=f"phases: {report['target']} "
            f"({report['points']} points, {report['wall_s']:.1f}s wall)",
        )
    )
    print()
    spot_rows = [
        [
            spot["function"],
            f"{spot['file']}:{spot['line']}",
            spot["ncalls"],
            f"{spot['tottime_s']:.3f}s",
            f"{spot['cumtime_s']:.3f}s",
        ]
        for spot in report["hotspots"]
    ]
    print(
        format_table(
            ["function", "where", "ncalls", "tottime", "cumtime"],
            spot_rows,
            title=f"top {report['top']} by {report['sort']}",
        )
    )


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description="Profile a figure grid or workload: simulator phases "
        "plus a cProfile hot-spot report.",
    )
    parser.add_argument(
        "target",
        metavar="TARGET",
        help="a dynamic figure ("
        + ", ".join(sorted(FIGURE_GRIDS))
        + ") or a benchmark workload ("
        + ", ".join(sorted(set(WORKLOADS) - _CORUNNERS))
        + ")",
    )
    parser.add_argument(
        "--sort",
        choices=SORT_KEYS,
        default="cumtime",
        help="hot-spot ordering (default: cumtime)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=15,
        metavar="N",
        help="how many hot spots to report (default: 15)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON on stdout",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=PROFILE_SCALE,
        help=f"machine scale factor (default {PROFILE_SCALE:g}, the smoke "
        "tier)",
    )
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument(
        "--points",
        type=int,
        default=0,
        metavar="N",
        help="profile only the first N grid points (0 = whole grid)",
    )
    args = parser.parse_args(argv)

    try:
        report = build_report(
            args.target,
            sort=args.sort,
            top=args.top,
            scale=args.scale,
            seed=args.seed,
            points=args.points,
        )
    except ValueError as exc:
        parser.error(str(exc))
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_report(report)
    return 0
