"""``python -m repro bench`` — grid runs with per-point timing and caching.

Runs the experiment grid behind one or more figures through the parallel
executor, measures every point with :class:`~repro.harness.timer.Stopwatch`,
and writes one ``BENCH_<figure>.json`` perf-trajectory artifact per figure::

    python -m repro bench fig6 --jobs 4 --cache-dir .repro-cache
    python -m repro bench --jobs 8 --verify          # all dynamic figures

The artifact records, for each point: its key, label, spec fingerprint,
whether it was served from the cache, and the simulation wall time.  A
warm-cache re-run reports ``simulated: 0`` — nothing is recomputed unless a
spec (or the cache version stamp) changed.

``--verify`` re-runs one pooled point serially and asserts the bit-identical
parallelism contract before any result is published to the cache.

``-m smoke`` is the perf-gate tier: the quick grids at scale 1/64, small
enough to run on every change.  ``--compare`` turns the run into a
regression gate — each simulated point is checked against the matching
point of a baseline ``BENCH_<figure>.json`` (the committed baselines by
default) and the run exits non-zero if any point got more than 15%
slower::

    python -m repro bench -m smoke --compare          # gate vs committed
    python -m repro bench fig7 --compare old/          # gate vs a directory

Baselines are machine-specific: reseed them (``-m smoke --out-dir .``) on
the machine that will run the gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from .cache import ResultCache
from .config import DEFAULT_SCALE
from .figures import FIGURE_GRIDS
from .parallel import GridOutcome, run_grid_detailed
from .report import format_table
from .timer import Stopwatch

#: The smoke tier's machine scale: quick grids shrunk far enough that the
#: whole dynamic-figure sweep runs in well under a minute.
SMOKE_SCALE = 1 / 64

#: Default allowed per-point slowdown before the ``--compare`` gate fails.
DEFAULT_TOLERANCE = 0.15

#: Baseline points faster than this are below the host timing noise floor
#: and never gate.
MIN_COMPARABLE_S = 0.05

#: Absolute slack added on top of the relative tolerance: host noise on a
#: 0.15 s point routinely exceeds 15%, so small points only gate on
#: slowdowns that are large in absolute terms too.
ABS_SLACK_S = 0.1


def comparable_points(
    artifact: dict, baseline: dict
) -> List[Tuple[dict, dict]]:
    """``(current, baseline)`` point pairs the gates may consider.

    A pair forms when the points match by ``(label, key)`` and both were
    simulated (not cache-served).  Every gate draws from this one pairing,
    and the CLI counts the pairs so a run where the gate compared *nothing*
    — a stale or mismatched baseline — fails loudly instead of passing
    vacuously.
    """

    def point_id(point: dict) -> tuple:
        return (point.get("label"), json.dumps(point.get("key")))

    base_points = {point_id(p): p for p in baseline.get("points", ())}
    pairs = []
    for point in artifact.get("points", ()):
        base = base_points.get(point_id(point))
        if base is None:
            continue
        if point.get("cached") or base.get("cached"):
            continue
        pairs.append((point, base))
    return pairs


def compare_to_baseline(
    artifact: dict, baseline: dict, tolerance: float = DEFAULT_TOLERANCE
) -> List[str]:
    """Per-point perf gate: current vs baseline elapsed seconds.

    Returns human-readable violation lines (empty means the gate passes).
    A point participates only when it pairs up under
    :func:`comparable_points` and the baseline time is above
    :data:`MIN_COMPARABLE_S`; it fails when it exceeds
    ``baseline * (1 + tolerance) + ABS_SLACK_S``.
    """
    violations = []
    for point, base in comparable_points(artifact, baseline):
        base_s = base.get("elapsed_s", 0.0)
        if base_s < MIN_COMPARABLE_S:
            continue
        elapsed_s = point["elapsed_s"]
        if elapsed_s > base_s * (1.0 + tolerance) + ABS_SLACK_S:
            violations.append(
                f"{artifact.get('figure', '?')}: {point['label']} "
                f"{point.get('key')} took {elapsed_s:.3f}s vs baseline "
                f"{base_s:.3f}s (more than {tolerance:.0%} slower)"
            )
    return violations


def _load_baseline(compare_arg: str, figure: str):
    """Resolve and load the baseline artifact for ``figure``.

    ``compare_arg`` may be a directory holding ``BENCH_<figure>.json``
    files or one artifact file; returns ``(artifact_or_None, path)``.
    """
    path = Path(compare_arg)
    if path.is_dir():
        path = path / f"BENCH_{figure}.json"
    if not path.is_file():
        return None, path
    data = json.loads(path.read_text(encoding="utf-8"))
    if data.get("figure") != figure:
        return None, path
    return data, path


def _artifact(
    figure: str,
    outcome: GridOutcome,
    args: argparse.Namespace,
    total_s: float,
) -> dict:
    return {
        "figure": figure,
        "quick": not args.full,
        "scale": args.scale,
        "seed": args.seed,
        "jobs": args.jobs,
        "total_s": round(total_s, 3),
        "points_total": len(outcome.runs),
        "simulated": outcome.simulated,
        "cache_hits": outcome.cache_hits,
        "points": [
            {
                "key": list(run.key) if isinstance(run.key, tuple) else run.key,
                "label": run.label,
                "fingerprint": run.fingerprint,
                "cached": run.cached,
                "elapsed_s": round(run.elapsed_s, 4),
            }
            for run in outcome.runs
        ],
    }


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Time figure grids point-by-point, optionally in "
        "parallel and against a result cache.",
    )
    parser.add_argument(
        "figures",
        nargs="*",
        metavar="FIGURE",
        help="dynamic figures to bench (default: all of "
        + ", ".join(sorted(FIGURE_GRIDS))
        + ")",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="bench the paper's full sweep matrix instead of the quick one",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=DEFAULT_SCALE,
        help=f"machine scale factor (default {DEFAULT_SCALE:g})",
    )
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the grid (results are bit-identical "
        "for any value)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="result-cache directory; unchanged points are not re-simulated",
    )
    parser.add_argument(
        "--out-dir",
        metavar="PATH",
        default=".",
        help="where to write the BENCH_<figure>.json artifacts (default: .)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="re-run one pooled point serially and assert the bit-identical "
        "parallelism contract",
    )
    parser.add_argument(
        "-m",
        "--tier",
        choices=("smoke",),
        help="preset tier: 'smoke' benches the quick grids at scale "
        f"{SMOKE_SCALE:g} (overrides --full/--scale)",
    )
    parser.add_argument(
        "--compare",
        nargs="?",
        const=".",
        metavar="PATH",
        help="perf-regression gate: exit non-zero if any simulated point is "
        "slower than the matching point of a baseline BENCH_<figure>.json "
        "by more than the tolerance; PATH is a baseline file or a directory "
        "of them (default: the committed baselines in the current directory)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        metavar="FRACTION",
        help="allowed per-point slowdown for --compare "
        f"(default {DEFAULT_TOLERANCE:g})",
    )
    args = parser.parse_args(argv)
    if args.tier == "smoke":
        args.full = False
        args.scale = SMOKE_SCALE

    names = args.figures or sorted(FIGURE_GRIDS)
    unknown = [name for name in names if name not in FIGURE_GRIDS]
    if unknown:
        parser.error(
            f"unknown figure(s) {', '.join(unknown)}; benchable figures: "
            + ", ".join(sorted(FIGURE_GRIDS))
        )
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    summary_rows = []
    violations: List[str] = []
    compared_total = 0
    baselines_loaded = 0
    for name in names:
        points = FIGURE_GRIDS[name](
            quick=not args.full, scale=args.scale, seed=args.seed
        )
        stopwatch = Stopwatch()
        outcome = run_grid_detailed(
            points, jobs=args.jobs, cache=cache, verify_sample=args.verify
        )
        total_s = stopwatch.elapsed_s
        artifact = _artifact(name, outcome, args, total_s)
        if args.compare is not None:
            baseline, baseline_path = _load_baseline(args.compare, name)
            if baseline is None:
                print(f"[{name}] no baseline at {baseline_path}; not gated")
            else:
                baselines_loaded += 1
                compared_total += len(comparable_points(artifact, baseline))
                found = compare_to_baseline(artifact, baseline, args.tolerance)
                violations.extend(found)
                verdict = "ok" if not found else f"{len(found)} regression(s)"
                print(f"[{name}] compared against {baseline_path}: {verdict}")
        artifact_path = out_dir / f"BENCH_{name}.json"
        artifact_path.write_text(
            json.dumps(artifact, indent=2) + "\n", encoding="utf-8"
        )
        slowest_s = max(
            (p["elapsed_s"] for p in artifact["points"]), default=None
        )
        summary_rows.append(
            [
                name,
                artifact["points_total"],
                artifact["simulated"],
                artifact["cache_hits"],
                f"{total_s:.1f}s",
                f"{slowest_s:.1f}s" if slowest_s is not None else "-",
            ]
        )
        print(f"[{name}] {artifact['points_total']} points in {total_s:.1f}s "
              f"({artifact['simulated']} simulated, "
              f"{artifact['cache_hits']} cached) "
              f"-> {artifact_path}")
    print()
    print(
        format_table(
            ["figure", "points", "simulated", "cached", "wall", "slowest point"],
            summary_rows,
            title=f"bench: jobs={args.jobs}"
            + (f", cache={args.cache_dir}" if args.cache_dir else ""),
        )
    )
    if cache is not None:
        stats = cache.stats
        print(
            f"\ncache: {stats.hits} hits, {stats.misses} misses, "
            f"{stats.stores} stores, {stats.simulations} simulations"
            + (f", {stats.corrupt} corrupt entries skipped" if stats.corrupt else "")
        )
    if (
        args.compare is not None
        and baselines_loaded > 0
        and compared_total == 0
    ):
        # Baselines were found, yet the gate paired zero points: a stale
        # baseline, renamed labels, or an all-cached run.  That must fail
        # loudly rather than report a vacuous pass.  (No baseline at all
        # stays non-fatal — that is the bootstrap path that seeds one.)
        violations.append(
            "--compare matched zero simulated points across "
            f"{baselines_loaded} baseline(s); the perf gate compared nothing"
        )
    if violations:
        print(f"\nperf gate FAILED ({len(violations)} regression(s)):")
        for line in violations:
            print(f"  {line}")
        return 1
    if args.compare is not None:
        print(f"\nperf gate passed ({compared_total} points compared)")
    return 0
