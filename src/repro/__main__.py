"""Command-line interface: regenerate any figure or table of the paper.

Usage::

    python -m repro list
    python -m repro fig6
    python -m repro fig9 --full
    python -m repro all --seed 7 --jobs 4 --cache-dir .repro-cache
    python -m repro bench fig6 --jobs 4
    python -m repro faults --workload hashmap --crashes 50 --seed 1
    python -m repro trace fig7 --report
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Optional

from .harness.cache import ResultCache
from .harness.export import to_json, to_markdown
from .harness.figures import ALL_FIGURES
from .harness.config import DEFAULT_SCALE
from .harness.timer import Stopwatch

#: Figures that accept (quick, scale, seed); tables take no arguments.
_STATIC = {"table1", "table2", "table4"}

#: Every tool that is not a figure name: ``subcommand -> (module, help)``.
#: Each module exposes ``main(argv) -> int``.  ``python -m repro list``
#: prints this table, so a new tool registers here and nowhere else.
SUBCOMMANDS = {
    "bench": ("repro.harness.bench", "benchmark figure grids; perf gate"),
    "faults": ("repro.faults.cli", "crash-consistency fault campaigns"),
    "lint": ("repro.analyze.cli", "static layering/determinism gates"),
    "profile": ("repro.perf.cli", "phase-level profiling reports"),
    "trace": ("repro.obs.cli", "transaction tracing and abort forensics"),
    "traffic": ("repro.traffic.cli", "open-loop multi-tenant tail latency"),
}


def _run_one(
    name: str,
    quick: bool,
    scale: float,
    seed: int,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> list:
    driver = ALL_FIGURES[name]
    stopwatch = Stopwatch()
    if name in _STATIC:
        results = driver()
    else:
        results = driver(
            quick=quick, scale=scale, seed=seed, jobs=jobs, cache=cache
        )
    if not isinstance(results, tuple):
        results = (results,)
    for result in results:
        print(result.pretty())
        print()
    print(f"[{name}] regenerated in {stopwatch} wall clock")
    return list(results)


def _print_listing() -> None:
    print("figures:")
    for name in sorted(ALL_FIGURES):
        print(f"  {name}")
    print("subcommands:")
    for name in sorted(SUBCOMMANDS):
        _, description = SUBCOMMANDS[name]
        print(f"  {name:<10}{description}")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        module_path, _ = SUBCOMMANDS[argv[0]]
        return importlib.import_module(module_path).main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "figure",
        help="one of: " + ", ".join(sorted(ALL_FIGURES)) + ", all, list"
        " (or a subcommand: " + ", ".join(sorted(SUBCOMMANDS)) + ")",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run the paper's full sweep matrix instead of the quick one",
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
        help="worker processes per figure grid (results are bit-identical "
        "for any value)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="on-disk result cache; unchanged points are not re-simulated "
        "and an interrupted run resumes where it stopped",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="also write the results as JSON"
    )
    parser.add_argument(
        "--markdown", metavar="PATH", help="also write the results as Markdown"
    )
    args = parser.parse_args(argv)

    if args.figure == "list":
        _print_listing()
        return 0
    if args.figure == "all":
        names = sorted(ALL_FIGURES)
    elif args.figure in ALL_FIGURES:
        names = [args.figure]
    else:
        parser.error(
            f"unknown figure {args.figure!r}; try 'python -m repro list'"
        )
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    collected = []
    for name in names:
        collected.extend(
            _run_one(
                name, not args.full, args.scale, args.seed,
                jobs=args.jobs, cache=cache,
            )
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(to_json(collected))
        print(f"wrote {args.json}")
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write(to_markdown(collected))
        print(f"wrote {args.markdown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
