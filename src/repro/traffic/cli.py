"""``python -m repro traffic`` — the open-loop traffic scenario, end to end.

Runs the ``traffic`` figure grid (cacheable and pool-parallel like any
figure), prints the honest tail-latency table, then traces the
shared-vs-isolated domain configurations and prints the abort-induced
tail-amplification breakdown from :mod:`repro.traffic.report`.

``--smoke`` is the CI tier: the quick matrix at 1/64 scale, gated on

* percentile sanity — every row reports ``p50 <= p99 <= p999``;
* tail reduction — per-tenant conflict domains beat the shared domain at
  raw request p999 on every (inner, arrival) pair, same seed;
* the Section IV-D claim under load — isolation reduces abort-induced
  p999 tail amplification (actual vs abort-free replay) vs the shared
  domain.

Both gates are deterministic: the simulator is seed-stable, so the smoke
numbers are byte-identical on every run and platform.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

from ..harness.bench import SMOKE_SCALE
from ..harness.cache import ResultCache
from ..harness.config import DEFAULT_SCALE
from ..harness.figures import (
    TRAFFIC_DOMAINS,
    traffic,
    traffic_grid,
    traffic_matrix,
)
from ..harness.report import format_table
from ..harness.timer import Stopwatch
from .report import TailReport, tail_report

#: Column indexes of the percentile cells in the traffic figure rows.
_P50, _P99, _P999 = 3, 4, 5


def _percentile_violations(figure) -> List[str]:
    out = []
    for row in figure.rows:
        p50, p99, p999 = row[_P50], row[_P99], row[_P999]
        if not p50 <= p99 <= p999:
            out.append(
                f"{row[0]}/{row[1]}/{row[2]}: p50={p50:.3f} p99={p99:.3f} "
                f"p999={p999:.3f} not monotone"
            )
    return out


def _reduction_violations(figure) -> List[str]:
    """Per (inner, arrival): the isolated domain must beat shared at p999."""
    p999 = {(row[0], row[1], row[2]): row[_P999] for row in figure.rows}
    out = []
    for (inner, arrival, domains), value in sorted(p999.items()):
        if domains != "shared":
            continue
        isolated = p999.get((inner, arrival, "isolated"))
        if isolated is not None and not isolated < value:
            out.append(
                f"{inner}/{arrival}: isolated p999 {isolated:.3f}us is not "
                f"below shared {value:.3f}us"
            )
    return out


def _tail_section(
    quick: bool, scale: float, seed: int
) -> Tuple[List[Tuple[str, str, Dict[str, TailReport]]], str]:
    """Trace every (inner, arrival) pair under both domain configs."""
    specs = {
        point.key: point.spec for point in traffic_grid(quick, scale, seed)
    }
    inners, arrivals = traffic_matrix(quick)
    sections = []
    rows = []
    for inner in inners:
        for arrival in arrivals:
            reports: Dict[str, TailReport] = {}
            for domains, _ in TRAFFIC_DOMAINS:
                reports[domains] = tail_report(
                    specs[(inner, arrival, domains)],
                    f"{inner}:{arrival}:{domains}",
                )
            sections.append((inner, arrival, reports))
            for domains, _ in TRAFFIC_DOMAINS:
                report = reports[domains]
                alias_ns = report.excess_ns_by_group.get("signature_alias", 0.0)
                total_excess = sum(report.excess_ns_by_group.values())
                rows.append(
                    [
                        inner,
                        arrival,
                        domains,
                        report.chains,
                        report.clean_chains,
                        report.p999_ns / 1e3,
                        report.ideal_p999_ns / 1e3,
                        report.amplification_p99,
                        report.amplification_p999,
                        alias_ns / total_excess if total_excess else 0.0,
                    ]
                )
    table = format_table(
        [
            "inner",
            "arrival",
            "domains",
            "chains",
            "clean",
            "p999_us",
            "ideal_p999_us",
            "amp_p99",
            "amp_p999",
            "alias_share",
        ],
        rows,
        title="[Traffic] Abort-induced tail amplification "
        "(actual vs abort-free replay of the same arrivals)",
    )
    return sections, table


def _amplification_violations(sections) -> List[str]:
    out = []
    for inner, arrival, reports in sections:
        shared = reports["shared"].amplification_p999
        isolated = reports["isolated"].amplification_p999
        if not isolated < shared:
            out.append(
                f"{inner}/{arrival}: isolated amp_p999 {isolated:.3f} is "
                f"not below shared {shared:.3f}"
            )
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro traffic",
        description="Open-loop multi-tenant traffic scenario: honest tail "
        "latency plus abort-induced tail amplification.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI tier: quick matrix at 1/64 scale, gated on percentile "
        "sanity and on isolation reducing p999 tail amplification",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run the full store matrix instead of the quick one",
    )
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the figure grid (results bit-identical "
        "for any value)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="on-disk result cache for the figure grid",
    )
    parser.add_argument(
        "--no-tail",
        action="store_true",
        help="skip the traced tail-amplification section",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="also write the report as JSON"
    )
    args = parser.parse_args(argv)
    if args.smoke and args.full:
        parser.error("--smoke and --full are mutually exclusive")
    quick = not args.full
    scale = args.scale
    if scale is None:
        scale = SMOKE_SCALE if args.smoke else DEFAULT_SCALE
    cache = ResultCache(args.cache_dir) if args.cache_dir else None

    stopwatch = Stopwatch()
    figure = traffic(
        quick=quick, scale=scale, seed=args.seed, jobs=args.jobs, cache=cache
    )
    print(figure.pretty())
    print()
    failures = _percentile_violations(figure)
    for violation in failures:
        print(f"PERCENTILE SANITY FAILED: {violation}")
    if not failures:
        print("percentile sanity: p50 <= p99 <= p999 on every row")
    if args.smoke:
        reduction_failures = _reduction_violations(figure)
        for violation in reduction_failures:
            print(f"TAIL REDUCTION GATE FAILED: {violation}")
        if not reduction_failures:
            print(
                "tail reduction: isolated domains beat the shared domain "
                "at p999 on every (inner, arrival) pair"
            )
        failures.extend(reduction_failures)

    payload = {
        "figure": {"columns": figure.columns, "rows": figure.rows},
        "tail": [],
    }
    if not args.no_tail:
        print()
        sections, table = _tail_section(quick, scale, args.seed)
        print(table)
        for inner, arrival, reports in sections:
            shared = reports["shared"].amplification_p999
            isolated = reports["isolated"].amplification_p999
            reduction = (shared - isolated) / shared if shared else 0.0
            print(
                f"  * {inner}/{arrival}: isolation cuts p999 amplification "
                f"{shared:.2f}x -> {isolated:.2f}x ({reduction:.0%} lower)"
            )
            payload["tail"].append(
                {
                    "inner": inner,
                    "arrival": arrival,
                    "reports": {
                        name: report.to_dict()
                        for name, report in reports.items()
                    },
                }
            )
        if args.smoke:
            amp_failures = _amplification_violations(sections)
            for violation in amp_failures:
                print(f"TAIL AMPLIFICATION GATE FAILED: {violation}")
            failures.extend(amp_failures)
    print(f"\n[traffic] report generated in {stopwatch} wall clock")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
