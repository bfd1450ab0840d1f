"""The repository benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload overflow-nvm --seed 2020 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` makes the
separate traced run and prints every per-layer metric.  The last line of
standard output is the result object; the lines before it describe each
simulation and where the figures came from.  A full report (and, for a
traced run, the span records) is written under ``.perfbench-out/``.
See ``perfbench/DESIGN.md`` for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("overflow-nvm", "onchip-index", "long-scan")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The program's default engine, whatever the caller's environment says.
    os.environ.pop("REPRO_ENGINE", None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import measure

    if args.trace:
        outcome = measure.measure_traced(args.workload, args.seed)
    else:
        outcome = measure.measure(args.workload, args.seed, args.seconds)
    info = measure.context(ROOT, outcome.engine)
    info.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        digest=outcome.digest,
        fail_ratio=outcome.failed / outcome.attempted,
    )
    print("context " + json.dumps(info, sort_keys=True))
    summary = outcome.summary()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = dict(info, summary=summary, sims=[sim.line() for sim in outcome.sims])
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if outcome.tracer is not None:
        outcome.tracer.write(str(OUT_DIR / f"{stem}.spans.jsonl"), info)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
