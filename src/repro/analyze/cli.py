"""``python -m repro lint`` — run the static-analysis pass.

Usage::

    python -m repro lint                       # whole repro tree
    python -m repro lint src/repro/htm         # a subtree
    python -m repro lint --rules DET001,LAY002 # a rule subset
    python -m repro lint --json                # machine-readable report
    python -m repro lint --sarif out.sarif     # SARIF 2.1.0 artifact
    python -m repro lint --fix-suppress        # append/merge allow[...]

Exit codes: 0 clean, 1 findings, 2 usage or internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from .core import (
    AnalysisReport,
    registered_checkers,
    render_json,
    render_text,
    run_analysis,
)
from .sarif import render_sarif


def _default_paths() -> List[Path]:
    import repro

    return [Path(repro.__file__).parent]


_ALLOW_MARKER = re.compile(
    r"#\s*repro:\s*allow\[([A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)\]"
)


def _merge_allow_marker(line: str, rules: Set[str]) -> str:
    """Append or merge an ``# repro: allow[...]`` marker on one line.

    Idempotent: an existing marker is rewritten with the union of its rule
    ids and ``rules`` (sorted, deduplicated) instead of a duplicate marker
    being appended after it.
    """
    newline = "\n" if line.endswith("\n") else ""
    body = line.rstrip("\n")
    match = _ALLOW_MARKER.search(body)
    if match:
        merged = set(rules)
        merged.update(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        replacement = f"# repro: allow[{','.join(sorted(merged))}]"
        body = body[: match.start()] + replacement + body[match.end() :]
    else:
        body = f"{body}  # repro: allow[{','.join(sorted(rules))}]"
    return body + newline


def _apply_suppressions(report: AnalysisReport) -> int:
    """Append/merge ``# repro: allow[RULE,...]`` on every finding's line.

    Returns the number of lines rewritten.  PARSE findings are skipped — a
    file that does not parse cannot be meaningfully annotated.
    """
    by_line: Dict[Path, Dict[int, Set[str]]] = defaultdict(lambda: defaultdict(set))
    for finding in report.findings:
        if finding.rule == "PARSE":
            continue
        by_line[Path(finding.path)][finding.line].add(finding.rule)
    rewritten = 0
    for path, line_rules in by_line.items():
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        for lineno, rules in line_rules.items():
            if lineno > len(lines):
                continue
            merged = _merge_allow_marker(lines[lineno - 1], rules)
            if merged != lines[lineno - 1]:
                lines[lineno - 1] = merged
                rewritten += 1
        path.write_text("".join(lines), encoding="utf-8")
    return rewritten


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Static analysis: determinism, layering, hook guards, "
        "coherence-FSM completeness, and tracer emits.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the installed repro tree)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a JSON report on stdout"
    )
    parser.add_argument(
        "--sarif",
        metavar="PATH",
        type=Path,
        help="also write a SARIF 2.1.0 report to PATH",
    )
    parser.add_argument(
        "--rules",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all registered)",
    )
    parser.add_argument(
        "--fix-suppress",
        action="store_true",
        help="append '# repro: allow[RULE]' to each finding's line, merging "
        "into an existing marker "
        "(prefer fixing findings; suppressions are for sanctioned exceptions)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, checker in sorted(registered_checkers().items()):
            print(f"{rule}: {checker.description}")
        return 0

    paths = list(args.paths) or _default_paths()
    missing = [str(path) for path in paths if not path.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    rules = None
    if args.rules:
        rules = [part.strip() for part in args.rules.split(",") if part.strip()]

    try:
        report = run_analysis(paths, rules=rules)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.fix_suppress and report.findings:
        rewritten = _apply_suppressions(report)
        print(f"suppressed {rewritten} line(s); re-run to verify", file=sys.stderr)

    if args.sarif is not None:
        args.sarif.parent.mkdir(parents=True, exist_ok=True)
        args.sarif.write_text(render_sarif(report), encoding="utf-8")

    print(render_json(report) if args.json else render_text(report))
    return 0 if report.ok else 1
