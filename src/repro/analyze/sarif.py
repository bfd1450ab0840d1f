"""SARIF 2.1.0 export for ``python -m repro lint --sarif``.

SARIF is the interchange format CI code-scanning UIs ingest; emitting it
lets the lint job upload one artifact that renders findings inline on the
PR diff.  Only the small core of the schema is produced: one run, one
driver, a rule table from the registry, and one result per finding with a
physical location.  Columns are 1-based in SARIF (the analyzer's are
0-based AST offsets).
"""

from __future__ import annotations

import json
from typing import Dict, List

from .core import AnalysisReport, registered_checkers

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def sarif_payload(report: AnalysisReport) -> Dict[str, object]:
    checkers = registered_checkers()
    rules: List[Dict[str, object]] = []
    rule_index: Dict[str, int] = {}
    for rule_id in report.rules_run:
        checker = checkers.get(rule_id)
        rule_index[rule_id] = len(rules)
        rules.append(
            {
                "id": rule_id,
                "shortDescription": {
                    "text": checker.description if checker else rule_id
                },
            }
        )
    results: List[Dict[str, object]] = []
    for finding in report.findings:
        result: Dict[str, object] = {
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path},
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        if finding.rule in rule_index:
            result["ruleIndex"] = rule_index[finding.rule]
        results.append(result)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "docs/ANALYSIS.md",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def render_sarif(report: AnalysisReport) -> str:
    return json.dumps(sarif_payload(report), indent=2, sort_keys=True)
