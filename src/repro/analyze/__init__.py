"""repro.analyze — static analysis for the determinism/layering contracts.

See ``docs/ANALYSIS.md`` for the rule catalogue and ``python -m repro lint``
for the CLI.
"""

from .core import (
    AnalysisReport,
    Checker,
    Finding,
    Project,
    SourceFile,
    register,
    registered_checkers,
    render_json,
    render_text,
    run_analysis,
)
from .sarif import render_sarif

__all__ = [
    "AnalysisReport",
    "Checker",
    "Finding",
    "Project",
    "SourceFile",
    "register",
    "registered_checkers",
    "render_json",
    "render_sarif",
    "render_text",
    "run_analysis",
]
