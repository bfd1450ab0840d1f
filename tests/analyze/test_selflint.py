"""The tree at HEAD must satisfy its own static analysis.

This is the acceptance gate: ``python -m repro lint src/repro`` exits 0, and
FSM004 has positively evaluated the shipped coherence table over the full
MesiState x CoherenceRequest product (totality, reachability from INVALID,
SWMR preservation) plus the directory's conflict dispatch.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.analyze import run_analysis

REPRO_ROOT = Path(repro.__file__).parent


class TestSelfLint:
    def test_zero_findings_on_the_shipped_tree(self):
        report = run_analysis([REPRO_ROOT])
        assert report.findings == [], "\n".join(
            f"{f.location()}: {f.rule} {f.message}" for f in report.findings
        )
        assert report.files_checked > 50

    def test_fsm004_positively_evaluated_the_real_protocol(self):
        """Zero FSM004 findings must mean 'checked and complete', not
        'never evaluated' — guard against the detector missing the files."""
        from repro.analyze.core import Project
        from repro.analyze.fsm import FsmCompletenessChecker, _defined_names

        coherence = REPRO_ROOT / "cache" / "coherence.py"
        directory = REPRO_ROOT / "cache" / "directory.py"
        project, errors = Project.load([coherence, directory])
        assert errors == []
        by_name = {source.path.name: source for source in project.files}
        names = _defined_names(by_name["coherence.py"].tree)
        assert {
            "MesiState",
            "CoherenceRequest",
            "next_state_for_requester",
            "next_state_for_holder",
        } <= set(names)
        assert "Directory" in _defined_names(by_name["directory.py"].tree)
        checker = FsmCompletenessChecker()
        for source in project.files:
            assert list(checker.check(source, project)) == []


class TestNumpyConfinement:
    """The package runs on the standard library alone: no module imports numpy.

    The check walks the real ASTs rather than grepping so aliased and
    ``from numpy import ...`` forms are caught too.
    """

    def _numpy_imports(self):
        import ast

        offenders = []
        for path in sorted(REPRO_ROOT.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                names = []
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module]
                if any(
                    name == "numpy" or name.startswith("numpy.")
                    for name in names
                ):
                    offenders.append(path.relative_to(REPRO_ROOT))
        return offenders

    def test_numpy_imports_confined_to_the_gate(self):
        offenders = self._numpy_imports()
        assert offenders == [], f"numpy imported under src/repro: {offenders}"

    def test_kernels_package_is_registered(self):
        from repro.analyze.core import KNOWN_PACKAGES
        from repro.analyze.layers import LAYER_DAG

        # The stub kept for the benchmark harness is a leaf nothing imports.
        assert "kernels" in KNOWN_PACKAGES
        assert LAYER_DAG["kernels"] == frozenset()
        for package, allowed in LAYER_DAG.items():
            assert "kernels" not in allowed, package
