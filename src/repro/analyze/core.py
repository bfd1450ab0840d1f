"""The checker framework behind ``python -m repro lint``.

The simulator's headline guarantee — byte-identical replays under one seed —
rests on invariants that are easy to break silently: a stray ``import
random``, a cache line mutated behind the controller's back, an unguarded
fault hook, an incomplete coherence transition.  :mod:`repro.analyze` checks
those invariants at lint time, before a fault campaign has to find them
dynamically.

Structure:

* a :class:`Checker` registry (one checker per rule id),
* :class:`SourceFile` — parsed source with parent links and suppressions,
* :class:`Project` — the file set plus cross-file type hints,
* text/JSON reporters and an :func:`run_analysis` entry point.

Suppressions are in-file comments::

    value = random.random()  # repro: allow[DET001]   (this line only)
    # repro: allow-file[LAY002]                       (whole file)

The CLI's ``--fix-suppress`` appends the line form to every finding, but the
intended workflow is to *fix* findings; suppressions are for the rare
sanctioned exception and are themselves visible in review.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Packages whose behaviour feeds figure output; the strictest rules apply.
SIM_CRITICAL_PACKAGES = frozenset(
    {"sim", "htm", "cache", "mem", "signatures", "workloads"}
)

#: Every package of the repro tree (used to infer a file's logical package
#: when it is not under ``repro/`` itself, e.g. test fixtures).
KNOWN_PACKAGES = frozenset(
    {
        "sim",
        "htm",
        "cache",
        "mem",
        "signatures",
        "workloads",
        "kernels",
        "harness",
        "faults",
        "obs",
        "runtime",
        "traffic",
        "analyze",
    }
)

_SUPPRESS_LINE = re.compile(r"#\s*repro:\s*allow\[([A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)\]")
_SUPPRESS_FILE = re.compile(
    r"#\s*repro:\s*allow-file\[([A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)\]"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


def _split_rules(spec: str) -> List[str]:
    return [part.strip() for part in spec.split(",") if part.strip()]


class SourceFile:
    """One parsed source file plus its suppression tables."""

    def __init__(self, path: Path, text: str) -> None:
        self.path = path
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=str(path))
        attach_parents(self.tree)
        self.line_suppressions: Dict[int, Set[str]] = {}
        self.file_suppressions: Set[str] = set()
        for lineno, line in enumerate(self.lines, start=1):
            match = _SUPPRESS_FILE.search(line)
            if match:
                self.file_suppressions.update(_split_rules(match.group(1)))
                continue
            match = _SUPPRESS_LINE.search(line)
            if match:
                self.line_suppressions.setdefault(lineno, set()).update(
                    _split_rules(match.group(1))
                )

    @property
    def package(self) -> Optional[str]:
        """The file's logical repro package.

        Inside the tree this is the path segment after ``repro/`` (``None``
        for top-level modules like ``__main__.py``).  Outside the tree —
        lint fixtures, scratch files — the last path segment matching a
        known package name is used, so a fixture under
        ``analyze_fixtures/htm/`` is checked as if it lived in ``htm/``.
        """
        parts = self.path.parts
        if "repro" in parts:
            index = len(parts) - 1 - parts[::-1].index("repro")
            rest = parts[index + 1 : -1]
            return rest[0] if rest else None
        for part in reversed(parts[:-1]):
            if part in KNOWN_PACKAGES:
                return part
        return None

    @property
    def sim_critical(self) -> bool:
        """Strict determinism rules apply: sim packages and foreign files
        (fixtures) alike; only the non-critical repro packages are exempt."""
        package = self.package
        if "repro" in self.path.parts:
            return package in SIM_CRITICAL_PACKAGES
        return True

    def suppressed(self, rule: str, line: int) -> bool:
        if rule in self.file_suppressions:
            return True
        return rule in self.line_suppressions.get(line, ())


@dataclass
class Project:
    """The analysed file set plus cross-file type hints for checkers."""

    files: List[SourceFile]
    #: Attribute names annotated as set-typed anywhere in the project
    #: (class fields and ``self.x: Set[...]`` assignments).
    set_typed_attrs: Set[str] = field(default_factory=set)
    #: Function/method names whose return annotation is set-typed.
    set_returning_callables: Set[str] = field(default_factory=set)

    @classmethod
    def load(cls, paths: Sequence[Path]) -> Tuple["Project", List[Finding]]:
        """Parse every ``.py`` file under ``paths``; syntax errors become
        PARSE findings rather than crashing the run."""
        errors: List[Finding] = []
        files: List[SourceFile] = []
        for path in _collect_py_files(paths):
            text = path.read_text(encoding="utf-8")
            try:
                files.append(SourceFile(path, text))
            except SyntaxError as error:
                errors.append(
                    Finding(
                        rule="PARSE",
                        path=str(path),
                        line=error.lineno or 1,
                        col=error.offset or 0,
                        message=f"syntax error: {error.msg}",
                    )
                )
        project = cls(files=files)
        project._index_set_types()
        return project, errors

    def _index_set_types(self) -> None:
        for source in self.files:
            for node in ast.walk(source.tree):
                if isinstance(node, ast.AnnAssign) and _is_set_annotation(
                    node.annotation
                ):
                    target = node.target
                    if isinstance(target, ast.Name):
                        # Class-body field (dataclass or plain).
                        if isinstance(_parent(target, 2), ast.ClassDef):
                            self.set_typed_attrs.add(target.id)
                    elif isinstance(target, ast.Attribute):
                        self.set_typed_attrs.add(target.attr)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if node.returns is not None and _is_set_annotation(node.returns):
                        self.set_returning_callables.add(node.name)


class Checker:
    """Base class: one rule id, checked per file (and/or per project)."""

    rule = "XXX000"
    description = ""

    def check(self, source: SourceFile, project: Project) -> Iterable[Finding]:
        return ()

    def finding(
        self, source: SourceFile, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.rule,
            path=str(source.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


_REGISTRY: Dict[str, Checker] = {}


def register(checker_cls):
    """Class decorator: add a checker to the global registry."""
    checker = checker_cls()
    if checker.rule in _REGISTRY:
        raise ValueError(f"duplicate checker rule {checker.rule}")
    _REGISTRY[checker.rule] = checker
    return checker_cls


def registered_checkers() -> Dict[str, Checker]:
    # Import the rule modules on first use so the registry is populated
    # without import-order games.
    from . import determinism, fsm, hooks, layering, tracing  # noqa: F401

    return dict(_REGISTRY)


@dataclass
class AnalysisReport:
    """Everything one run produced, ready for a reporter."""

    findings: List[Finding]
    files_checked: int
    rules_run: List[str]
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def run_analysis(
    paths: Sequence[Path], rules: Optional[Sequence[str]] = None
) -> AnalysisReport:
    """Run the registered checkers over every ``.py`` file under ``paths``."""
    checkers = registered_checkers()
    if rules is not None:
        unknown = sorted(set(rules) - set(checkers))
        if unknown:
            raise ValueError(f"unknown rule(s): {', '.join(unknown)}")
        checkers = {rule: checkers[rule] for rule in rules}
    project, findings = Project.load(paths)
    suppressed = 0
    for source in project.files:
        for checker in checkers.values():
            for finding in checker.check(source, project):
                if source.suppressed(finding.rule, finding.line):
                    suppressed += 1
                    continue
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return AnalysisReport(
        findings=findings,
        files_checked=len(project.files),
        rules_run=sorted(checkers),
        suppressed=suppressed,
    )


# -- reporters ---------------------------------------------------------------


def render_text(report: AnalysisReport) -> str:
    out: List[str] = []
    for finding in report.findings:
        out.append(f"{finding.location()}: {finding.rule} {finding.message}")
    noun = "file" if report.files_checked == 1 else "files"
    summary = (
        f"{len(report.findings)} finding(s) in {report.files_checked} {noun} "
        f"(rules: {', '.join(report.rules_run)}"
    )
    if report.suppressed:
        summary += f"; {report.suppressed} suppressed"
    summary += ")"
    out.append(summary)
    return "\n".join(out)


def render_json(report: AnalysisReport) -> str:
    return json.dumps(
        {
            "findings": [f.to_dict() for f in report.findings],
            "files_checked": report.files_checked,
            "rules_run": report.rules_run,
            "suppressed": report.suppressed,
            "ok": report.ok,
        },
        indent=2,
        sort_keys=True,
    )


# -- AST utilities shared by checkers ---------------------------------------

_PARENT_ATTR = "_repro_parent"


def attach_parents(tree: ast.AST) -> None:
    """Give every node a parent link (checkers walk upward for context)."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            setattr(child, _PARENT_ATTR, node)


def parent_of(node: ast.AST) -> Optional[ast.AST]:
    return getattr(node, _PARENT_ATTR, None)


def _parent(node: ast.AST, levels: int) -> Optional[ast.AST]:
    current: Optional[ast.AST] = node
    for _ in range(levels):
        if current is None:
            return None
        current = parent_of(current)
    return current


def ancestors(node: ast.AST) -> Iterable[ast.AST]:
    current = parent_of(node)
    while current is not None:
        yield current
        current = parent_of(current)


def in_type_checking_block(node: ast.AST) -> bool:
    """Is the node under an ``if TYPE_CHECKING:`` guard?"""
    for ancestor in ancestors(node):
        if isinstance(ancestor, ast.If):
            test = ancestor.test
            if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
                return True
            if isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING":
                return True
    return False


_SET_ANNOTATION_NAMES = {"Set", "FrozenSet", "set", "frozenset", "MutableSet", "AbstractSet"}


def _is_set_annotation(annotation: ast.AST) -> bool:
    """Does an annotation expression denote a set type?

    Handles ``Set[int]``, ``set[int]``, ``typing.Set[...]``, bare ``set`` /
    ``frozenset``, ``Optional[Set[...]]`` and string annotations.
    """
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return False
    if isinstance(annotation, ast.Subscript):
        value = annotation.value
        head = None
        if isinstance(value, ast.Name):
            head = value.id
        elif isinstance(value, ast.Attribute):
            head = value.attr
        if head in _SET_ANNOTATION_NAMES:
            return True
        if head in {"Optional", "Final", "ClassVar"}:
            return _is_set_annotation(annotation.slice)
        return False
    if isinstance(annotation, ast.Name):
        return annotation.id in {"set", "frozenset", "FrozenSet"}
    if isinstance(annotation, ast.Attribute):
        return annotation.attr in _SET_ANNOTATION_NAMES
    return False


def is_set_annotation(annotation: ast.AST) -> bool:
    return _is_set_annotation(annotation)


def _collect_py_files(paths: Sequence[Path]) -> List[Path]:
    seen: Set[Path] = set()
    out: List[Path] = []
    for path in paths:
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                out.append(candidate)
    return out
