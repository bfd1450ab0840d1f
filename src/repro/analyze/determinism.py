"""DET001 — determinism.

Byte-identical replays under one seed (PAPER.md §III) require that every
stochastic or time-dependent decision flows through the named, seeded
streams of :mod:`repro.sim.rng`.  This checker flags the ways entropy leaks
in:

* ``import random`` / ``import secrets`` anywhere outside the sanctioned
  wrapper (``sim/rng.py``) — bare module-level randomness is shared global
  state whose draw order depends on call order across the whole process;
* wall-clock reads (``time.time``, ``datetime.now``, ``os.urandom``,
  ``uuid.uuid4``, …) — the one sanctioned site is the
  ``harness/timer.py`` stopwatch used by CLIs for progress lines;
* iteration over syntactically-evident unordered collections (``set``
  literals/calls/unions, set-annotated names and attributes, ``.keys()``
  views) in sim-critical packages — set iteration order depends on the
  interpreter's hash layout and insertion history, so a loop over one can
  reorder aborts, evictions, or log appends between otherwise identical
  runs.  Iterate ``sorted(...)`` instead (dicts are insertion-ordered and
  fine to iterate directly).

The unordered-iteration analysis is deliberately syntactic: it sees set
displays, ``set()``/``frozenset()`` calls, unions of those, names and
parameters annotated ``Set[...]``, attributes/callables annotated set-typed
anywhere in the analysed project, and ``.keys()`` calls.  It does not chase
values through containers; the determinism regression test backstops what
the static pass cannot see.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from .core import (
    Checker,
    Finding,
    Project,
    SourceFile,
    in_type_checking_block,
    is_set_annotation,
    parent_of,
    register,
)
from .layers import CLOCK_FUNNEL_FILES

#: Modules whose import is itself a finding.
BANNED_MODULES = frozenset({"random", "secrets"})

#: Files allowed to import the banned entropy sources (posix path suffixes).
SANCTIONED_RANDOM_FILES = ("repro/sim/rng.py",)

#: Files allowed to read the wall clock — the declared funnel set from the
#: layers registry.
SANCTIONED_CLOCK_FILES = CLOCK_FUNNEL_FILES

#: ``module -> attribute names`` whose call reads wall-clock or OS entropy.
NONDETERMINISTIC_CALLS: Dict[str, frozenset] = {
    "time": frozenset(
        {
            "time",
            "time_ns",
            "monotonic",
            "monotonic_ns",
            "perf_counter",
            "perf_counter_ns",
            "process_time",
            "process_time_ns",
            "thread_time",
            "thread_time_ns",
        }
    ),
    "datetime": frozenset({"now", "utcnow", "today"}),
    "date": frozenset({"today"}),
    "os": frozenset({"urandom", "getrandom"}),
    "uuid": frozenset({"uuid1", "uuid4"}),
}

#: Call heads whose result does not depend on argument iteration order, so a
#: comprehension directly inside them may iterate an unordered collection.
ORDER_INSENSITIVE_CALLS = frozenset(
    {"sorted", "sum", "min", "max", "any", "all", "set", "frozenset", "len"}
)

_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
_SET_PRESERVING_WRAPPERS = frozenset({"list", "tuple"})
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _is_sanctioned(source: SourceFile, suffixes) -> bool:
    posix = source.path.as_posix()
    return any(posix.endswith(suffix) for suffix in suffixes)


class _ScopeSets:
    """Set-typed names visible in one function (or module) scope."""

    def __init__(self, scope: ast.AST, project: Project) -> None:
        self.project = project
        self.names: Set[str] = set()
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            ):
                if arg.annotation is not None and is_set_annotation(arg.annotation):
                    self.names.add(arg.arg)
        # Two passes so an alias of an earlier set-typed name resolves
        # (``involved = writers | readers`` after ``writers: Set[int]``).
        for _ in range(2):
            for node in ast.walk(scope):
                if isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    if is_set_annotation(node.annotation):
                        self.names.add(node.target.id)
                elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name) and self.is_set_like(
                        node.value
                    ):
                        self.names.add(target.id)

    def is_set_like(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Attribute):
            return node.attr in self.project.set_typed_attrs
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
            return self.is_set_like(node.left) or self.is_set_like(node.right)
        if isinstance(node, ast.Call):
            head = node.func
            if isinstance(head, ast.Name):
                if head.id in _SET_CONSTRUCTORS:
                    return True
                if head.id in _SET_PRESERVING_WRAPPERS and node.args:
                    # list(a_set) is just as unordered as the set itself.
                    return self.is_set_like(node.args[0])
                if head.id in self.project.set_returning_callables:
                    return True
            if isinstance(head, ast.Attribute):
                if head.attr == "keys":
                    return True
                if head.attr in self.project.set_returning_callables:
                    return True
        return False


@register
class DeterminismChecker(Checker):
    rule = "DET001"
    description = (
        "all randomness flows through repro.sim.rng; no wall clock outside "
        "the timer helper; no iteration over unordered collections in "
        "sim-critical packages"
    )

    def check(self, source: SourceFile, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        findings.extend(self._check_entropy_imports(source))
        findings.extend(self._check_clock_calls(source))
        if source.sim_critical:
            findings.extend(self._check_unordered_iteration(source, project))
        return findings

    # -- entropy imports ----------------------------------------------------

    def _check_entropy_imports(self, source: SourceFile) -> Iterable[Finding]:
        if _is_sanctioned(source, SANCTIONED_RANDOM_FILES):
            return
        for node in ast.walk(source.tree):
            if in_type_checking_block(node):
                continue
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in BANNED_MODULES:
                        yield self.finding(
                            source,
                            node,
                            f"'import {alias.name}' bypasses the seeded "
                            "RngStreams; draw from a named stream of "
                            "repro.sim.rng instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module:
                    root = node.module.split(".")[0]
                    if root in BANNED_MODULES:
                        yield self.finding(
                            source,
                            node,
                            f"'from {node.module} import ...' bypasses the "
                            "seeded RngStreams; draw from a named stream of "
                            "repro.sim.rng instead",
                        )

    # -- wall clock ---------------------------------------------------------

    def _check_clock_calls(self, source: SourceFile) -> Iterable[Finding]:
        if _is_sanctioned(source, SANCTIONED_CLOCK_FILES):
            return
        imported_clock_names: Set[str] = set()
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                banned = NONDETERMINISTIC_CALLS.get(node.module or "")
                if not banned:
                    continue
                if in_type_checking_block(node):
                    continue
                for alias in node.names:
                    if alias.name in banned:
                        imported_clock_names.add(alias.asname or alias.name)
                        yield self.finding(
                            source,
                            node,
                            f"'from {node.module} import {alias.name}' reads "
                            "the wall clock / OS entropy; use the "
                            "repro.harness.timer stopwatch (CLIs) or a "
                            "seeded stream (simulation)",
                        )
            if not isinstance(node, ast.Call):
                continue
            head = node.func
            if isinstance(head, ast.Attribute) and isinstance(
                head.value, ast.Name
            ):
                banned = NONDETERMINISTIC_CALLS.get(head.value.id)
                if banned and head.attr in banned:
                    yield self.finding(
                        source,
                        node,
                        f"{head.value.id}.{head.attr}() is nondeterministic; "
                        "use the repro.harness.timer stopwatch (CLIs) or a "
                        "seeded stream (simulation)",
                    )
            elif isinstance(head, ast.Name) and head.id in imported_clock_names:
                yield self.finding(
                    source,
                    node,
                    f"{head.id}() reads the wall clock; use the "
                    "repro.harness.timer stopwatch instead",
                )

    # -- unordered iteration --------------------------------------------------

    def _check_unordered_iteration(
        self, source: SourceFile, project: Project
    ) -> Iterable[Finding]:
        scope_cache: Dict[int, _ScopeSets] = {}

        def scope_sets_for(node: ast.AST) -> _ScopeSets:
            scope: ast.AST = source.tree
            current: Optional[ast.AST] = node
            while current is not None:
                if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scope = current
                    break
                current = parent_of(current)
            key = id(scope)
            if key not in scope_cache:
                scope_cache[key] = _ScopeSets(scope, project)
            return scope_cache[key]

        for node in ast.walk(source.tree):
            iterables: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                if self._order_insensitive_context(node):
                    continue
                iterables.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.SetComp):
                continue  # result is itself unordered; order cannot leak
            else:
                continue
            scope_sets = scope_sets_for(node)
            for iterable in iterables:
                if scope_sets.is_set_like(iterable):
                    yield self.finding(
                        source,
                        iterable,
                        "iteration over an unordered collection "
                        f"({ast.unparse(iterable)}); wrap it in sorted(...) "
                        "so replay order is seed-stable",
                    )

    @staticmethod
    def _order_insensitive_context(node: ast.AST) -> bool:
        parent = parent_of(node)
        if isinstance(parent, ast.Call):
            head = parent.func
            if isinstance(head, ast.Name) and head.id in ORDER_INSENSITIVE_CALLS:
                return True
        return False
