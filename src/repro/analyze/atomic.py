"""ATOM005 — staged-rename publication.

The result cache survives crashes (an interrupted run resumes from it) and
concurrent writers only because every *published* file — one that another
process resolves independently and may read at any moment — appears
atomically: content is staged under a writer-unique tmp sibling and renamed
into place with ``Path.replace``/``os.replace``.  A direct
``open(published, "w")`` exposes a torn file to every reader between the
first byte and the last.

This checker follows path values through each function body (and one call
level across files, via the dataflow engine's published-parameter
propagation) from the producers declared in
:mod:`repro.analyze.protocol` to the write sinks, and flags:

* **direct write** — a write sink whose target is a published path;
* **staged, never published** — a tmp derived from a published path is
  written but no ``replace`` onto the destination follows in the same body
  (the crash window the fault oracle catches dynamically);
* **rename-before-flush** — the ``replace`` precedes the staged write, so
  readers race a still-open file;
* **non-atomic write in a durability-critical scope** — a blanket
  (warning-severity) net over ``harness/cache.py`` for writes whose target
  dataflow cannot classify.

``open(path, "x")`` is exempt everywhere: exclusive-create *is* an atomic
claim primitive.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple

from .core import Checker, Finding, Project, SourceFile, register
from .dataflow import (
    FunctionKey,
    call_terminal,
    engine_for,
    iter_own_nodes,
    node_position,
    resolve_value,
    single_assignments,
)
from .protocol import (
    PUBLISHED_PATH_PRODUCERS,
    STAGING_DERIVATIONS,
    is_durability_critical,
)

_WRITE_MODES = frozenset("wa")


def _write_mode(call: ast.Call, position: int) -> str:
    """The file mode of an ``open``-style call (positional or keyword).

    ``position`` is where the mode sits positionally: 1 for builtin
    ``open(path, mode)``, 0 for ``Path.open(mode)``.
    """
    if len(call.args) > position:
        mode = call.args[position]
    else:
        mode = next(
            (kw.value for kw in call.keywords if kw.arg == "mode"), None
        )
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return "r"


def _is_write_mode(mode: str) -> bool:
    return bool(_WRITE_MODES & set(mode)) and "x" not in mode


def _sink_target(node: ast.AST) -> Optional[Tuple[ast.AST, ast.Call]]:
    """``(path expression, call)`` if ``node`` writes a file by path.

    Sinks: ``open(p, "w"/"a")``, ``p.open("w"/"a")``, ``p.write_text(...)``,
    ``p.write_bytes(...)``.  ``.write()`` on an already-open handle is not a
    sink — the handle's origin was already classified at its ``open``.
    """
    if not isinstance(node, ast.Call):
        return None
    head = node.func
    if isinstance(head, ast.Name) and head.id == "open":
        if node.args and _is_write_mode(_write_mode(node, 1)):
            return node.args[0], node
        return None
    if isinstance(head, ast.Attribute):
        if head.attr == "open" and _is_write_mode(_write_mode(node, 0)):
            return head.value, node
        if head.attr in ("write_text", "write_bytes"):
            return head.value, node
    return None


class _ScopeState:
    """Per-scope dataflow: published names, staging names, replace calls."""

    def __init__(
        self,
        scope: ast.AST,
        published_params: Dict[str, str],
    ) -> None:
        self.scope = scope
        self.env = single_assignments(scope)
        self.published_params = published_params

    def producer_of(self, expr: Optional[ast.AST]) -> Optional[str]:
        """The producer name behind ``expr``, if it is a published path."""
        if isinstance(expr, ast.Name) and expr.id in self.published_params:
            return self.published_params[expr.id]
        value = resolve_value(expr, self.env)
        if isinstance(value, ast.Name) and value.id in self.published_params:
            return self.published_params[value.id]
        if isinstance(value, ast.Call):
            terminal = call_terminal(value)
            if terminal in PUBLISHED_PATH_PRODUCERS:
                return terminal
        return None

    def staging_derivation(
        self, expr: Optional[ast.AST]
    ) -> Optional[ast.Call]:
        """The ``with_name``/``with_suffix`` call behind ``expr``, if any."""
        value = resolve_value(expr, self.env)
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in STAGING_DERIVATIONS
        ):
            return value
        return None


@register
class AtomicPublishChecker(Checker):
    rule = "ATOM005"
    description = (
        "published cache paths are written via stage-then-rename "
        "(tmp sibling + os.replace)"
    )

    # -- cross-file propagation -------------------------------------------

    def _published_params(
        self, project: Project
    ) -> Dict[FunctionKey, Dict[str, str]]:
        """``function -> {param name -> producer}`` for parameters that are
        handed a published path at some confidently-resolved call site.

        Cached on the project instance (one propagation pass per run).
        """
        cached = getattr(project, "_atom005_published_params", None)
        if cached is not None:
            return cached
        index, graph = engine_for(project)
        out: Dict[FunctionKey, Dict[str, str]] = {}
        for module in index.modules.values():
            scopes: List[ast.AST] = [module.source.tree]
            scopes.extend(info.node for info in module.functions.values())
            for scope in scopes:
                state = _ScopeState(scope, {})
                for node in iter_own_nodes(scope):
                    if not isinstance(node, ast.Call):
                        continue
                    caller = index.enclosing_function(module, node)
                    resolved = index.resolve_call(module, node, caller)
                    if resolved is None or resolved[1] == "unique":
                        continue
                    callee = resolved[0]
                    params = [
                        a.arg
                        for a in callee.node.args.args  # type: ignore[union-attr]
                    ]
                    offset = 1 if callee.class_name is not None else 0
                    for position, arg in enumerate(node.args):
                        producer = state.producer_of(arg)
                        if producer is None:
                            continue
                        slot = position + offset
                        if slot < len(params):
                            out.setdefault(callee.key, {})[
                                params[slot]
                            ] = producer
                    for keyword in node.keywords:
                        if keyword.arg is None:
                            continue
                        producer = state.producer_of(keyword.value)
                        if producer is not None and keyword.arg in params:
                            out.setdefault(callee.key, {})[
                                keyword.arg
                            ] = producer
        project._atom005_published_params = out  # type: ignore[attr-defined]
        return out

    # -- per-file check ----------------------------------------------------

    def check(self, source: SourceFile, project: Project) -> Iterable[Finding]:
        index, _ = engine_for(project)
        module = index.module_for(source)
        propagated = self._published_params(project)
        findings: List[Finding] = []
        scopes: List[Tuple[ast.AST, Dict[str, str]]] = [(source.tree, {})]
        for info in module.functions.values():
            scopes.append((info.node, propagated.get(info.key, {})))
        critical = is_durability_critical(source.path.as_posix())
        for scope, published_params in scopes:
            findings.extend(
                self._check_scope(source, scope, published_params, critical)
            )
        return findings

    def _check_scope(
        self,
        source: SourceFile,
        scope: ast.AST,
        published_params: Dict[str, str],
        critical: bool,
    ) -> Iterable[Finding]:
        state = _ScopeState(scope, published_params)
        nodes = [
            n
            for n in iter_own_nodes(scope)
            if isinstance(n, ast.Call)
        ]
        # Staged writes and their publication renames, keyed by tmp name.
        staged_writes: Dict[str, ast.Call] = {}
        replaces: Dict[str, ast.Call] = {}
        for node in nodes:
            sink = _sink_target(node)
            if sink is not None:
                target, call = sink
                producer = state.producer_of(target)
                if producer is not None:
                    yield self.finding(
                        source,
                        call,
                        f"direct write to the published path from "
                        f"{producer}(); stage to a tmp sibling "
                        "(path.with_name(...)) and publish it with "
                        "os.replace so readers never see a torn file",
                    )
                    continue
                if isinstance(target, ast.Name):
                    derivation = state.staging_derivation(target)
                    if derivation is not None:
                        if state.producer_of(derivation.func.value) is not None:  # type: ignore[union-attr]
                            staged_writes.setdefault(target.id, call)
                        continue  # staging writes are never torn-file risks
                if state.staging_derivation(target) is not None:
                    continue
                if critical:
                    yield self.finding(
                        source,
                        call,
                        "non-atomic write in a durability-critical scope; "
                        "stage to a tmp sibling and os.replace it into "
                        "place",
                        severity="warning",
                    )
                continue
            self._record_replace(state, node, replaces)
        yield from self._check_staging(source, staged_writes, replaces)

    @staticmethod
    def _record_replace(
        state: _ScopeState, node: ast.Call, replaces: Dict[str, ast.Call]
    ) -> None:
        head = node.func
        # tmp.replace(dst) — only when the receiver is a known staging name,
        # so str.replace / dataclasses.replace never match.
        if (
            isinstance(head, ast.Attribute)
            and head.attr == "replace"
            and isinstance(head.value, ast.Name)
            and state.staging_derivation(head.value) is not None
        ):
            replaces.setdefault(head.value.id, node)
        # os.replace(tmp, dst)
        elif (
            isinstance(head, ast.Attribute)
            and head.attr == "replace"
            and isinstance(head.value, ast.Name)
            and head.value.id == "os"
            and node.args
            and isinstance(node.args[0], ast.Name)
        ):
            replaces.setdefault(node.args[0].id, node)

    def _check_staging(
        self,
        source: SourceFile,
        staged_writes: Dict[str, ast.Call],
        replaces: Dict[str, ast.Call],
    ) -> Iterable[Finding]:
        for name, write in staged_writes.items():
            publish = replaces.get(name)
            if publish is None:
                yield self.finding(
                    source,
                    write,
                    f"'{name}' stages a published path but is never renamed "
                    "into place; a crash here leaks the tmp and a reader "
                    "meanwhile sees the stale (or missing) destination — "
                    f"add {name}.replace(<published path>) after the write",
                )
            elif node_position(publish) < node_position(write):
                yield self.finding(
                    source,
                    publish,
                    f"'{name}' is renamed into place before its content is "
                    "written (rename-before-flush); readers race a torn "
                    "file — publish only after the staged write completes",
                )
