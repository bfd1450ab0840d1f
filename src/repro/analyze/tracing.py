"""TRC009 — tracer emits: None-guarded, and adjacent to their counters.

The tracer (PR 4) is an optional hook like the fault injector: ``None``
outside an observed run, so every ``tracer.emit(...)`` must be None-guarded
or it crashes plain simulations.  And the forensics layer's headline
guarantee — events are *count-exact* against the stats counters — holds
only because each counted emit sits in the same function body as the sole
``stats.incr`` for its counter.  A refactor that moves one of them breaks
count-exactness silently; the drift only shows up when ``repro trace
--report`` exits 1 on a real run.

Checked here, statically:

* every emit on a tracer expression (``self.tracer.emit``, an alias
  assigned from a ``.tracer`` attribute, a ``tracer`` parameter) is guarded
  by the HOOK003 convention — enclosing ``if``/ternary test, earlier
  bailout, or assert;
* every emit whose kind is in :data:`TRACE_COUNTER_KINDS` has a
  ``*.incr`` of the matching counter in the same function body.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set

from .core import Checker, Finding, Project, SourceFile, register
from .hooks import is_guarded

#: ``trace kind -> stats counter`` pairs the trace forensics rely on being
#: count-exact; the emit and its increment must sit in the same function
#: body so the invariant survives refactors.  (``sig.hit`` is deliberately absent: its
#: counter name is conditional on the probe outcome.)
TRACE_COUNTER_KINDS: Dict[str, str] = {
    "tx.begin": "tx.begins",
    "tx.commit": "tx.commits",
    "tx.abort": "tx.aborts",
    "llc.overflow": "llc.tx_evictions",
}


def _scopes(tree: ast.AST) -> Iterable[ast.AST]:
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def iter_own_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Every node of ``scope``'s body, excluding nested function bodies."""
    stack: List[ast.AST] = list(getattr(scope, "body", []))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # a nested def is its own scope; don't descend
        stack.extend(ast.iter_child_nodes(node))


def _tracer_aliases(nodes: Iterable[ast.AST]) -> Set[str]:
    """Local names assigned from a ``.tracer`` attribute."""
    aliases: Set[str] = set()
    for node in nodes:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "tracer"
        ):
            aliases.add(node.targets[0].id)
    return aliases


def _emit_root(call: ast.Call, aliases: Set[str]) -> Optional[str]:
    """The tracer expression text behind an ``emit`` call, if it is one."""
    head = call.func
    if not (isinstance(head, ast.Attribute) and head.attr == "emit"):
        return None
    receiver = head.value
    if isinstance(receiver, ast.Attribute) and receiver.attr == "tracer":
        return ast.unparse(receiver)
    if isinstance(receiver, ast.Name) and (
        receiver.id == "tracer" or receiver.id in aliases
    ):
        return receiver.id
    return None


def _emit_kind(call: ast.Call) -> Optional[str]:
    if call.args and isinstance(call.args[0], ast.Constant):
        value = call.args[0].value
        if isinstance(value, str):
            return value
    return None


def _counter_increments(nodes: Iterable[ast.AST]) -> Set[str]:
    """Constant counter names passed to ``*.incr(...)`` in this scope."""
    counters: Set[str] = set()
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        head = node.func
        if not (isinstance(head, ast.Attribute) and head.attr == "incr"):
            continue
        if node.args and isinstance(node.args[0], ast.Constant):
            value = node.args[0].value
            if isinstance(value, str):
                counters.add(value)
    return counters


@register
class TracerEmitChecker(Checker):
    rule = "TRC009"
    description = (
        "every tracer.emit is None-guarded and, for counted kinds, "
        "adjacent (same function body) to its stats counter increment"
    )

    def check(self, source: SourceFile, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        for scope in _scopes(source.tree):
            # iter_own_nodes keeps each emit in exactly one scope — its own
            # function body — so "adjacent" means what the docstring says.
            nodes = list(iter_own_nodes(scope))
            aliases = _tracer_aliases(nodes)
            counters: Optional[Set[str]] = None  # built lazily per scope
            for node in nodes:
                if not isinstance(node, ast.Call):
                    continue
                root = _emit_root(node, aliases)
                if root is None:
                    continue
                if not is_guarded(node, scope, root):
                    findings.append(
                        self.finding(
                            source,
                            node,
                            f"'{root}.emit(...)' is not None-guarded; the "
                            "tracer is None outside observed runs — test "
                            f"'if {root} is not None' first",
                        )
                    )
                kind = _emit_kind(node)
                counter = TRACE_COUNTER_KINDS.get(kind or "")
                if counter is None:
                    continue
                if counters is None:
                    counters = _counter_increments(nodes)
                if counter not in counters:
                    findings.append(
                        self.finding(
                            source,
                            node,
                            f"emit({kind!r}) has no adjacent "
                            f"incr({counter!r}) in the same function body; "
                            "count-exactness (trace events == stats "
                            "counters) requires the emit and its counter "
                            "to move together",
                        )
                    )
        return findings
