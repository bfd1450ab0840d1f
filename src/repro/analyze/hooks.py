"""HOOK003 — fault-hook guards.

The fault-injection campaigns of PR 1 thread optional hooks through the
machine: ``fault_injector`` on the controller and engine, ``on_nvm_commit``
and ``on_nontx_nvm_store`` for the crash oracle, and the hierarchy's
eviction and LLC-miss callbacks.  All of
them are ``None`` outside a campaign or a design that installs them, so
every invocation site must be None-guarded —
an unguarded call crashes every plain simulation run, and the failure only
shows up once the code path is hot.

A hook usage counts as guarded when

* an enclosing ``if``/ternary test mentions the same hook expression
  (``if self.fault_injector is not None: ...``, including inside ``and``
  chains), or
* an earlier statement in the same function bails out on ``None``
  (``if injector is None: return``), or
* it is asserted non-None first.

Aliases are tracked (``injector = self.controller.fault_injector``) so the
idiomatic read-once-then-guard pattern passes.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple

from .core import Checker, Finding, Project, SourceFile, ancestors, parent_of, register

#: Optional hook attributes wired by ``System.install_fault_injector`` and
#: the HTM construction path.  ``None`` means "no campaign / no design hook".
HOOK_ATTRS = frozenset(
    {
        "fault_injector",
        "on_nvm_commit",
        "on_nontx_nvm_store",
        "on_l1_evict",
        "on_llc_evict",
        "on_llc_miss",
    }
)


def _is_hook_attribute(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in HOOK_ATTRS


def _scopes(tree: ast.AST) -> Iterable[ast.AST]:
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _own_statements(scope: ast.AST) -> List[ast.stmt]:
    return list(getattr(scope, "body", []))


# -- shared guard machinery (also used by TRC009's tracer-emit checks) -------


def scope_nodes(scope: ast.AST) -> List[ast.AST]:
    """One scope's nodes, minus nested function bodies (those get their
    own pass with their own aliases)."""
    nodes: List[ast.AST] = []
    stack: List[ast.AST] = list(getattr(scope, "body", []))
    while stack:
        node = stack.pop()
        nodes.append(node)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.append(child)
    return nodes


def statement_in(scope: ast.AST, node: ast.AST) -> Optional[ast.stmt]:
    """The scope-level statement containing ``node``."""
    own = _own_statements(scope)
    current: Optional[ast.AST] = node
    while current is not None:
        if current in own:
            return current  # type: ignore[return-value]
        current = parent_of(current)
    return None


def is_bailout(statement: ast.stmt, root_text: str) -> bool:
    """``if <root> is None: return/raise/continue/break`` (or similar)."""
    if not isinstance(statement, ast.If):
        return False
    if root_text not in ast.unparse(statement.test):
        return False
    last = statement.body[-1] if statement.body else None
    return isinstance(last, (ast.Return, ast.Raise, ast.Continue, ast.Break))


def is_guarded(node: ast.AST, scope: ast.AST, root_text: str) -> bool:
    """Is a use of ``root_text`` None-guarded within ``scope``?

    True when an enclosing ``if``/ternary/``while`` test mentions the
    expression, an earlier scope-level statement bails out on it, or it is
    asserted first — the same convention HOOK003 enforces for fault hooks.
    """
    for ancestor in ancestors(node):
        if ancestor is scope:
            break
        test = None
        if isinstance(ancestor, ast.If):
            test = ancestor.test
        elif isinstance(ancestor, ast.IfExp):
            # Only the chosen branches are guarded, not the test itself.
            if node is not ancestor.test:
                test = ancestor.test
        elif isinstance(ancestor, ast.While):
            test = ancestor.test
        if test is not None and root_text in ast.unparse(test):
            return True
    containing = statement_in(scope, node)
    for statement in _own_statements(scope):
        if statement is containing:
            break
        if is_bailout(statement, root_text):
            return True
        if isinstance(statement, ast.Assert) and root_text in ast.unparse(
            statement.test
        ):
            return True
    return False


@register
class HookGuardChecker(Checker):
    rule = "HOOK003"
    description = "every optional fault/eviction hook must be None-guarded"

    def check(self, source: SourceFile, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        seen: set = set()
        for scope in _scopes(source.tree):
            nodes = self._scope_nodes(scope)
            aliases = self._collect_aliases(nodes)
            for node in nodes:
                usage = self._hook_usage(node, aliases)
                if usage is None:
                    continue
                root_text, usage_node = usage
                key = (id(usage_node), root_text)
                if key in seen:
                    continue
                seen.add(key)
                if self._is_guarded(usage_node, scope, root_text):
                    continue
                findings.append(
                    self.finding(
                        source,
                        usage_node,
                        f"hook '{root_text}' is invoked without a None "
                        "guard; it is None outside fault campaigns — test "
                        f"'if {root_text} is not None' first",
                    )
                )
        return findings

    @staticmethod
    def _scope_nodes(scope: ast.AST) -> List[ast.AST]:
        return scope_nodes(scope)

    @staticmethod
    def _collect_aliases(nodes: Iterable[ast.AST]) -> Dict[str, str]:
        """Local names assigned from a hook attribute."""
        aliases: Dict[str, str] = {}
        for node in nodes:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and _is_hook_attribute(node.value)
            ):
                aliases[node.targets[0].id] = ast.unparse(node.value)
        return aliases

    def _hook_usage(
        self, node: ast.AST, aliases: Dict[str, str]
    ) -> Optional[Tuple[str, ast.AST]]:
        """Return ``(hook expression text, node to report)`` if ``node``
        *uses* a hook (calls it, calls a method on it, or dereferences it)."""
        if not isinstance(node, ast.Call):
            return None
        head = node.func
        # hook() — the hook itself is callable (the on_* callbacks).
        if _is_hook_attribute(head):
            return ast.unparse(head), node
        if isinstance(head, ast.Name) and head.id in aliases:
            return head.id, node
        # hook.method(...) — a method call on the hook object.
        if isinstance(head, ast.Attribute):
            if _is_hook_attribute(head.value):
                return ast.unparse(head.value), node
            if isinstance(head.value, ast.Name) and head.value.id in aliases:
                return head.value.id, node
        return None

    def _is_guarded(self, node: ast.AST, scope: ast.AST, root_text: str) -> bool:
        return is_guarded(node, scope, root_text)
