"""PKL006 — the pickle boundary.

Grid points cross a serialisation boundary: ``ProcessPoolExecutor`` ships
every ``submit``/``map`` argument to a worker process, and ``pickle.dumps``
does the same to any value it is handed.  Both fail at *runtime*, far from
the mistake, when a value captures something process-local: a lambda or nested function (not
importable by name), an open file handle, a ``threading`` lock, or a live
tracer (ring buffers and callbacks; obs/capture.py attaches per-worker
tracers inside the worker for exactly this reason).

This checker resolves the values flowing into those sinks through the
scope's single-assignment environment and flags any that are provably
unpicklable.  It follows values into tuple/list/set/dict displays one
level deep; what it cannot resolve it leaves to the harness's
``verify_sample`` tripwire and the differential test tier.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set, Tuple

from .core import Checker, Finding, Project, SourceFile, register
from .dataflow import (
    call_terminal,
    iter_own_nodes,
    resolve_value,
    single_assignments,
)
from .protocol import (
    LOCK_CONSTRUCTORS,
    PROCESS_POOL_CONSTRUCTORS,
    TRACER_CONSTRUCTORS,
)


def _scopes(tree: ast.AST) -> Iterable[ast.AST]:
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


@register
class PickleBoundaryChecker(Checker):
    rule = "PKL006"
    description = (
        "values crossing the pickle boundary (executor submit/map, "
        "pickle.dumps) must not capture lambdas, nested functions, open "
        "handles, locks, or tracers"
    )

    def check(self, source: SourceFile, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        for scope in _scopes(source.tree):
            findings.extend(self._check_scope(source, scope))
        return findings

    def _check_scope(
        self, source: SourceFile, scope: ast.AST
    ) -> Iterable[Finding]:
        env = single_assignments(scope)
        nested_functions: Set[str] = set()
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested_functions = {
                child.name
                for child in ast.walk(scope)
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and child is not scope
            }
        pools = self._pool_names(env)
        for node in iter_own_nodes(scope):
            if not isinstance(node, ast.Call):
                continue
            for value, boundary in self._boundary_values(node, env, pools):
                reason = self._unpicklable(value, env, nested_functions)
                if reason is not None:
                    yield self.finding(
                        source,
                        value if hasattr(value, "lineno") else node,
                        f"{reason} flows into {boundary}; it cannot cross "
                        "the pickle boundary — pass a module-level "
                        "function / plain data and rebuild process-local "
                        "state inside the worker",
                    )

    @staticmethod
    def _pool_names(env: dict) -> Set[str]:
        """Names bound (incl. ``with ... as pool``) to a process pool."""
        return {
            name
            for name, value in env.items()
            if isinstance(value, ast.Call)
            and call_terminal(value) in PROCESS_POOL_CONSTRUCTORS
        }

    def _boundary_values(
        self, call: ast.Call, env: dict, pools: Set[str]
    ) -> Iterable[Tuple[ast.AST, str]]:
        """``(value expression, boundary description)`` pairs for ``call``."""
        head = call.func
        # pool.submit(fn, *args) / pool.map(fn, iterable): everything ships.
        if (
            isinstance(head, ast.Attribute)
            and head.attr in ("submit", "map")
            and self._is_pool(head.value, env, pools)
        ):
            boundary = f"ProcessPoolExecutor.{head.attr}"
            for arg in call.args:
                yield arg, boundary
            for keyword in call.keywords:
                yield keyword.value, boundary
            return
        # pickle.dumps(x); json.dumps and friends are not a pickle boundary.
        if (
            isinstance(head, ast.Attribute)
            and head.attr == "dumps"
            and isinstance(head.value, ast.Name)
            and head.value.id == "pickle"
        ):
            for arg in call.args:
                yield arg, "dumps()"

    @staticmethod
    def _is_pool(receiver: ast.AST, env: dict, pools: Set[str]) -> bool:
        if isinstance(receiver, ast.Name) and receiver.id in pools:
            return True
        value = resolve_value(receiver, env)
        return (
            isinstance(value, ast.Call)
            and call_terminal(value) in PROCESS_POOL_CONSTRUCTORS
        )

    def _unpicklable(
        self,
        expr: ast.AST,
        env: dict,
        nested_functions: Set[str],
        depth: int = 3,
    ) -> Optional[str]:
        if depth <= 0:
            return None
        value = resolve_value(expr, env)
        if value is None:
            return None
        if isinstance(value, ast.Lambda):
            return "a lambda"
        if isinstance(value, ast.Name) and value.id in nested_functions:
            return f"the nested function '{value.id}'"
        if isinstance(value, ast.Call):
            terminal = call_terminal(value)
            if terminal == "open":
                return "an open file handle"
            if terminal in LOCK_CONSTRUCTORS:
                return f"a threading.{terminal}"
            if terminal in TRACER_CONSTRUCTORS:
                return "a live tracer"
        if isinstance(value, ast.Attribute) and value.attr == "tracer":
            return "a tracer reference"
        # One container level: displays whose elements are themselves bad.
        elements: List[ast.AST] = []
        if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            elements = list(value.elts)
        elif isinstance(value, ast.Dict):
            elements = [k for k in value.keys if k is not None]
            elements += list(value.values)
        for element in elements:
            reason = self._unpicklable(
                element, env, nested_functions, depth - 1
            )
            if reason is not None:
                return reason
        return None
