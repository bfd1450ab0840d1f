"""The cross-file layer under the protocol checkers.

PR 2's checkers were single-file AST rules; the crash/concurrency
disciplines PR 6 introduced (staged-rename publication, pickle-clean specs,
wall-clock funnels) are *cross-file* properties: a caller hands a cache
path to a helper that writes it, a figure driver's grid point is pickled
three modules away, a wall-clock read hides behind two wrapper calls.  This module gives checkers the three ingredients those rules need:

* :class:`ProjectIndex` — a symbol table per module: every function and
  class with its qualified name, plus an import-alias map resolved to
  *files* (absolute ``repro.x.y`` imports, relative ``from .sibling`` /
  ``from ..pkg.mod`` imports, ``import m as alias`` and
  ``from m import f as g`` aliases all land on the defining module).
* :class:`CallGraph` — call edges between project functions, each tagged
  with how it was resolved (``local``, ``import``, ``self``, ``unique``)
  so checkers can choose their precision/recall point.  Reachability
  queries return the actual call chain for findings.
* intraprocedural helpers — single-assignment environments and
  source-order positions, enough to follow a value from its producer to a
  sink inside one function body.

Everything here is deliberately *under*-approximate: an edge or an alias
is only recorded when the resolution is syntactically certain (plus the
clearly-tagged ``unique`` fallback).  Checkers built on top therefore err
toward silence, and the dynamic suites (fault oracle, trace differentials)
keep backstopping what static analysis cannot see.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .core import Project, SourceFile

#: Position of a node in its file — used for "happens before" queries.
Position = Tuple[int, int]


def node_position(node: ast.AST) -> Position:
    return (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))


@dataclass(frozen=True)
class FunctionKey:
    """Stable identity of one function across the analysed project."""

    path: str
    qualname: str

    def __str__(self) -> str:
        return f"{Path(self.path).name}:{self.qualname}"


@dataclass
class FunctionInfo:
    """One function/method definition plus its location context."""

    key: FunctionKey
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    source: SourceFile
    #: Innermost enclosing class name, if this is a method.
    class_name: Optional[str] = None

    @property
    def name(self) -> str:
        return self.node.name  # type: ignore[union-attr]


@dataclass(frozen=True)
class ImportedName:
    """What one local name imported into a module resolves to.

    Exactly one of ``module_path`` (a project file) or ``external`` (a
    dotted module outside the analysed set) is set.  ``symbol`` is the name
    inside that module for ``from m import f`` bindings; ``None`` means the
    binding *is* the module (``import m as alias`` / ``from . import m``).
    """

    module_path: Optional[str] = None
    external: Optional[str] = None
    symbol: Optional[str] = None


@dataclass
class ModuleInfo:
    """Symbol table for one source file."""

    source: SourceFile
    resolved_path: str
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ast.ClassDef] = field(default_factory=dict)
    imports: Dict[str, ImportedName] = field(default_factory=dict)

    def functions_named(self, name: str) -> List[FunctionInfo]:
        return [info for info in self.functions.values() if info.name == name]

    def top_level_function(self, name: str) -> Optional[FunctionInfo]:
        return self.functions.get(name)

    def method(self, class_name: str, name: str) -> Optional[FunctionInfo]:
        return self.functions.get(f"{class_name}.{name}")


def iter_own_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Every node of ``scope``'s body, excluding nested function bodies."""
    stack: List[ast.AST] = list(getattr(scope, "body", []))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # a nested def is its own scope; don't descend
        stack.extend(ast.iter_child_nodes(node))


def single_assignments(scope: ast.AST) -> Dict[str, ast.AST]:
    """``name -> value`` for names assigned exactly once in ``scope``.

    Flow-insensitive on purpose: a name rebound twice is dropped entirely
    rather than guessed at, so downstream dataflow never follows a stale
    binding.  ``with open(...) as f`` and ``for``-targets count as binds.
    """
    values: Dict[str, List[ast.AST]] = {}
    for node in iter_own_nodes(scope):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                values.setdefault(target.id, []).append(node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                values.setdefault(node.target.id, []).append(node.value)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            if isinstance(node.optional_vars, ast.Name):
                values.setdefault(node.optional_vars.id, []).append(
                    node.context_expr
                )
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if isinstance(node.target, ast.Name):
                # Iteration rebinding: origin unknown, poison the name.
                values.setdefault(node.target.id, []).extend((node, node))
    return {
        name: nodes[0] for name, nodes in values.items() if len(nodes) == 1
    }


def resolve_value(
    expr: Optional[ast.AST], env: Dict[str, ast.AST], depth: int = 5
) -> Optional[ast.AST]:
    """Chase ``expr`` through single-assignment names to its origin."""
    while depth > 0 and isinstance(expr, ast.Name) and expr.id in env:
        expr = env[expr.id]
        depth -= 1
    return expr


def call_terminal(call: ast.Call) -> Optional[str]:
    """The last name segment of a call's callee (``a.b.c(...)`` -> ``c``)."""
    head = call.func
    if isinstance(head, ast.Name):
        return head.id
    if isinstance(head, ast.Attribute):
        return head.attr
    return None


def _dotted_repro_name(path: Path) -> Optional[str]:
    """``repro.harness.cache`` for any file under a ``repro/`` directory."""
    parts = path.parts
    if "repro" not in parts:
        return None
    index = len(parts) - 1 - parts[::-1].index("repro")
    rest = list(parts[index + 1 :])
    if not rest:
        return "repro"
    leaf = rest[-1]
    if leaf == "__init__.py":
        rest = rest[:-1]
    elif leaf.endswith(".py"):
        rest[-1] = leaf[:-3]
    return ".".join(["repro"] + rest)


class ProjectIndex:
    """Symbol tables for every module of a :class:`Project`, cross-linked."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.modules: Dict[str, ModuleInfo] = {}
        self._by_dotted: Dict[str, str] = {}
        for source in project.files:
            resolved = str(source.path.resolve())
            module = ModuleInfo(source=source, resolved_path=resolved)
            self.modules[resolved] = module
            dotted = _dotted_repro_name(source.path)
            if dotted is not None:
                self._by_dotted[dotted] = resolved
        for module in self.modules.values():
            self._index_definitions(module)
            self._index_imports(module)

    # -- definitions -------------------------------------------------------

    def _index_definitions(self, module: ModuleInfo) -> None:
        def visit(node: ast.AST, prefix: str, class_name: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}{child.name}"
                    info = FunctionInfo(
                        key=FunctionKey(module.resolved_path, qualname),
                        node=child,
                        source=module.source,
                        class_name=class_name,
                    )
                    module.functions[qualname] = info
                    visit(child, f"{qualname}.", class_name)
                elif isinstance(child, ast.ClassDef):
                    module.classes[child.name] = child
                    visit(child, f"{prefix}{child.name}.", child.name)
                else:
                    visit(child, prefix, class_name)

        visit(module.source.tree, "", None)

    # -- imports -----------------------------------------------------------

    def _file_for(self, directory: Path, parts: Sequence[str]) -> Optional[str]:
        """Resolve ``directory / parts`` to a project module file."""
        base = directory
        for part in parts[:-1]:
            base = base / part
        if parts:
            candidates = [
                base / f"{parts[-1]}.py",
                base / parts[-1] / "__init__.py",
            ]
        else:
            candidates = [directory / "__init__.py"]
        for candidate in candidates:
            resolved = str(candidate.resolve())
            if resolved in self.modules:
                return resolved
        return None

    def _index_imports(self, module: ModuleInfo) -> None:
        source_dir = module.source.path.parent
        for node in ast.walk(module.source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.asname is not None:
                        target = self._by_dotted.get(alias.name)
                        if target is not None:
                            module.imports[bound] = ImportedName(
                                module_path=target
                            )
                            continue
                    module.imports.setdefault(
                        bound,
                        ImportedName(external=alias.name.split(".")[0]),
                    )
            elif isinstance(node, ast.ImportFrom):
                self._index_import_from(module, source_dir, node)

    def _index_import_from(
        self, module: ModuleInfo, source_dir: Path, node: ast.ImportFrom
    ) -> None:
        if node.level == 0:
            base_parts = (node.module or "").split(".")
            base_file = (
                self._by_dotted.get(node.module or "")
                if base_parts and base_parts[0] == "repro"
                else None
            )
            base_dir: Optional[Path] = (
                Path(base_file).parent
                if base_file is not None and base_file.endswith("__init__.py")
                else None
            )
        else:
            climb = source_dir
            for _ in range(node.level - 1):
                climb = climb.parent
            if node.module:
                base_file = self._file_for(climb, node.module.split("."))
            else:
                base_file = self._file_for(climb, [])
            base_dir = climb
            if node.module:
                base_dir = climb.joinpath(*node.module.split("."))
        for alias in node.names:
            bound = alias.asname or alias.name
            # ``from <pkg> import <submodule>`` binds a module...
            if base_dir is not None:
                sub_file = self._file_for(base_dir, [alias.name])
                if sub_file is not None:
                    module.imports[bound] = ImportedName(module_path=sub_file)
                    continue
            # ...otherwise it binds a symbol of the base module.
            if base_file is not None:
                module.imports[bound] = ImportedName(
                    module_path=base_file, symbol=alias.name
                )
            elif node.level == 0 and node.module:
                module.imports.setdefault(
                    bound,
                    ImportedName(
                        external=node.module.split(".")[0], symbol=alias.name
                    ),
                )

    # -- lookups -----------------------------------------------------------

    def module_for(self, source: SourceFile) -> ModuleInfo:
        return self.modules[str(source.path.resolve())]

    def function(self, key: FunctionKey) -> Optional[FunctionInfo]:
        module = self.modules.get(key.path)
        if module is None:
            return None
        return module.functions.get(key.qualname)

    def functions(self) -> Iterator[FunctionInfo]:
        for module in self.modules.values():
            yield from module.functions.values()

    def functions_named(self, name: str) -> List[FunctionInfo]:
        out: List[FunctionInfo] = []
        for module in self.modules.values():
            out.extend(module.functions_named(name))
        return out

    def enclosing_function(
        self, module: ModuleInfo, node: ast.AST
    ) -> Optional[FunctionInfo]:
        from .core import ancestors

        for ancestor in ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for info in module.functions.values():
                    if info.node is ancestor:
                        return info
        return None

    def _init_of(
        self, module: ModuleInfo, class_name: str
    ) -> Optional[FunctionInfo]:
        return module.method(class_name, "__init__")

    def resolve_symbol(
        self, imported: ImportedName
    ) -> Optional[FunctionInfo]:
        """The function an imported symbol binding lands on, if any."""
        if imported.module_path is None or imported.symbol is None:
            return None
        target = self.modules.get(imported.module_path)
        if target is None:
            return None
        info = target.top_level_function(imported.symbol)
        if info is not None:
            return info
        if imported.symbol in target.classes:
            return self._init_of(target, imported.symbol)
        return None

    def resolve_call(
        self,
        module: ModuleInfo,
        call: ast.Call,
        caller: Optional[FunctionInfo],
    ) -> Optional[Tuple[FunctionInfo, str]]:
        """Resolve a call to a project function; returns ``(info, kind)``.

        Kinds: ``local`` (same module, incl. nested defs and class
        constructors), ``import`` (through the alias table), ``self``
        (method on the caller's own class), ``unique`` (a project-unique
        bare method name — the tagged low-confidence fallback).
        """
        head = call.func
        if isinstance(head, ast.Name):
            # Nested function of the calling scope.
            if caller is not None:
                nested = module.functions.get(
                    f"{caller.key.qualname}.{head.id}"
                )
                if nested is not None:
                    return nested, "local"
            local = module.top_level_function(head.id)
            if local is not None:
                return local, "local"
            if head.id in module.classes:
                init = self._init_of(module, head.id)
                if init is not None:
                    return init, "local"
                return None
            imported = module.imports.get(head.id)
            if imported is not None:
                info = self.resolve_symbol(imported)
                if info is not None:
                    return info, "import"
            return None
        if isinstance(head, ast.Attribute):
            receiver = head.value
            if isinstance(receiver, ast.Name):
                imported = module.imports.get(receiver.id)
                if (
                    imported is not None
                    and imported.symbol is None
                    and imported.module_path is not None
                ):
                    target = self.modules.get(imported.module_path)
                    if target is not None:
                        info = target.top_level_function(head.attr)
                        if info is None and head.attr in target.classes:
                            info = self._init_of(target, head.attr)
                        if info is not None:
                            return info, "import"
                if (
                    receiver.id in ("self", "cls")
                    and caller is not None
                    and caller.class_name is not None
                ):
                    method = module.method(caller.class_name, head.attr)
                    if method is not None:
                        return method, "self"
            # Fallback: a bare method name defined exactly once anywhere.
            candidates = self.functions_named(head.attr)
            if len(candidates) == 1:
                return candidates[0], "unique"
        return None


@dataclass(frozen=True)
class CallEdge:
    """One resolved call: who calls whom, where, and how confidently."""

    caller: FunctionKey
    callee: FunctionKey
    call: ast.Call
    kind: str  # local | import | self | unique


#: Edge kinds whose resolution is syntactically certain.
CONFIDENT_KINDS = frozenset({"local", "import", "self"})


class CallGraph:
    """Call edges between project functions, with reachability queries."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.edges: Dict[FunctionKey, List[CallEdge]] = {}
        self.reverse: Dict[FunctionKey, List[CallEdge]] = {}
        for module in index.modules.values():
            for info in module.functions.values():
                for node in iter_own_nodes(info.node):
                    if not isinstance(node, ast.Call):
                        continue
                    resolved = index.resolve_call(module, node, info)
                    if resolved is None:
                        continue
                    callee, kind = resolved
                    edge = CallEdge(
                        caller=info.key,
                        callee=callee.key,
                        call=node,
                        kind=kind,
                    )
                    self.edges.setdefault(info.key, []).append(edge)
                    self.reverse.setdefault(callee.key, []).append(edge)

    def callees(
        self, key: FunctionKey, kinds: Iterable[str] = CONFIDENT_KINDS
    ) -> List[CallEdge]:
        wanted = frozenset(kinds)
        return [e for e in self.edges.get(key, []) if e.kind in wanted]

    def reaching(
        self,
        seeds: Iterable[FunctionKey],
        kinds: Iterable[str] = CONFIDENT_KINDS,
    ) -> Set[FunctionKey]:
        """Every function that can reach a seed through ``kinds`` edges."""
        wanted = frozenset(kinds)
        reached: Set[FunctionKey] = set(seeds)
        queue = deque(reached)
        while queue:
            current = queue.popleft()
            for edge in self.reverse.get(current, []):
                if edge.kind in wanted and edge.caller not in reached:
                    reached.add(edge.caller)
                    queue.append(edge.caller)
        return reached

    def chain_to(
        self,
        start: FunctionKey,
        targets: Set[FunctionKey],
        kinds: Iterable[str] = CONFIDENT_KINDS,
    ) -> List[FunctionKey]:
        """A shortest call chain from ``start`` into ``targets`` (BFS)."""
        wanted = frozenset(kinds)
        if start in targets:
            return [start]
        parents: Dict[FunctionKey, FunctionKey] = {}
        queue = deque([start])
        seen = {start}
        while queue:
            current = queue.popleft()
            for edge in self.edges.get(current, []):
                if edge.kind not in wanted or edge.callee in seen:
                    continue
                parents[edge.callee] = current
                if edge.callee in targets:
                    chain = [edge.callee]
                    while chain[-1] != start:
                        chain.append(parents[chain[-1]])
                    return list(reversed(chain))
                seen.add(edge.callee)
                queue.append(edge.callee)
        return []


def engine_for(project: Project) -> Tuple[ProjectIndex, CallGraph]:
    """The (index, call graph) pair for a project, built once on first use.

    Cached on the project instance itself so every cross-file checker in a
    run shares the same tables and the cache dies with the project.
    """
    cached = getattr(project, "_dataflow_engine", None)
    if cached is None:
        index = ProjectIndex(project)
        cached = (index, CallGraph(index))
        project._dataflow_engine = cached  # type: ignore[attr-defined]
    return cached
