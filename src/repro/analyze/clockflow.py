"""CLK008 — the wall-clock funnel, enforced through the call graph.

DET001 bans direct ``time.*``/``datetime.now`` calls per file; that leaves
a hole the funnel discipline actually cares about: a sim-critical function
calling a *wrapper* that reads the clock two modules away.  No per-file
allowlist sees that — call-graph reachability does.

The declared funnels (:data:`repro.analyze.layers.CLOCK_FUNNEL_FILES` —
``harness/timer.py``, ``perf/phases.py``) absorb clock
taint: reaching the clock *through* them is the sanctioned path, so the
reverse reachability walk never propagates taint out of a funnel file.
Everything else that contains a direct clock read seeds the tainted set,
and any sim-critical function inside it is flagged with the offending call
chain.

Only syntactically-certain call edges (``local``/``import``/``self``)
participate; the ``unique`` fallback kind is excluded so a coincidental
method name cannot manufacture a finding.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .core import Checker, Finding, Project, SourceFile, register
from .dataflow import CallGraph, FunctionKey, ProjectIndex, engine_for
from .determinism import NONDETERMINISTIC_CALLS
from .layers import CLOCK_FUNNEL_FILES


def _is_funnel(posix_path: str) -> bool:
    return any(posix_path.endswith(suffix) for suffix in CLOCK_FUNNEL_FILES)


def _direct_clock_calls(tree: ast.AST) -> List[Tuple[ast.Call, str]]:
    """``(call, description)`` for every direct clock/entropy read."""
    imported: Set[str] = set()
    out: List[Tuple[ast.Call, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            banned = NONDETERMINISTIC_CALLS.get(node.module or "")
            if banned:
                for alias in node.names:
                    if alias.name in banned:
                        imported.add(alias.asname or alias.name)
        if not isinstance(node, ast.Call):
            continue
        head = node.func
        if isinstance(head, ast.Attribute) and isinstance(head.value, ast.Name):
            banned = NONDETERMINISTIC_CALLS.get(head.value.id)
            if banned is not None and head.attr in banned:
                out.append((node, f"{head.value.id}.{head.attr}()"))
        elif isinstance(head, ast.Name) and head.id in imported:
            out.append((node, f"{head.id}()"))
    return out


@register
class ClockFunnelChecker(Checker):
    rule = "CLK008"
    description = (
        "wall-clock reads are reachable from sim-critical code only "
        "through the declared funnels (harness/timer, perf/phases), "
        "checked by call-graph reachability"
    )

    def _tainted(
        self, project: Project, index: ProjectIndex, graph: CallGraph
    ) -> Tuple[Set[FunctionKey], Dict[FunctionKey, str]]:
        """``(tainted functions, seed -> clock-call description)``.

        Cached on the project instance (one reachability pass per run).
        """
        cached = getattr(project, "_clk008_tainted", None)
        if cached is not None:
            return cached
        seeds: Dict[FunctionKey, str] = {}
        for module in index.modules.values():
            posix = module.source.path.as_posix()
            if _is_funnel(posix):
                continue  # funnels absorb taint: the sanctioned path
            clock_calls = _direct_clock_calls(module.source.tree)
            if not clock_calls:
                continue
            for info in module.functions.values():
                own = set()
                for child in ast.walk(info.node):
                    own.add(id(child))
                for call, description in clock_calls:
                    if id(call) in own:
                        seeds.setdefault(info.key, description)
        # Reverse reachability, never expanding out of a funnel file.
        tainted: Set[FunctionKey] = set(seeds)
        frontier = list(seeds)
        while frontier:
            current = frontier.pop()
            for edge in graph.reverse.get(current, []):
                if edge.kind == "unique" or edge.caller in tainted:
                    continue
                caller_info = index.function(edge.caller)
                if caller_info is None or _is_funnel(
                    caller_info.source.path.as_posix()
                ):
                    continue
                tainted.add(edge.caller)
                frontier.append(edge.caller)
        project._clk008_tainted = (tainted, seeds)  # type: ignore[attr-defined]
        return tainted, seeds

    def check(self, source: SourceFile, project: Project) -> Iterable[Finding]:
        index, graph = engine_for(project)
        tainted, seeds = self._tainted(project, index, graph)
        posix = source.path.as_posix()
        if _is_funnel(posix):
            return
        module = index.module_for(source)
        if source.sim_critical:
            # Direct reads in sim-critical code are funnel violations
            # regardless of the call graph (DET001 flags them too; CLK008
            # names the funnel discipline they break).
            for call, description in _direct_clock_calls(source.tree):
                yield self.finding(
                    source,
                    call,
                    f"{description} is a direct wall-clock read in "
                    "sim-critical code; route it through a declared funnel "
                    "(repro.harness.timer / repro.perf.phases)",
                )
            for info in module.functions.values():
                if info.key in seeds:
                    continue  # already flagged at the call site above
                if info.key not in tainted:
                    continue
                chain = graph.chain_to(
                    info.key, set(seeds), kinds=("local", "import", "self")
                )
                via = " -> ".join(str(key) for key in chain)
                seed_description = seeds.get(
                    chain[-1] if chain else info.key, "a wall-clock read"
                )
                yield self.finding(
                    source,
                    info.node,
                    f"'{info.key.qualname}' reaches {seed_description} "
                    f"outside the declared clock funnels (via {via}); "
                    "only harness/timer and perf/phases may read the wall "
                    "clock",
                )
