"""The cross-file dataflow engine: symbol tables, call graph, reachability."""

from __future__ import annotations

import ast
from pathlib import Path

import repro
from repro.analyze import engine_for
from repro.analyze.core import Project
from repro.analyze.dataflow import (
    iter_own_nodes,
    resolve_value,
    single_assignments,
)

REPRO_ROOT = Path(repro.__file__).parent


def make_tree(tmp_path: Path) -> Path:
    """A miniature repro-shaped package exercising every import form."""
    root = tmp_path / "repro"
    (root / "alpha").mkdir(parents=True)
    (root / "beta").mkdir()
    (root / "alpha" / "util.py").write_text(
        "def helper():\n"
        "    return 1\n"
        "\n"
        "\n"
        "def wrapper():\n"
        "    return helper()\n"
        "\n"
        "\n"
        "class Widget:\n"
        "    def __init__(self):\n"
        "        self.size = helper()\n"
        "\n"
        "    def grow(self):\n"
        "        return self.shrink()\n"
        "\n"
        "    def shrink(self):\n"
        "        return self.size\n",
        encoding="utf-8",
    )
    (root / "alpha" / "user.py").write_text(
        "from .util import helper\n"
        "from . import util\n"
        "\n"
        "\n"
        "def via_symbol():\n"
        "    return helper()\n"
        "\n"
        "\n"
        "def via_module():\n"
        "    return util.helper()\n",
        encoding="utf-8",
    )
    (root / "beta" / "deep.py").write_text(
        "from ..alpha.util import helper as h\n"
        "from ..alpha import util as aliased_util\n"
        "\n"
        "\n"
        "def via_renamed_symbol():\n"
        "    return h()\n"
        "\n"
        "\n"
        "def via_aliased_module():\n"
        "    return aliased_util.wrapper()\n",
        encoding="utf-8",
    )
    return root


def edges_from(graph, index, path: Path, qualname: str):
    module = index.modules[str(path.resolve())]
    info = module.functions[qualname]
    return graph.edges.get(info.key, [])


class TestSymbolTable:
    def test_relative_imports_resolve_to_files(self, tmp_path):
        root = make_tree(tmp_path)
        project, errors = Project.load([root])
        assert errors == []
        index, _ = engine_for(project)
        user = index.modules[str((root / "alpha" / "user.py").resolve())]
        util_path = str((root / "alpha" / "util.py").resolve())
        assert user.imports["helper"].module_path == util_path
        assert user.imports["helper"].symbol == "helper"
        # ``from . import util`` binds the module itself.
        assert user.imports["util"].module_path == util_path
        assert user.imports["util"].symbol is None

    def test_two_dot_import_climbs_a_package(self, tmp_path):
        root = make_tree(tmp_path)
        project, _ = Project.load([root])
        index, _ = engine_for(project)
        deep = index.modules[str((root / "beta" / "deep.py").resolve())]
        util_path = str((root / "alpha" / "util.py").resolve())
        assert deep.imports["h"].module_path == util_path
        assert deep.imports["h"].symbol == "helper"
        assert deep.imports["aliased_util"].module_path == util_path
        assert deep.imports["aliased_util"].symbol is None

    def test_functions_indexed_by_qualname(self, tmp_path):
        root = make_tree(tmp_path)
        project, _ = Project.load([root])
        index, _ = engine_for(project)
        util = index.modules[str((root / "alpha" / "util.py").resolve())]
        assert "helper" in util.functions
        assert "Widget.__init__" in util.functions
        assert util.functions["Widget.grow"].class_name == "Widget"


class TestCallGraph:
    def test_local_import_and_self_edge_kinds(self, tmp_path):
        root = make_tree(tmp_path)
        project, _ = Project.load([root])
        index, graph = engine_for(project)
        util = root / "alpha" / "util.py"

        local = edges_from(graph, index, util, "wrapper")
        assert [e.kind for e in local] == ["local"]
        assert local[0].callee.qualname == "helper"

        self_edges = edges_from(graph, index, util, "Widget.grow")
        assert [e.kind for e in self_edges] == ["self"]
        assert self_edges[0].callee.qualname == "Widget.shrink"

        symbol = edges_from(
            graph, index, root / "alpha" / "user.py", "via_symbol"
        )
        assert [(e.kind, e.callee.qualname) for e in symbol] == [
            ("import", "helper")
        ]

    def test_aliased_imports_still_give_edges(self, tmp_path):
        root = make_tree(tmp_path)
        project, _ = Project.load([root])
        index, graph = engine_for(project)
        deep = root / "beta" / "deep.py"
        renamed = edges_from(graph, index, deep, "via_renamed_symbol")
        assert [(e.kind, e.callee.qualname) for e in renamed] == [
            ("import", "helper")
        ]
        module_alias = edges_from(graph, index, deep, "via_aliased_module")
        assert [(e.kind, e.callee.qualname) for e in module_alias] == [
            ("import", "wrapper")
        ]

    def test_reverse_reachability_climbs_the_chain(self, tmp_path):
        root = make_tree(tmp_path)
        project, _ = Project.load([root])
        index, graph = engine_for(project)
        util = index.modules[str((root / "alpha" / "util.py").resolve())]
        helper_key = util.functions["helper"].key
        reached = graph.reaching([helper_key])
        names = {key.qualname for key in reached}
        # Everything that calls helper() directly or transitively.
        assert {
            "helper",
            "wrapper",
            "via_symbol",
            "via_module",
            "via_renamed_symbol",
            "via_aliased_module",  # via wrapper -> helper
            "Widget.__init__",
        } <= names

    def test_chain_to_returns_the_actual_path(self, tmp_path):
        root = make_tree(tmp_path)
        project, _ = Project.load([root])
        index, graph = engine_for(project)
        util = index.modules[str((root / "alpha" / "util.py").resolve())]
        deep = index.modules[str((root / "beta" / "deep.py").resolve())]
        start = deep.functions["via_aliased_module"].key
        target = util.functions["helper"].key
        chain = graph.chain_to(start, {target})
        assert [key.qualname for key in chain] == [
            "via_aliased_module",
            "wrapper",
            "helper",
        ]


class TestIntraprocedural:
    def test_single_assignments_drop_rebound_names(self):
        tree = ast.parse(
            "def f(path):\n"
            "    a = path.with_name('x')\n"
            "    b = 1\n"
            "    b = 2\n"
            "    with open(path) as handle:\n"
            "        data = handle.read()\n"
        )
        scope = tree.body[0]
        env = single_assignments(scope)
        assert set(env) == {"a", "handle", "data"}
        assert isinstance(env["handle"], ast.Call)

    def test_resolve_value_chases_names(self):
        tree = ast.parse(
            "def f(store):\n"
            "    first = store.points_path('c')\n"
            "    second = first\n"
            "    third = second\n"
        )
        scope = tree.body[0]
        env = single_assignments(scope)
        value = resolve_value(ast.Name(id="third", ctx=ast.Load()), env)
        assert isinstance(value, ast.Call)
        assert value.func.attr == "points_path"

    def test_iter_own_nodes_skips_nested_function_bodies(self):
        tree = ast.parse(
            "def outer():\n"
            "    a = 1\n"
            "    def inner():\n"
            "        b = 2\n"
            "    return a\n"
        )
        scope = tree.body[0]
        names = {
            node.targets[0].id
            for node in iter_own_nodes(scope)
            if isinstance(node, ast.Assign)
        }
        assert names == {"a"}


class TestRealTree:
    def test_figure_driver_calls_run_keyed_through_the_import(self):
        project, errors = Project.load([REPRO_ROOT / "harness"])
        assert errors == []
        index, graph = engine_for(project)
        figures_path = str((REPRO_ROOT / "harness" / "figures.py").resolve())
        fig2 = index.modules[figures_path].functions["fig2"]
        callees = {
            (e.kind, e.callee.qualname)
            for e in graph.edges.get(fig2.key, [])
        }
        assert ("import", "run_keyed") in callees
        assert ("local", "fig2_grid") in callees

    def test_atom005_propagates_the_cache_path_into_a_helper(self, tmp_path):
        """Factor the real cache's staged write out of ``put``: the
        published path follows the call into the helper's parameter."""
        from repro.analyze import run_analysis
        from repro.analyze.core import registered_checkers

        source = (REPRO_ROOT / "harness" / "cache.py").read_text(
            encoding="utf-8"
        )
        needle = "        tmp = path.with_name(\n"
        assert needle in source
        copy = tmp_path / "cache.py"
        copy.write_text(
            source.replace(
                needle,
                "        return self._stage(path, payload)\n"
                "\n"
                "    def _stage(self, path, payload):\n" + needle,
            ),
            encoding="utf-8",
        )
        project, errors = Project.load([copy])
        assert errors == []
        checker = registered_checkers()["ATOM005"]
        by_name = {
            f"{Path(key.path).name}:{key.qualname}": value
            for key, value in checker._published_params(project).items()
        }
        assert by_name == {"cache.py:ResultCache._stage": {"path": "path_for"}}
        # The helper still stages and renames, so the refactor is clean.
        assert run_analysis([copy], rules=["ATOM005"]).findings == []

    def test_no_sim_critical_function_reaches_the_clock(self):
        """The CLK008 invariant, asserted directly against the engine."""
        from repro.analyze.core import SIM_CRITICAL_PACKAGES, registered_checkers

        project, _ = Project.load([REPRO_ROOT])
        index, graph = engine_for(project)
        checker = registered_checkers()["CLK008"]
        tainted, _seeds = checker._tainted(project, index, graph)
        offending = [
            key
            for key in tainted
            if index.function(key) is not None
            and index.function(key).source.package in SIM_CRITICAL_PACKAGES
        ]
        assert offending == []
