"""The declared layer DAG of the repro tree.

LAY002 derives its verdicts from this file, so the architecture is written
down once, reviewable, and enforced — rather than implied by whatever the
imports happen to be.  Edges point *downward*: a package may import only the
packages listed for it (plus itself and the standard library).

The stack mirrors the hardware it models: foundational enums and parameters
at the bottom, then memory devices, the deterministic simulator core, caches
and signatures above the memory they index, the HTM protocol over all of
those, and the runtime/workload/harness layers on top.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

#: package -> packages it may import from.  Must stay acyclic.
LAYER_DAG: Dict[str, FrozenSet[str]] = {
    "mem": frozenset(),
    "sim": frozenset({"mem"}),
    "cache": frozenset({"mem", "sim"}),
    "signatures": frozenset({"sim"}),
    "htm": frozenset({"mem", "sim", "cache", "signatures"}),
    # A compatibility stub for the benchmark harness outside src/; it
    # imports nothing and no package here imports it.
    "kernels": frozenset(),
    "runtime": frozenset({"mem", "sim", "cache", "signatures", "htm"}),
    "workloads": frozenset({"mem", "sim", "runtime"}),
    "harness": frozenset({"mem", "sim", "htm", "runtime", "workloads"}),
    "faults": frozenset(
        {"mem", "sim", "htm", "runtime", "workloads", "harness"}
    ),
    # Observability sits on top like faults/: it reads every layer through
    # duck-typed hook attributes, and nothing below ever imports it.
    "obs": frozenset(
        {"mem", "sim", "cache", "signatures", "htm", "runtime", "workloads",
         "harness"}
    ),
    # Profiling also sits on top: it instruments hot entry points in every
    # layer (and drives the harness), and nothing below ever imports it.
    "perf": frozenset(
        {"mem", "sim", "cache", "signatures", "htm", "runtime", "workloads",
         "harness"}
    ),
    # The job service drives the harness (grids, cache, figures) from
    # separate processes; nothing below ever imports it.
    "serve": frozenset(
        {"mem", "sim", "htm", "runtime", "workloads", "harness"}
    ),
    # Traffic reporting sits on top like obs (which it drives for traced
    # tail forensics); the scenario's moving parts live lower — arrivals
    # in sim/, the tenant workload in workloads/, the figure in harness/.
    "traffic": frozenset(
        {"mem", "sim", "htm", "runtime", "workloads", "harness", "obs"}
    ),
    "analyze": frozenset(),
}

#: Leaf modules importable from anywhere (shared vocabulary, no behaviour
#: above the standard library).
UNLAYERED_MODULES: FrozenSet[str] = frozenset({"errors", "params"})

#: The wall-clock funnels (posix path suffixes): the only modules that may
#: call ``time.*``/``datetime.now`` directly.  DET001 exempts them from its
#: per-file clock ban and CLK008 enforces the stronger funnel property —
#: no sim-critical function may even *reach* a clock read through the call
#: graph except through these.  Profiling and queue lease deadlines are
#: inherently wall-clock activities; their readings only ever describe the
#: host, never the simulation.
CLOCK_FUNNEL_FILES: tuple = (
    "repro/harness/timer.py",
    "repro/perf/phases.py",
    "repro/serve/clock.py",
)

#: Attribute names that are the memory layer's *internals*: the backing
#: stores, hardware logs, and the DRAM cache.  Section IV-B makes the
#: controller "the only component allowed to touch the reserved log areas";
#: the protocol (htm/) and applications (workloads/) must go through
#: ``mem.controller`` / ``cache.hierarchy`` entry-point methods instead of
#: reaching into these.
MEM_INTERNAL_ATTRS: FrozenSet[str] = frozenset(
    {"dram", "nvm", "dram_log", "nvm_log", "dram_cache", "backend"}
)

#: Packages forbidden from touching :data:`MEM_INTERNAL_ATTRS` directly.
INTERNALS_RESTRICTED_PACKAGES: FrozenSet[str] = frozenset({"htm", "workloads"})

#: Names a receiver expression may end in for an attribute access to count
#: as "reaching through the controller" (``self.controller.nvm_log`` …).
CONTROLLER_NAMES: FrozenSet[str] = frozenset({"controller", "_controller"})


def assert_acyclic() -> None:
    """Sanity check used by the test suite: the declared DAG has no cycle."""
    state: Dict[str, int] = {}

    def visit(package: str) -> None:
        state[package] = 1
        for dep in LAYER_DAG.get(package, frozenset()):
            mark = state.get(dep, 0)
            if mark == 1:
                raise ValueError(f"layer cycle through {package!r} -> {dep!r}")
            if mark == 0:
                visit(dep)
        state[package] = 2

    for package in LAYER_DAG:
        if state.get(package, 0) == 0:
            visit(package)
