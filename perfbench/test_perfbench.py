"""Self-tests of the benchmark's own code, at a tiny simulation size.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import measure
from perfbench.tracing import LAYERS, LayerTracer
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: A fraction of each workload's simulated work: enough to exercise every
#: layer, small enough for a test.  ``long-scan`` needs a fifth of its
#: horizon before a scan overflows the LLC.
TINY = {"overflow-nvm": 0.1, "onchip-index": 0.1, "long-scan": 0.2}


def _quiet(line: str) -> None:
    pass


@pytest.fixture(scope="module")
def traced():
    """One traced run per workload, shared by the tests that inspect it."""
    return {
        name: measure.measure_traced(name, 2020, size=TINY[name], log=_quiet)
        for name in WORKLOADS
    }


def _declared(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_benchmark_json_names_the_workloads():
    from perfbench import run

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    outcome = measure.measure(
        workload, 2020, seconds=8, size=TINY[workload], log=_quiet
    )
    summary = outcome.summary()
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    emitted = {name: m["unit"] for name, m in summary["metrics"].items()}
    assert emitted == _declared("end_to_end")
    for name, metric in summary["metrics"].items():
        assert metric["value"] >= 0, name
    for name in ("setup_s", "run_s", "peak_rss_mb", "sim_throughput_ops_per_ms"):
        assert summary["metrics"][name]["value"] > 0, name


def test_every_per_layer_metric_is_emitted_with_its_unit(traced):
    for outcome in traced.values():
        emitted = {name: m["unit"] for name, m in outcome.metrics.items()}
        assert emitted == _declared("per_layer")
        assert outcome.correct


def test_self_time_never_exceeds_span_time(traced):
    for outcome in traced.values():
        tracer = outcome.tracer
        for index, name in enumerate(tracer.names):
            assert -1e-9 <= tracer.self_s[index] <= tracer.total_s[index] + 1e-9, name
        for layer in LAYERS:
            assert tracer.layer_self_s(layer) <= tracer.layer_span_s(layer) + 1e-9
        for start, end in zip(tracer.span_start, tracer.span_end):
            assert end >= start


def test_wrappers_leave_the_simulation_unchanged(traced):
    for outcome in traced.values():
        untraced, reference, traced_sim = outcome.sims
        assert traced_sim.role == "traced"
        assert traced_sim.digest == reference.digest == untraced.digest
        assert traced_sim.ok


def test_detach_restores_every_entry_point():
    from repro.cache.hierarchy import CacheHierarchy
    from repro.htm import designs

    access = CacheHierarchy.__dict__["access"]
    probe = designs._signature_hits
    with LayerTracer().attach(batched=True):
        assert CacheHierarchy.__dict__["access"] is not access
    assert CacheHierarchy.__dict__["access"] is access
    assert designs._signature_hits is probe


def test_traced_run_separates_the_workloads(traced):
    def value(workload, name):
        return traced[workload].metrics[name]["value"]

    assert value("onchip-index", "signatures.checks") == 0
    assert value("overflow-nvm", "signatures.checks") > 0
    assert value("long-scan", "signatures.checks") > 0
    assert value("long-scan", "signatures.read_inserts") > value(
        "long-scan", "signatures.write_inserts"
    )
    assert value("overflow-nvm", "signatures.write_inserts") > value(
        "overflow-nvm", "signatures.read_inserts"
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_held_out_seed_is_verified_and_repeatable(workload):
    outcome = measure.measure(workload, 7, seconds=8, size=TINY[workload], log=_quiet)
    assert outcome.correct
    first = [sim for sim in outcome.sims if sim.seed == 7]
    assert len(first) == 2 and first[0].digest == first[1].digest


def test_a_digest_mismatch_fails_the_run():
    spec = WORKLOADS["overflow-nvm"](2020, TINY["overflow-nvm"])
    book = measure.DigestBook()
    first = book.check(measure.simulate(spec, "warmup"))
    second = measure.simulate(spec, "measure")
    second.digest = "0" * 64
    assert first.ok
    assert not book.check(second).ok


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "overflow-nvm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
