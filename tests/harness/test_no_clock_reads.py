"""No simulation reads the host clock or the OS entropy pool.

Results must be a pure function of the spec: the seeded ``RngStreams`` are
the only source of variation, and wall time may only ever feed progress
lines printed around a run.  DET001 bans clock reads in the simulator's
own files; this probe checks the stronger runtime fact, for every call
path a run actually takes: no clock or entropy builtin is called at all
while ``run_experiment`` executes, whichever module (funnel or not) the
call sits in and whatever name it was imported under.
"""

from __future__ import annotations

import gc
import os
import sys
import time

import pytest

from repro.faults.cli import CAMPAIGN_WORKLOADS
from repro.harness.config import BenchmarkSpec, ExperimentSpec, consolidated
from repro.harness.runner import run_experiment
from repro.params import HTMConfig, HTMDesign
from repro.workloads import WorkloadParams

#: The builtins, by identity: ``from time import perf_counter as now``
#: calls the same object as ``time.perf_counter``.
_CLOCK_BUILTINS = {
    id(getattr(module, name)): f"{module.__name__}.{name}"
    for module, names in (
        (time, ("time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
                "perf_counter_ns", "process_time", "process_time_ns")),
        (os, ("urandom",)),
    )
    for name in names
}

PARAMS = WorkloadParams(
    threads=2, txs_per_thread=2, value_bytes=1024, keys=64, initial_fill=16
)


def clock_reads(spec: ExperimentSpec):
    """``run_experiment(spec)`` under a profiler that records every call to
    a clock or entropy builtin as ``(builtin, file, line)``."""
    reads = []

    def probe(frame, event, arg):
        if event == "c_call" and id(arg) in _CLOCK_BUILTINS:
            reads.append(
                (_CLOCK_BUILTINS[id(arg)], frame.f_code.co_filename,
                 frame.f_lineno)
            )

    # Test plugins may time garbage collections from ``gc.callbacks``;
    # those reads belong to the test process, not to the simulation.
    callbacks = gc.callbacks[:]
    gc.callbacks.clear()
    previous = sys.getprofile()
    sys.setprofile(probe)
    try:
        result = run_experiment(spec)
    finally:
        sys.setprofile(previous)
        gc.callbacks[:] = callbacks
    assert result.committed_ops > 0
    return reads


def _spec(name, benchmarks, design, **fields):
    return ExperimentSpec(
        name=name,
        htm=HTMConfig(design=design),
        benchmarks=benchmarks,
        scale=1 / 64,
        cores=4,
        **fields,
    )


def _campaign_spec(workload, design):
    return _spec(workload, consolidated(workload, 1, PARAMS), design)


def _corunner_spec(corunner, design):
    """The co-runners run only beside a benchmark: on their own they sweep
    until a step cap, far too long for a unit test."""
    return _spec(
        corunner,
        consolidated("hashmap", 1, PARAMS),
        design,
        membound_instances=1,
        corunner=corunner,
    )


def _open_loop_spec(design):
    kwargs = dict(inner="echo", mean_gap_ns=40_000.0, horizon_ns=200_000.0)
    return _spec(
        "open_loop",
        (BenchmarkSpec("open_loop", PARAMS, tuple(sorted(kwargs.items()))),),
        design,
    )


@pytest.mark.parametrize("design", HTMDesign.ALL)
@pytest.mark.parametrize("workload", CAMPAIGN_WORKLOADS)
def test_campaign_workloads_read_no_clock(workload, design):
    assert clock_reads(_campaign_spec(workload, design)) == []


@pytest.mark.parametrize("design", HTMDesign.ALL)
@pytest.mark.parametrize("corunner", ("membound", "graphhog"))
def test_corunners_read_no_clock(corunner, design):
    assert clock_reads(_corunner_spec(corunner, design)) == []


@pytest.mark.parametrize("design", HTMDesign.ALL)
def test_open_loop_reads_no_clock(design):
    assert clock_reads(_open_loop_spec(design)) == []


def test_the_probe_sees_an_aliased_clock_read(monkeypatch):
    """A clock read planted in the simulator, under an alias, is caught."""
    from time import perf_counter as now

    from repro.htm import base

    commit = base.HTMSystem.commit

    def timed_commit(self, *args, **kwargs):
        now()
        return commit(self, *args, **kwargs)

    monkeypatch.setattr(base.HTMSystem, "commit", timed_commit)
    reads = clock_reads(_campaign_spec("hashmap", HTMDesign.UHTM))
    assert reads
    assert {name for name, _, _ in reads} == {"time.perf_counter"}
    assert all(path == __file__ for _, path, _ in reads)
