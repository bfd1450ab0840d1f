"""Builds a system from an :class:`ExperimentSpec`, runs it, collects metrics."""

from __future__ import annotations

import gc
from typing import Callable, List, Optional

from ..errors import SimulationError
from ..runtime.system import System
from ..sim.engine import ThreadState
from ..workloads import MemBoundWorkload, WORKLOADS, WorkloadParams
from .cache import spec_fingerprint
from .config import ExperimentSpec
from .metrics import RunResult, collect_metrics


class ExperimentFailure(SimulationError):
    """One experiment point died mid-run.

    Carries the point's label, its spec fingerprint, and the metrics
    collected up to the failure, so that a failure inside a parallel grid —
    where the traceback alone no longer says which point was running — is
    attributable and the partial work is not lost.
    """

    def __init__(
        self,
        message: str,
        label: str,
        spec_hash: str,
        partial: Optional[RunResult] = None,
    ) -> None:
        super().__init__(f"{message} [label={label} spec={spec_hash[:12]}]")
        self.label = label
        self.spec_hash = spec_hash
        self.partial = partial

    def __reduce__(self):
        # Exceptions with extra constructor arguments do not unpickle via the
        # default path; spell the reconstruction out so a failure raised in a
        # pool worker reaches the parent intact.
        return (
            _rebuild_failure,
            (self.args[0], self.label, self.spec_hash, self.partial),
        )


def _rebuild_failure(
    message: str, label: str, spec_hash: str, partial: Optional[RunResult]
) -> ExperimentFailure:
    failure = ExperimentFailure.__new__(ExperimentFailure)
    SimulationError.__init__(failure, message)
    failure.label = label
    failure.spec_hash = spec_hash
    failure.partial = partial
    return failure


def build_system(spec: ExperimentSpec) -> System:
    return System(spec.machine(), spec.htm, seed=spec.seed)


def run_experiment(
    spec: ExperimentSpec,
    label: Optional[str] = None,
    instrument: Optional[Callable[[System], None]] = None,
) -> RunResult:
    """Run one experiment to completion and return its metrics.

    Benchmarks get one simulated process each (their own conflict domain and
    fallback lock); co-runners get processes of their own and run until
    every benchmark thread finishes.

    ``instrument`` is called with the freshly built :class:`System` before
    any workload is spawned — observers (e.g. ``repro.obs.attach_tracer``)
    hook in here.  The spec itself stays observation-free, so instrumented
    and plain runs share one cache fingerprint.

    A :class:`SimulationError` raised mid-run (a co-runner thread dying, the
    step cap firing) is re-raised as :class:`ExperimentFailure` carrying the
    point's label, spec fingerprint, and the partial metrics collected so
    far.
    """
    label = label or spec.htm.label
    system = build_system(spec)
    if instrument is not None:
        instrument(system)
    workloads = []
    benchmark_threads = []
    for index, bench in enumerate(spec.benchmarks):
        process = system.process(f"{bench.workload}#{index}")
        workload_cls = WORKLOADS[bench.workload]
        workload = workload_cls(
            system, process, bench.params, **bench.kwargs_dict()
        )
        workload.spawn()
        workloads.append(workload)
        benchmark_threads.extend(process.threads)

    done = ThreadState.DONE

    def benchmarks_done() -> bool:
        # Plain loop, not all(genexpr): co-runner threads poll this every
        # step, and the generator frame per call showed up in profiles.
        for t in benchmark_threads:
            if t.state is not done:
                return False
        return True

    def fail(message: str) -> ExperimentFailure:
        partial = collect_metrics(system, label, verified=False)
        return ExperimentFailure(
            message, label=label, spec_hash=spec_fingerprint(spec), partial=partial
        )

    hog_cls = WORKLOADS[spec.corunner]
    for index in range(spec.membound_instances):
        process = system.process(f"{spec.corunner}#{index}")
        hog = hog_cls(
            system,
            process,
            WorkloadParams(threads=1, value_bytes=64, initial_fill=0),
            llc_multiple=spec.membound_llc_multiple,
            stop_when=benchmarks_done,
        )
        hog.spawn()

    # The simulator allocates no reference cycles on its hot paths, so the
    # cyclic collector only adds pauses mid-run; pause it for the duration
    # (measured ~5% of run time) and restore whatever state the caller had.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        system.run(max_steps=spec.max_steps or None)
    except ExperimentFailure:
        raise
    except SimulationError as exc:
        raise fail(f"experiment {spec.name!r} failed mid-run: {exc}") from exc
    finally:
        if gc_was_enabled:
            gc.enable()
    if not benchmarks_done():
        raise fail(f"experiment {spec.name!r} hit its step cap before finishing")
    verified = all(w.verify() for w in workloads)
    return collect_metrics(system, label, verified)


def run_series(
    specs: List[ExperimentSpec],
    labels: Optional[List[str]] = None,
    jobs: int = 1,
) -> List[RunResult]:
    """Run several specs, optionally across a process pool (``jobs > 1``)."""
    if labels is None:
        labels = [spec.htm.label for spec in specs]
    if jobs > 1:
        from .parallel import GridPoint, run_grid

        points = [
            GridPoint(spec=spec, label=label)
            for spec, label in zip(specs, labels)
        ]
        return run_grid(points, jobs=jobs)
    return [run_experiment(spec, label) for spec, label in zip(specs, labels)]
