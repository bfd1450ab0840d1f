"""Process-pool execution of experiment grids, with a bit-identical contract.

The paper's evaluation is a wide grid — (design x workload x parameter)
points, each an independent simulation — and the simulator is a pure
function of its :class:`~repro.harness.config.ExperimentSpec` (PR 2 routed
every stochastic decision through named, seeded
:class:`~repro.sim.rng.RngStreams`).  Independence plus determinism means
the grid can fan out across a :class:`~concurrent.futures.ProcessPoolExecutor`
**without changing a single bit of output**:

* points are materialised up front in deterministic order (specs are
  pickled to the workers; no callables cross the process boundary),
* results come back in submission order regardless of completion order,
* each worker runs a fresh :class:`~repro.runtime.system.System` seeded
  from the spec, exactly as a serial run would.

``run_grid(points, jobs=N)`` therefore returns the same ``RunResult`` list
for every ``N`` — the differential test tier proves it byte-for-byte, and
``verify_sample=True`` spot-checks the contract in production runs by
re-running one pooled point serially.

A :class:`~repro.harness.cache.ResultCache` short-circuits points whose
content hash already has a stored result, so re-running a figure only
simulates changed points.

``run_grid_detailed`` also accepts a pluggable ``executor`` — anything
matching the :data:`GridExecutor` contract ``(points, cache) ->
GridOutcome`` — which replaces the local pool entirely.  That is how the
``repro serve`` job service slots in underneath every figure driver: the
same grids, submitted to a spool and executed by a sharded worker fleet,
assembled back in submission order with the same bit-identical contract.
:func:`execute_point` is the shared execution core both paths run.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from .cache import ResultCache, spec_fingerprint
from .config import ExperimentSpec
from .metrics import RunResult, run_result_to_dict
from .runner import run_experiment
from .timer import Stopwatch


@dataclass(frozen=True)
class GridPoint:
    """One point of an experiment grid.

    ``key`` is an optional hashable handle (e.g. the tuple of swept axis
    values) that figure drivers use to look results back up after a grid
    returns; it never reaches the workers and never affects the result.
    """

    spec: ExperimentSpec
    label: Optional[str] = None
    key: Any = None


@dataclass
class PointRun:
    """One executed (or cache-served) grid point with its provenance."""

    key: Any
    label: str
    fingerprint: str
    cached: bool
    #: Wall-clock seconds spent simulating (0.0 for cache hits).  Progress
    #: reporting only — never feeds back into results.
    elapsed_s: float
    result: RunResult


@dataclass
class GridOutcome:
    """Everything ``run_grid_detailed`` learned about one grid execution."""

    runs: List[PointRun]
    #: Points actually simulated (i.e. not served from the cache).
    simulated: int
    cache_hits: int

    @property
    def results(self) -> List[RunResult]:
        return [run.result for run in self.runs]

    def by_key(self) -> Dict[Any, RunResult]:
        return {run.key: run.result for run in self.runs}


def execute_point(point: GridPoint) -> Tuple[RunResult, float]:
    """The shared execution core: one grid point to one timed result.

    Every execution backend funnels through here — the serial loop, the
    process pool (it must stay a module-level function: it is pickled to
    the workers), and each ``repro serve`` fleet worker.
    """
    stopwatch = Stopwatch()
    result = run_experiment(point.spec, point.label)
    return result, stopwatch.elapsed_s


#: A pluggable grid backend: given the full point list and an optional
#: shared cache, return a complete :class:`GridOutcome` in submission order.
#: ``repro.serve.client.ServiceExecutor`` is the non-local implementation.
GridExecutor = Callable[
    [Sequence[GridPoint], Optional[ResultCache]], "GridOutcome"
]


def run_grid_detailed(
    points: Sequence[GridPoint],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    verify_sample: bool = False,
    progress: Optional[Callable[[PointRun], None]] = None,
    executor: Optional[GridExecutor] = None,
) -> GridOutcome:
    """Run every point, in order, across ``jobs`` worker processes.

    Results are returned in ``points`` order no matter how many workers run
    or in which order they finish.  With a ``cache``, points whose
    fingerprint already has an entry are served from disk and **not**
    simulated; fresh results are stored back.  ``verify_sample=True``
    re-runs the first pooled point serially in the parent and raises
    :class:`SimulationError` if the pool produced a different result —
    a spot check of the bit-identical contract.

    An ``executor`` replaces the local pool entirely (``jobs`` and
    ``verify_sample`` then do not apply): the grid is handed to it whole
    and its :class:`GridOutcome` — same submission order, same cache
    semantics — is returned, after the ``progress`` callback has seen every
    run.  Pass ``repro.serve``'s ``ServiceExecutor`` to run the grid on a
    worker fleet instead of in-process.
    """
    if executor is not None:
        outcome = executor(points, cache)
        if progress is not None:
            for run in outcome.runs:
                progress(run)
        return outcome
    jobs = max(1, int(jobs))
    fingerprints = [
        cache.fingerprint(p.spec, p.label) if cache is not None
        else spec_fingerprint(p.spec, label=p.label)
        for p in points
    ]
    labels = [p.label or p.spec.htm.label for p in points]

    cached_results: List[Optional[RunResult]] = [None] * len(points)
    pending: List[int] = []
    for index, point in enumerate(points):
        hit = cache.get(point.spec, point.label) if cache is not None else None
        if hit is not None:
            cached_results[index] = hit
        else:
            pending.append(index)

    executed: Dict[int, Tuple[RunResult, float]] = {}
    pooled = jobs > 1 and len(pending) > 1
    if pooled:
        workers = min(jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(execute_point, [points[i] for i in pending]))
        executed = dict(zip(pending, outcomes))
    else:
        for index in pending:
            executed[index] = execute_point(points[index])

    if verify_sample and pooled:
        # Check the contract before anything is published to the cache, so a
        # broken pooled result can never poison later runs.
        sample = pending[0]
        serial_result, _ = execute_point(points[sample])
        pooled_result = executed[sample][0]
        if run_result_to_dict(serial_result) != run_result_to_dict(pooled_result):
            raise SimulationError(
                "parallel execution broke the bit-identical contract for "
                f"point {points[sample].spec.name!r} "
                f"[label={labels[sample]} spec={fingerprints[sample][:12]}]: "
                "a serial re-run produced a different RunResult"
            )

    if cache is not None:
        cache.count_simulations(len(pending))
        for index in pending:
            result, _ = executed[index]
            cache.put(points[index].spec, result, points[index].label)

    runs: List[PointRun] = []
    for index, point in enumerate(points):
        if cached_results[index] is not None:
            run = PointRun(
                key=point.key,
                label=labels[index],
                fingerprint=fingerprints[index],
                cached=True,
                elapsed_s=0.0,
                result=cached_results[index],
            )
        else:
            result, elapsed_s = executed[index]
            run = PointRun(
                key=point.key,
                label=labels[index],
                fingerprint=fingerprints[index],
                cached=False,
                elapsed_s=elapsed_s,
                result=result,
            )
        if progress is not None:
            progress(run)
        runs.append(run)
    return GridOutcome(
        runs=runs, simulated=len(pending), cache_hits=len(points) - len(pending)
    )


def run_grid(
    points: Sequence[GridPoint],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    verify_sample: bool = False,
    executor: Optional[GridExecutor] = None,
) -> List[RunResult]:
    """Like :func:`run_grid_detailed`, returning just the ordered results."""
    return run_grid_detailed(
        points,
        jobs=jobs,
        cache=cache,
        verify_sample=verify_sample,
        executor=executor,
    ).results


def run_keyed(
    points: Sequence[GridPoint],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    executor: Optional[GridExecutor] = None,
) -> Dict[Any, RunResult]:
    """Run a grid and index the results by each point's ``key``.

    Figure drivers build their grid once (attaching a tuple key per point),
    fan it out here, then assemble rows by key lookup — the same code path
    whether ``jobs`` is 1 or 16, and whether execution is in-process or on
    a ``repro serve`` fleet (``executor``).
    """
    outcome = run_grid_detailed(points, jobs=jobs, cache=cache, executor=executor)
    return outcome.by_key()
