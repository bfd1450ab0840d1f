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
simulates changed points.  Each simulated point is published to the cache
(one atomic rename) as soon as it finishes, so a run that is killed part
way through resumes where it stopped: the rerun simulates only the points
that never reached the cache.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
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


def execute_point(
    spec: ExperimentSpec, label: Optional[str]
) -> Tuple[RunResult, float]:
    """One grid point's spec and label to one timed result.

    The serial loop and the process pool both run this (it must stay a
    module-level function: it is pickled to the workers).  It takes the
    point's fields rather than the :class:`GridPoint`, so the point's
    ``key`` is never pickled.
    """
    stopwatch = Stopwatch()
    result = run_experiment(spec, label)
    return result, stopwatch.elapsed_s


def _execute_pending(
    points: Sequence[GridPoint],
    pending: List[int],
    workers: int,
    on_done: Callable[[int, Tuple[RunResult, float]], None],
) -> None:
    """Simulate ``points[i]`` for every ``i`` in ``pending``, calling
    ``on_done(i, (result, elapsed_s))`` as each one finishes.

    With more than one worker the points run on a process pool and
    ``on_done`` sees them in completion order.  If a point or ``on_done``
    raises, the points that have not started yet are cancelled.
    """
    if workers <= 1:
        for index in pending:
            point = points[index]
            on_done(index, execute_point(point.spec, point.label))
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {
            pool.submit(execute_point, points[i].spec, points[i].label): i
            for i in pending
        }
        try:
            for future in as_completed(futures):
                on_done(futures[future], future.result())
        finally:
            for future in futures:
                future.cancel()


def run_grid_detailed(
    points: Sequence[GridPoint],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    verify_sample: bool = False,
    progress: Optional[Callable[[PointRun], None]] = None,
) -> GridOutcome:
    """Run every point, in order, across ``jobs`` worker processes.

    Results are returned in ``points`` order no matter how many workers run
    or in which order they finish.  With a ``cache``, points whose
    fingerprint already has an entry are served from disk and **not**
    simulated; every fresh result is stored back as soon as its point
    finishes.  ``verify_sample=True`` re-runs the first pooled point
    serially in the parent and raises :class:`SimulationError` if the pool
    produced a different result — a spot check of the bit-identical
    contract.  Nothing is stored before that check has passed.
    """
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

    workers = min(jobs, len(pending))
    executed: Dict[int, Tuple[RunResult, float]] = {}
    # Points that finished before the sample was verified wait here, so a
    # broken pooled result can never poison later runs.
    held: Optional[List[int]] = [] if verify_sample and workers > 1 else None

    def publish(index: int) -> None:
        if cache is not None:
            cache.put(points[index].spec, executed[index][0], points[index].label)
            cache.count_simulations(1)

    def on_done(index: int, outcome: Tuple[RunResult, float]) -> None:
        nonlocal held
        executed[index] = outcome
        if held is None:
            publish(index)
            return
        held.append(index)
        if index != pending[0]:
            return
        serial_result, _ = execute_point(points[index].spec, points[index].label)
        if run_result_to_dict(serial_result) != run_result_to_dict(outcome[0]):
            raise SimulationError(
                "parallel execution broke the bit-identical contract for "
                f"point {points[index].spec.name!r} "
                f"[label={labels[index]} spec={fingerprints[index][:12]}]: "
                "a serial re-run produced a different RunResult"
            )
        for verified in held:
            publish(verified)
        held = None

    _execute_pending(points, pending, workers, on_done)

    runs: List[PointRun] = []
    for index, point in enumerate(points):
        cached = cached_results[index]
        result, elapsed_s = (cached, 0.0) if cached is not None else executed[index]
        run = PointRun(
            key=point.key,
            label=labels[index],
            fingerprint=fingerprints[index],
            cached=cached is not None,
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
) -> List[RunResult]:
    """Like :func:`run_grid_detailed`, returning just the ordered results."""
    return run_grid_detailed(
        points, jobs=jobs, cache=cache, verify_sample=verify_sample
    ).results


def run_keyed(
    points: Sequence[GridPoint],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> Dict[Any, RunResult]:
    """Run a grid and index the results by each point's ``key``.

    Figure drivers build their grid once (attaching a tuple key per point),
    fan it out here, then assemble rows by key lookup — the same code path
    whether ``jobs`` is 1 or 16.
    """
    return run_grid_detailed(points, jobs=jobs, cache=cache).by_key()
