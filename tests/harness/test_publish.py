"""Per-point publication: the grid runner stores each point as it finishes.

``run_grid_detailed`` publishes every simulated point to the result cache
the moment that point completes (serial loop and process pool alike), so a
grid that dies part way through keeps the work it finished and a rerun
simulates only the rest.  ``verify_sample=True`` holds every pooled point
back until the serial re-check of the sample has passed.

These tests swap the simulator for an instant, deterministic stand-in that
logs each call (from any process) to a file, so they can assert exactly
which points ran, where, and what the cache held at that moment.  Pool
workers are forked, so they inherit the stand-in.
"""

from __future__ import annotations

import dataclasses
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import pytest

from repro.errors import SimulationError
from repro.harness import figures, parallel
from repro.harness.bench import SMOKE_SCALE
from repro.harness.cache import ResultCache
from repro.harness.config import ExperimentSpec, consolidated
from repro.harness.export import to_json
from repro.harness.metrics import RunResult, run_result_to_dict
from repro.harness.parallel import (
    GridPoint,
    run_grid,
    run_grid_detailed,
    run_keyed,
)
from repro.harness.sweep import SweepAxis, build_grid, with_seed
from repro.params import HTMConfig
from repro.workloads import WorkloadParams

SEEDS = (1, 2, 3, 4, 5)
#: How long a stand-in waits for a condition before giving up.
WAIT_S = 30.0


def base_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="publish",
        htm=HTMConfig(),
        benchmarks=consolidated(
            "hashmap", 2,
            WorkloadParams(threads=2, txs_per_thread=2,
                           value_bytes=16 << 10, keys=64, initial_fill=16),
        ),
        scale=1 / 16,
        cores=4,
    )


def grid() -> List[GridPoint]:
    return build_grid(base_spec(), [SweepAxis("seed", list(SEEDS), with_seed)])


def fake_result(spec: ExperimentSpec, label=None) -> RunResult:
    """What the stand-in simulator returns: a pure function of the spec."""
    seed = spec.seed
    return RunResult(
        label=label or spec.htm.label,
        elapsed_ns=1000.0 * seed + 0.25,
        committed_ops=10 * seed,
        commits=10 * seed,
        begins=10 * seed + seed,
        aborts=seed,
        aborts_by_reason={"conflict": seed},
        ops_by_process={0: 5 * seed, 1: 5 * seed},
    )


def entries(root: Path) -> List[Path]:
    """Published cache entries (never the ``*.tmp`` staging files)."""
    return sorted(root.glob("*/*.json"))


def wait_for(condition: Callable[[], bool], what: str) -> None:
    deadline = time.monotonic() + WAIT_S
    while not condition():
        if time.monotonic() > deadline:
            raise AssertionError(f"gave up waiting for {what}")
        time.sleep(0.005)


class Simulator:
    """An instant stand-in for ``run_experiment``.

    Every call appends ``<pid> <seed>`` to ``log``; ``before[seed]`` runs
    first for that seed (to stall, fail or inspect the cache), and
    ``skew_in_parent`` makes calls from the test process return a result
    that differs from the workers'.
    """

    def __init__(self, log: Path) -> None:
        self.log = log
        self.parent = os.getpid()
        self.before: Dict[int, Callable[[], None]] = {}
        self.skew_in_parent = False

    def __call__(self, spec: ExperimentSpec, label=None) -> RunResult:
        with self.log.open("a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {spec.seed}\n")
        hook = self.before.get(spec.seed)
        if hook is not None:
            hook()
        result = fake_result(spec, label)
        if self.skew_in_parent and os.getpid() == self.parent:
            result = dataclasses.replace(result, commits=result.commits + 1)
        return result

    def calls(self) -> List[Tuple[int, int]]:
        if not self.log.exists():
            return []
        return [
            tuple(int(field) for field in line.split())
            for line in self.log.read_text(encoding="utf-8").splitlines()
        ]

    def seeds(self) -> List[int]:
        return [seed for _, seed in self.calls()]

    def parent_seeds(self) -> List[int]:
        return [seed for pid, seed in self.calls() if pid == self.parent]


@pytest.fixture
def sim(tmp_path, monkeypatch) -> Simulator:
    simulator = Simulator(tmp_path / "calls.log")
    monkeypatch.setattr(parallel, "run_experiment", simulator)
    return simulator


@pytest.fixture
def root(tmp_path) -> Path:
    return tmp_path / "cache"


def expected(points: List[GridPoint]) -> List[dict]:
    return [run_result_to_dict(fake_result(p.spec, p.label)) for p in points]


def warm(root: Path, points: List[GridPoint], indices) -> None:
    cache = ResultCache(root)
    for index in indices:
        point = points[index]
        cache.put(point.spec, fake_result(point.spec, point.label), point.label)


class TestSerialPublication:
    def test_each_point_is_in_the_cache_before_the_next_starts(
        self, sim, root
    ):
        seen: List[int] = []
        for seed in SEEDS:
            sim.before[seed] = lambda: seen.append(len(entries(root)))
        points = grid()
        run_grid(points, jobs=1, cache=ResultCache(root))
        assert seen == list(range(len(points)))
        assert len(entries(root)) == len(points)

    @pytest.mark.parametrize("fail_at", range(len(SEEDS)))
    def test_a_failing_point_keeps_the_points_before_it(
        self, sim, root, fail_at
    ):
        points = grid()

        def fail():
            raise RuntimeError("simulated point failure")

        sim.before[SEEDS[fail_at]] = fail
        cache = ResultCache(root)
        with pytest.raises(RuntimeError, match="simulated point failure"):
            run_grid(points, jobs=1, cache=cache)
        assert len(entries(root)) == fail_at
        assert cache.stats.stores == cache.stats.simulations == fail_at
        reader = ResultCache(root)
        for index, point in enumerate(points):
            hit = reader.get(point.spec, point.label)
            if index < fail_at:
                assert run_result_to_dict(hit) == expected(points)[index]
            else:
                assert hit is None

    @pytest.mark.parametrize("fail_at", [0, 2, 4])
    def test_rerun_after_a_failure_simulates_only_the_rest(
        self, sim, root, fail_at
    ):
        points = grid()

        def fail():
            raise RuntimeError("simulated point failure")

        sim.before[SEEDS[fail_at]] = fail
        with pytest.raises(RuntimeError):
            run_grid(points, jobs=1, cache=ResultCache(root))
        del sim.before[SEEDS[fail_at]]
        sim.log.unlink()

        cache = ResultCache(root)
        results = run_grid(points, jobs=1, cache=cache)
        assert sim.seeds() == list(SEEDS[fail_at:])
        assert cache.stats.simulations == len(points) - fail_at
        assert cache.stats.hits == fail_at
        assert [run_result_to_dict(r) for r in results] == expected(points)


class TestPoolPublication:
    def test_a_finished_point_is_published_while_a_slow_one_runs(
        self, sim, root
    ):
        """Point 0 only finishes once point 1 is in the cache, so the run
        completes only if the pool publishes in completion order."""
        points = grid()
        cache = ResultCache(root)
        second = cache.path_for(cache.fingerprint(points[1].spec, points[1].label))
        sim.before[SEEDS[0]] = lambda: wait_for(second.exists, "point 1")
        outcome = run_grid_detailed(points, jobs=2, cache=cache)
        assert [run_result_to_dict(r) for r in outcome.results] == expected(
            points
        )
        assert len(entries(root)) == len(points)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_results_come_back_in_point_order(self, sim, root, jobs):
        """Later points finish first; the results still line up."""
        points = grid()
        for rank, seed in enumerate(SEEDS):
            delay = 0.04 * (len(SEEDS) - rank)
            sim.before[seed] = lambda delay=delay: time.sleep(delay)
        outcome = run_grid_detailed(points, jobs=jobs, cache=ResultCache(root))
        assert [run.key for run in outcome.runs] == [p.key for p in points]
        assert [run_result_to_dict(r) for r in outcome.results] == expected(
            points
        )

    def test_each_point_is_published_exactly_once(self, sim, root):
        points = grid()
        cache = ResultCache(root)
        run_grid(points, jobs=2, cache=cache)
        assert cache.stats.stores == cache.stats.simulations == len(points)
        assert len(entries(root)) == len(points)
        assert sorted(sim.seeds()) == list(SEEDS)
        assert sim.parent_seeds() == []

    def test_a_failing_pooled_point_is_never_published(self, sim, root):
        points = grid()

        def fail():
            raise RuntimeError("simulated point failure")

        sim.before[SEEDS[2]] = fail
        cache = ResultCache(root)
        with pytest.raises(RuntimeError, match="simulated point failure"):
            run_grid(points, jobs=2, cache=cache)
        failed = cache.path_for(cache.fingerprint(points[2].spec, points[2].label))
        assert not failed.exists()
        assert len(entries(root)) == cache.stats.stores
        reader = ResultCache(root)
        for index, point in enumerate(points):
            hit = reader.get(point.spec, point.label)
            if hit is not None:
                assert run_result_to_dict(hit) == expected(points)[index]
        assert reader.stats.corrupt == 0


class TestPartialCache:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "cached",
        [(), (0,), (4,), (0, 2, 4), (1, 2, 3, 4), (0, 1, 2, 3, 4)],
        ids=["cold", "first", "last", "alternate", "all-but-first", "warm"],
    )
    def test_only_the_missing_points_are_simulated(
        self, sim, root, jobs, cached
    ):
        points = grid()
        warm(root, points, cached)
        cache = ResultCache(root)
        outcome = run_grid_detailed(points, jobs=jobs, cache=cache)
        missing = [i for i in range(len(points)) if i not in cached]
        assert sorted(sim.seeds()) == [SEEDS[i] for i in missing]
        assert outcome.simulated == cache.stats.simulations == len(missing)
        assert outcome.cache_hits == cache.stats.hits == len(cached)
        assert [run.cached for run in outcome.runs] == [
            i in cached for i in range(len(points))
        ]
        assert [run_result_to_dict(r) for r in outcome.results] == expected(
            points
        )
        assert len(entries(root)) == len(points)


class TestVerifySample:
    def test_serial_run_has_nothing_to_recheck(self, sim, root):
        points = grid()
        run_grid(points, jobs=1, cache=ResultCache(root), verify_sample=True)
        assert sim.seeds() == list(SEEDS)

    @pytest.mark.parametrize("cached", [(), (0,), (0, 1)])
    def test_the_first_pooled_point_is_rechecked_once(
        self, sim, root, cached
    ):
        points = grid()
        warm(root, points, cached)
        run_grid(points, jobs=2, cache=ResultCache(root), verify_sample=True)
        assert sim.parent_seeds() == [SEEDS[len(cached)]]

    def test_nothing_is_published_before_the_recheck(self, sim, root):
        """The sample finishes last; the other points wait unpublished
        until the serial re-check, then all of them are stored."""
        points = grid()
        parent = os.getpid()
        seen: List[int] = []

        def sample():
            if os.getpid() == parent:
                seen.append(len(entries(root)))
            else:
                time.sleep(0.5)

        sim.before[SEEDS[0]] = sample
        cache = ResultCache(root)
        run_grid(points, jobs=2, cache=cache, verify_sample=True)
        assert seen == [0]
        assert cache.stats.stores == len(points)
        assert len(entries(root)) == len(points)

    def test_mismatch_on_a_sample_that_finishes_first(self, sim, root):
        points = grid()
        parent = os.getpid()
        for seed in SEEDS[1:]:
            sim.before[seed] = (
                lambda: None if os.getpid() == parent else time.sleep(0.3)
            )
        sim.skew_in_parent = True
        cache = ResultCache(root)
        with pytest.raises(SimulationError, match="bit-identical contract"):
            run_grid(points, jobs=2, cache=cache, verify_sample=True)
        assert entries(root) == []
        assert cache.stats.stores == cache.stats.simulations == 0

    def test_a_warm_grid_is_never_rechecked(self, sim, root):
        points = grid()
        warm(root, points, range(len(points)))
        sim.skew_in_parent = True
        outcome = run_grid_detailed(
            points, jobs=2, cache=ResultCache(root), verify_sample=True
        )
        assert outcome.simulated == 0
        assert sim.calls() == []

    def test_a_single_pending_point_runs_serially(self, sim, root):
        """One missing point needs no pool, so there is no pooled result
        to re-check."""
        points = grid()
        warm(root, points, range(1, len(points)))
        sim.skew_in_parent = True
        cache = ResultCache(root)
        run_grid(points, jobs=2, cache=cache, verify_sample=True)
        assert sim.parent_seeds() == [SEEDS[0]]
        assert cache.stats.stores == 1


class TestOutcome:
    def test_progress_sees_every_point_in_order(self, sim, root):
        points = grid()
        warm(root, points, (1, 3))
        seen = []
        run_grid_detailed(
            points, jobs=2, cache=ResultCache(root), progress=seen.append
        )
        assert [run.key for run in seen] == [p.key for p in points]
        assert [run.cached for run in seen] == [
            False, True, False, True, False
        ]
        assert all(run.elapsed_s == 0.0 for run in seen if run.cached)

    def test_fingerprints_name_the_published_entries(self, sim, root):
        points = grid()
        cache = ResultCache(root)
        outcome = run_grid_detailed(points, jobs=1, cache=cache)
        assert entries(root) == sorted(
            cache.path_for(run.fingerprint) for run in outcome.runs
        )

    def test_an_empty_grid_runs_nothing(self, sim, root):
        outcome = run_grid_detailed([], jobs=4, cache=ResultCache(root))
        assert outcome.runs == []
        assert outcome.simulated == outcome.cache_hits == 0
        assert not root.exists()
        assert sim.calls() == []

    def test_without_a_cache_nothing_is_written(
        self, sim, tmp_path, monkeypatch
    ):
        workdir = tmp_path / "work"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        run_grid(grid(), jobs=2)
        assert list(workdir.iterdir()) == []

    def test_labels_are_part_of_the_key(self, sim, root):
        spec = base_spec()
        points = [GridPoint(spec, label="a"), GridPoint(spec, label="b")]
        cache = ResultCache(root)
        results = run_grid(points, jobs=1, cache=cache)
        assert [r.label for r in results] == ["a", "b"]
        assert len(entries(root)) == 2
        assert cache.stats.simulations == 2

    def test_run_keyed_resumes_from_the_cache(self, sim, root):
        points = grid()
        warm(root, points, (0, 1))
        cache = ResultCache(root)
        by_key = run_keyed(points, jobs=2, cache=cache)
        assert list(by_key) == [p.key for p in points]
        assert cache.stats.simulations == len(points) - 2
        again = ResultCache(root)
        run_keyed(points, jobs=2, cache=again)
        assert again.stats.simulations == 0

    def test_a_torn_staging_file_is_not_an_entry(self, sim, root):
        """A kill mid-``put`` leaves a staging file; the point is simply
        missing, and the rerun simulates and publishes it."""
        points = grid()
        cache = ResultCache(root)
        path = cache.path_for(cache.fingerprint(points[0].spec, points[0].label))
        path.parent.mkdir(parents=True)
        staging = path.with_name(f"{path.name}.4242.0.tmp")
        staging.write_text('{"result": {"label"', encoding="utf-8")
        run_grid(points, jobs=1, cache=cache)
        assert sim.seeds() == list(SEEDS)
        assert cache.stats.corrupt == 0
        assert run_result_to_dict(
            ResultCache(root).get(points[0].spec, points[0].label)
        ) == expected(points)[0]
        assert staging.exists()

    def test_a_corrupt_entry_is_resimulated_and_repaired(self, sim, root):
        points = grid()
        warm(root, points, range(len(points)))
        cache = ResultCache(root)
        path = cache.path_for(cache.fingerprint(points[3].spec, points[3].label))
        path.write_text("{ torn", encoding="utf-8")
        run_grid(points, jobs=1, cache=cache)
        assert sim.seeds() == [SEEDS[3]]
        assert cache.stats.corrupt == 1
        again = ResultCache(root)
        assert [
            run_result_to_dict(r) for r in run_grid(points, cache=again)
        ] == expected(points)
        assert again.stats.simulations == again.stats.corrupt == 0


def as_list(figure) -> list:
    """A driver's output as a figure list (fig9 returns a pair)."""
    return list(figure) if isinstance(figure, tuple) else [figure]


class TestFigureDrivers:
    @pytest.mark.parametrize("name", sorted(figures.FIGURE_GRIDS))
    def test_driver_resumes_from_a_partial_cache(self, sim, root, name):
        """Every figure driver hands its cache to the grid runner: with
        half its grid cached it simulates only the other half, and the
        figure matches an uncached run."""
        points = figures.FIGURE_GRIDS[name](True, SMOKE_SCALE, 3)
        half = len(points) // 2
        warm(root, points, range(half))
        driver = figures.ALL_FIGURES[name]
        cache = ResultCache(root)
        resumed = driver(quick=True, scale=SMOKE_SCALE, seed=3, cache=cache)
        assert cache.stats.simulations == len(points) - half
        assert cache.stats.hits == half
        assert len(entries(root)) == len(points)
        direct = driver(quick=True, scale=SMOKE_SCALE, seed=3)
        assert to_json(as_list(resumed)) == to_json(as_list(direct))
