"""Differential tier: parallel execution must be bit-identical to serial.

The harness's headline contract (docs/HARNESS.md): because every simulation
is a pure function of its spec — all randomness flows through seeded
``RngStreams`` — fanning a grid over N worker processes changes wall time
and nothing else.  These tests run the same small grid serially, with 2
workers, and with 4 workers, across two seeds, and require *exact* equality:
identical metric dicts per point and byte-identical exported JSON.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time

import pytest

from repro.errors import SimulationError
from repro.harness import parallel
from repro.harness.cache import ResultCache
from repro.harness.config import ExperimentSpec, consolidated
from repro.harness.export import to_json
from repro.harness.metrics import run_result_to_dict
from repro.harness.parallel import run_grid, run_grid_detailed
from repro.harness.sweep import (
    SweepAxis,
    build_grid,
    run_sweep,
    with_design,
    with_seed,
)
from repro.params import HTMConfig
from repro.workloads import WorkloadParams

SEEDS = (2020, 7)
JOB_COUNTS = (1, 2, 4)


def base_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="differential",
        htm=HTMConfig(),
        benchmarks=consolidated(
            "hashmap", 2,
            WorkloadParams(threads=2, txs_per_thread=2,
                           value_bytes=16 << 10, keys=64, initial_fill=16),
        ),
        scale=1 / 16,
        cores=4,
    )


def small_axes():
    return [
        SweepAxis("design", ["llc_bounded", "uhtm"], with_design),
        SweepAxis("seed", list(SEEDS), with_seed),
    ]


class TestBitIdenticalGrid:
    def test_metric_dicts_identical_across_job_counts(self):
        points = build_grid(base_spec(), small_axes())
        per_jobs = {
            jobs: [run_result_to_dict(r) for r in run_grid(points, jobs=jobs)]
            for jobs in JOB_COUNTS
        }
        assert per_jobs[1] == per_jobs[2] == per_jobs[4]
        # The grid covered both seeds (not a degenerate comparison).
        seeds = {point.key[1] for point in points}
        assert seeds == set(SEEDS)

    def test_exported_json_byte_identical_across_job_counts(self):
        exports = {
            jobs: to_json(
                [
                    run_sweep(
                        base_spec(),
                        small_axes(),
                        metrics={
                            "tput": lambda run: run.throughput,
                            "aborts": lambda run: run.aborts,
                            "elapsed_ns": lambda run: run.elapsed_ns,
                        },
                        jobs=jobs,
                    )
                ]
            )
            for jobs in JOB_COUNTS
        }
        assert exports[1] == exports[2] == exports[4]
        assert exports[1].encode("utf-8") == exports[4].encode("utf-8")

    def test_key_never_reaches_the_workers(self):
        """A point's ``key`` stays in the parent: one that cannot be pickled
        (it holds a lock) runs on the pool with the serial results."""
        points = [
            dataclasses.replace(point, key=(point.key, threading.Lock()))
            for point in build_grid(base_spec(), small_axes())[:2]
        ]
        serial = [run_result_to_dict(r) for r in run_grid(points, jobs=1)]
        pooled = [run_result_to_dict(r) for r in run_grid(points, jobs=2)]
        assert pooled == serial

    def test_verify_sample_accepts_honest_pool(self):
        points = build_grid(base_spec(), small_axes())
        outcome = run_grid_detailed(points, jobs=2, verify_sample=True)
        assert outcome.simulated == len(points)

    def test_verify_sample_mismatch_publishes_nothing(
        self, tmp_path, monkeypatch
    ):
        """A serial re-run that disagrees with the pool raises, and no
        point reaches the cache, not even those that finished first."""
        points = build_grid(base_spec(), small_axes())
        sample = points[0].spec
        parent = os.getpid()
        simulate = parallel.run_experiment

        def skewed(spec, label=None):
            result = simulate(spec, label)
            if os.getpid() == parent:  # the serial re-check disagrees
                return dataclasses.replace(result, commits=result.commits + 1)
            if spec == sample:  # the other points finish first in the pool
                time.sleep(1.0)
            return result

        monkeypatch.setattr(parallel, "run_experiment", skewed)
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(SimulationError, match="bit-identical contract"):
            run_grid_detailed(points, jobs=2, cache=cache, verify_sample=True)
        assert list((tmp_path / "cache").glob("*/*")) == []
        assert cache.stats.stores == 0

    def test_point_order_is_submission_order(self):
        """Results line up with points regardless of completion order."""
        points = build_grid(base_spec(), small_axes())
        results = run_grid(points, jobs=4)
        for point, result in zip(points, results):
            design = point.key[0]
            expected_label = "LLC-Bounded" if design == "llc_bounded" else "1k_opt"
            assert result.label == expected_label


class TestWarmCacheRerun:
    def test_second_run_simulates_nothing_and_matches(self, tmp_path):
        points = build_grid(base_spec(), small_axes())
        cold_cache = ResultCache(tmp_path / "cache")
        cold = run_grid_detailed(points, jobs=2, cache=cold_cache)
        assert cold.simulated == len(points)
        assert cold_cache.stats.simulations == len(points)

        warm_cache = ResultCache(tmp_path / "cache")
        warm = run_grid_detailed(points, jobs=2, cache=warm_cache)
        assert warm.simulated == 0
        assert warm.cache_hits == len(points)
        assert warm_cache.stats.simulations == 0
        assert warm_cache.stats.misses == 0
        assert [run_result_to_dict(r) for r in warm.results] == [
            run_result_to_dict(r) for r in cold.results
        ]

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_cache_is_transparent_to_results(self, tmp_path, jobs):
        points = build_grid(base_spec(), small_axes())
        uncached = run_grid(points, jobs=jobs)
        cached = run_grid(
            points, jobs=jobs, cache=ResultCache(tmp_path / "c")
        )
        assert [run_result_to_dict(r) for r in uncached] == [
            run_result_to_dict(r) for r in cached
        ]
