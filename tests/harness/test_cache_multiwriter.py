"""Multi-writer safety of ``ResultCache.put``: racing processes on the
same fingerprint must land exactly one valid artifact.

Two runs sharing one cache directory resolve duplicated execution of a
point to concurrent ``put`` calls for the same content — which must never
tear the artifact or leave staging droppings behind.
"""

from __future__ import annotations

import builtins
import dataclasses
import json
import multiprocessing
from pathlib import Path

import pytest

from repro.harness.cache import ResultCache
from repro.harness.config import ExperimentSpec, consolidated
from repro.harness.metrics import RunResult
from repro.params import HTMConfig
from repro.workloads import WorkloadParams

ROUNDS = 5
WRITERS = 4


def _spec(seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        name="race-test",
        htm=HTMConfig(),
        benchmarks=consolidated(
            "hashmap", 2,
            WorkloadParams(threads=2, txs_per_thread=2,
                           value_bytes=16 << 10, keys=64, initial_fill=16),
        ),
        scale=1 / 64,
        cores=4,
        seed=seed,
    )


def _result() -> RunResult:
    return RunResult(
        label="1k_opt",
        elapsed_ns=1.0,
        committed_ops=8,
        commits=8,
        begins=11,
        aborts=3,
        aborts_by_reason={"capacity": 3},
        overflows=4,
        sig_checks=100,
        verified=True,
        ops_by_process={0: 4, 1: 4},
    )


def _writer(root, seed, barrier):
    """Module-level so it forks/spawns cleanly from the pool."""
    cache = ResultCache(root)
    spec = _spec(seed)
    result = _result()
    barrier.wait()  # line every writer up on the same instant
    cache.put(spec, result)


class TestMultiWriterPut:
    def test_racing_writers_land_one_valid_artifact(self, tmp_path):
        ctx = multiprocessing.get_context()
        for round_index in range(ROUNDS):
            seed = 9000 + round_index
            barrier = ctx.Barrier(WRITERS)
            procs = [
                ctx.Process(
                    target=_writer, args=(str(tmp_path), seed, barrier)
                )
                for _ in range(WRITERS)
            ]
            for proc in procs:
                proc.start()
            for proc in procs:
                proc.join(timeout=60)
                assert proc.exitcode == 0

            cache = ResultCache(tmp_path)
            fingerprint = cache.fingerprint(_spec(seed), None)
            path = cache.path_for(fingerprint)
            assert path.is_file()
            # The artifact parses — no torn or interleaved writes.
            json.loads(path.read_text(encoding="utf-8"))
            assert cache.get(_spec(seed)) == _result()

        # No staging droppings anywhere in the cache tree.
        leftovers = [p for p in tmp_path.rglob("*.tmp")]
        assert leftovers == []

    def test_unique_tmp_names_per_writer(self, tmp_path):
        """Two put() calls in one process stage under distinct tmp names
        (the pid alone is not enough within a single process)."""
        from repro.harness import cache as cache_module

        seen = set()
        original_replace = cache_module.Path.replace
        cache = ResultCache(tmp_path)

        class Spy:
            def __enter__(self):
                def spy(path_self, target):
                    if path_self.suffix == ".tmp":
                        seen.add(path_self.name)
                    return original_replace(path_self, target)

                cache_module.Path.replace = spy
                return self

            def __exit__(self, *exc):
                cache_module.Path.replace = original_replace

        with Spy():
            cache.put(_spec(1), _result())
            cache.put(dataclasses.replace(_spec(1), seed=2), _result())
        assert len(seen) == 2


class WriterKilled(Exception):
    """Stands in for the process dying part way through a write."""


def _torn(open_fn):
    """Wrap an ``open`` so that a file opened for writing takes half of its
    first write, then the writer "dies"."""

    def torn_open(file, mode="r", *args, **kwargs):
        handle = open_fn(file, mode, *args, **kwargs)
        if not set(mode) & set("wax"):
            return handle
        write = handle.write

        def write_half(data):
            write(data[: len(data) // 2])
            handle.close()
            raise WriterKilled(str(file))

        handle.write = write_half
        return handle

    return torn_open


def test_a_put_killed_mid_write_publishes_nothing(tmp_path):
    """A writer that dies mid-``put`` leaves no entry for readers to find:
    the point is a clean miss (not a corrupt hit) and is simply simulated
    again.  Writing the entry in place, or renaming before the content is
    written, fails here whichever ``open`` the write goes through."""
    cache = ResultCache(tmp_path)
    spec = _spec(7)
    path = cache.path_for(cache.fingerprint(spec))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Path, "open", _torn(Path.open))
        patch.setattr(builtins, "open", _torn(builtins.open))
        with pytest.raises(WriterKilled):
            cache.put(spec, _result())
    assert not path.exists()
    fresh = ResultCache(tmp_path)
    assert fresh.get(spec) is None
    assert (fresh.stats.misses, fresh.stats.corrupt) == (1, 0)
    # Once the writer survives, the same point publishes normally.
    fresh.put(spec, _result())
    assert fresh.get(spec) == _result()
