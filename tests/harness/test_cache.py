"""Tests for the on-disk result cache and its content-hash keying."""

from __future__ import annotations

import dataclasses
import json

from repro.harness.cache import CACHE_VERSION, ResultCache, spec_fingerprint
from repro.harness.config import ExperimentSpec, consolidated
from repro.harness.metrics import (
    RunResult,
    run_result_from_dict,
    run_result_to_dict,
)
from repro.harness.sweep import with_signature_bits, with_value_bytes
from repro.params import HTMConfig
from repro.workloads import WorkloadParams


def small_spec(**changes) -> ExperimentSpec:
    spec = ExperimentSpec(
        name="cache-test",
        htm=HTMConfig(),
        benchmarks=consolidated(
            "hashmap", 2,
            WorkloadParams(threads=2, txs_per_thread=2,
                           value_bytes=16 << 10, keys=64, initial_fill=16),
        ),
        scale=1 / 16,
        cores=4,
    )
    return dataclasses.replace(spec, **changes) if changes else spec


def sample_result(label: str = "1k_opt") -> RunResult:
    return RunResult(
        label=label,
        elapsed_ns=123456.75,
        committed_ops=8,
        commits=8,
        begins=11,
        aborts=3,
        aborts_by_reason={"false_positive": 2, "capacity": 1},
        overflows=4,
        sig_checks=100,
        verified=True,
        ops_by_process={0: 4, 1: 4},
    )


class TestFingerprint:
    def test_stable_and_hex(self):
        first = spec_fingerprint(small_spec())
        second = spec_fingerprint(small_spec())
        assert first == second
        assert len(first) == 64
        int(first, 16)  # valid hex

    def test_seed_changes_key(self):
        assert spec_fingerprint(small_spec()) != spec_fingerprint(
            small_spec(seed=small_spec().seed + 1)
        )

    def test_sig_bits_change_key(self):
        assert spec_fingerprint(small_spec()) != spec_fingerprint(
            with_signature_bits(small_spec(), 512)
        )

    def test_workload_params_change_key(self):
        assert spec_fingerprint(small_spec()) != spec_fingerprint(
            with_value_bytes(small_spec(), 32 << 10)
        )

    def test_label_changes_key(self):
        assert spec_fingerprint(small_spec(), label="a") != spec_fingerprint(
            small_spec(), label="b"
        )

    def test_version_changes_key(self):
        assert spec_fingerprint(small_spec(), version=CACHE_VERSION) != (
            spec_fingerprint(small_spec(), version=CACHE_VERSION + 1)
        )


class TestResultRoundTrip:
    def test_to_from_dict_exact(self):
        result = sample_result()
        rebuilt = run_result_from_dict(run_result_to_dict(result))
        assert rebuilt == result
        # int keys survive the stringly JSON trip
        assert rebuilt.ops_by_process == {0: 4, 1: 4}

    def test_json_trip_preserves_floats_exactly(self):
        result = sample_result()
        payload = json.loads(json.dumps(run_result_to_dict(result)))
        assert run_result_from_dict(payload).elapsed_ns == result.elapsed_ns


class TestResultCache:
    def test_hit_on_identical_spec(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(small_spec(), sample_result())
        hit = cache.get(small_spec())
        assert hit == sample_result()
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_miss_on_changed_fields(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(small_spec(), sample_result())
        assert cache.get(small_spec(seed=99)) is None
        assert cache.get(with_signature_bits(small_spec(), 512)) is None
        assert cache.get(with_value_bytes(small_spec(), 32 << 10)) is None
        assert cache.stats.misses == 3

    def test_version_stamp_invalidates(self, tmp_path):
        old = ResultCache(tmp_path, version=1)
        old.put(small_spec(), sample_result())
        new = ResultCache(tmp_path, version=2)
        assert new.get(small_spec()) is None
        assert new.stats.misses == 1
        # The old entry is untouched; rolling back still hits.
        assert ResultCache(tmp_path, version=1).get(small_spec()) is not None

    def test_corrupted_entry_falls_back_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(small_spec(), sample_result())
        path.write_text("{ not json", encoding="utf-8")
        assert cache.get(small_spec()) is None
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1
        # Recompute-and-store repairs the entry.
        cache.put(small_spec(), sample_result())
        assert cache.get(small_spec()) == sample_result()

    def test_schema_drifted_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(small_spec(), sample_result())
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["result"]["no_such_metric"] = 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cache.get(small_spec()) is None
        assert cache.stats.corrupt == 1

    def test_layout_fans_out_by_prefix(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(small_spec(), sample_result())
        fingerprint = cache.fingerprint(small_spec())
        assert path == tmp_path / fingerprint[:2] / f"{fingerprint}.json"
        assert path.is_file()

    def test_fingerprint_pinned_across_the_engine_field_removal(self):
        """Existing caches and serve spools stay valid without a version bump.

        ``ExperimentSpec`` used to carry an ``engine`` field that the
        fingerprint dropped before hashing.  This literal is the fingerprint
        of the first fig2 smoke point as computed while that field existed;
        removing the field must not move it.
        """
        from repro.harness.bench import SMOKE_SCALE
        from repro.harness.figures import FIGURE_GRIDS

        point = FIGURE_GRIDS["fig2"](quick=True, scale=SMOKE_SCALE, seed=2020)[0]
        assert point.key == ("hashmap", "LLC-Bounded")
        assert spec_fingerprint(point.spec) == (
            "ba280302ce761d8c11d043e1402ca7b4ce363909648292f6f64383ba606a955a"
        )
