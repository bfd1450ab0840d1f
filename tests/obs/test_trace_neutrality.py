"""Trace neutrality: attaching a tracer must not change the simulation.

The tracing subsystem's headline contract (docs/OBSERVABILITY.md): every
hook site is an ``is not None`` test plus an event append, so a traced run
and an untraced run of the same spec execute the exact same simulation —
identical metric dicts, byte-identical exported JSON.  The differential
below is the proof, and it extends to the process pool: ``trace_grid`` with
1 and 2 workers returns identical results *and* identical event streams.
Absolute pins on two streams guard the events themselves.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.harness.config import DEFAULT_SCALE
from repro.harness.metrics import run_result_to_dict
from repro.harness.parallel import GridPoint
from repro.harness.runner import run_experiment
from repro.obs.capture import trace_experiment, trace_grid
from repro.obs.cli import _build_points
from repro.obs.events import TX_ABORT, TX_BEGIN, TX_COMMIT, TX_READ, TX_WRITE


class TestTraceNeutrality:
    def test_traced_run_metrics_bit_identical_to_untraced(self, tiny_spec):
        plain = run_experiment(tiny_spec)
        traced = trace_experiment(tiny_spec)
        assert run_result_to_dict(traced.result) == run_result_to_dict(plain)
        assert traced.events, "tracer captured nothing — hooks are dead"

    def test_traced_run_neutral_under_contention(self, contended_spec):
        plain = run_experiment(contended_spec)
        traced = trace_experiment(contended_spec)
        assert plain.aborts > 0, "spec not contended enough to test"
        assert run_result_to_dict(traced.result) == run_result_to_dict(plain)

    def test_exported_json_byte_identical(self, tiny_spec):
        plain = run_experiment(tiny_spec)
        traced = trace_experiment(tiny_spec)
        a = json.dumps(run_result_to_dict(plain), sort_keys=True)
        b = json.dumps(run_result_to_dict(traced.result), sort_keys=True)
        assert a.encode("utf-8") == b.encode("utf-8")

    def test_ring_overflow_is_still_neutral(self, tiny_spec):
        """Dropping events must only lose observability, never change runs."""
        plain = run_experiment(tiny_spec)
        traced = trace_experiment(tiny_spec, capacity=16)
        assert traced.dropped > 0
        assert len(traced.events) == 16
        assert run_result_to_dict(traced.result) == run_result_to_dict(plain)


class TestTraceGridParallel:
    def test_results_and_events_identical_across_job_counts(
        self, tiny_spec, contended_spec
    ):
        points = [
            GridPoint(spec=tiny_spec),
            GridPoint(spec=contended_spec),
            GridPoint(spec=tiny_spec, label="again"),
        ]
        serial = trace_grid(points, jobs=1)
        pooled = trace_grid(points, jobs=2)
        assert [r.label for r in serial] == [r.label for r in pooled]
        for a, b in zip(serial, pooled):
            assert run_result_to_dict(a.result) == run_result_to_dict(b.result)
            assert a.events == b.events  # the stream survives pickling intact
            assert a.dropped == b.dropped

    def test_pooled_events_are_count_exact(self, tiny_spec, contended_spec):
        """Events recorded in a worker reach the parent: a tracer built in
        the parent and shipped into the pool would record into the
        worker's copy and come back empty."""
        points = [GridPoint(spec=tiny_spec), GridPoint(spec=contended_spec)]
        for run in trace_grid(points, jobs=2):
            kinds = [event.kind for event in run.events]
            assert run.dropped == 0
            assert kinds.count(TX_BEGIN) == run.result.begins > 0
            assert kinds.count(TX_COMMIT) == run.result.commits > 0
            assert kinds.count(TX_ABORT) == run.result.aborts


def projected_sha256(events) -> str:
    """SHA-256 of a stream as ``(kind, tx_id, thread_id, data)`` rows.

    Timestamps are left out: events that do not track simulated time take
    the stamp of whatever stamped event precedes them.  Per-line access
    events are left out so the pins predate them.
    """
    rows = [
        [event.kind, event.tx_id, event.thread_id, [list(p) for p in event.data]]
        for event in events
        if event.kind not in (TX_READ, TX_WRITE)
    ]
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


#: ``projected_sha256`` of ``python -m repro trace hashmap`` and of the first
#: fig7 quick point (``512_sig``), seed 2020, default scale.  ``llc.evict``
#: is emitted only for lines with a live directory entry (396 events on
#: hashmap, 4,396 on fig7).  The fig7 point takes the DRAM cache's
#: committed-image restore on abort 39 times.
STREAM_SHA256 = {
    "hashmap": "26468c5d585c15480787cad0bde6d43e71b38b08b5ff7f063bde2f69c91cafd3",
    "fig7": "d6b6d1f75c90ff38ccaa513b1c3fb53bf3c8824fc006eb7f5f27fb5609a6fb5a",
}


@pytest.mark.parametrize("target", sorted(STREAM_SHA256))
def test_event_stream_pinned(target):
    points = _build_points(target, DEFAULT_SCALE, 2020)
    (run,) = trace_grid(points[:1])
    assert run.dropped == 0
    assert projected_sha256(run.events) == STREAM_SHA256[target]
