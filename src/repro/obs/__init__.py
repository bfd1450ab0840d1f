"""Observability: transaction tracing, timelines, and abort forensics.

The simulator's counters say *how many* transactions aborted; this package
says *why each one did*.  Hook points in the engine, HTM, caches, memory
controller, and hardware logs emit typed :class:`~repro.obs.events.TraceEvent`
records into a bounded ring-buffer :class:`~repro.obs.tracer.Tracer`; from
the captured stream the package assembles per-transaction timelines, an
abort-forensics report (precise vs signature-alias vs capacity vs fallback,
with the conflicting address and both transaction ids), and exports to JSONL
or Chrome ``trace_event`` JSON (load in ``chrome://tracing`` / Perfetto).
The same stream, with its per-line ``tx.read`` / ``tx.write`` events,
folds into a replayable memory trace
(:meth:`repro.sim.tracefile.MemoryTrace.from_events`).

Tracing is strictly an observer: every hook site is a duck-typed ``tracer``
attribute that defaults to ``None`` and is only assigned by
:func:`~repro.obs.tracer.attach_tracer`, so an untraced run executes the
exact same simulation — the trace-neutrality differential test proves the
metrics are bit-identical either way.

Entry points::

    python -m repro trace fig7 --report          # trace a figure's grid
    python -m repro trace hashmap --out t.json   # trace one workload

    from repro.obs import Tracer, attach_tracer, trace_grid
"""

from .events import TraceEvent
from .tracer import Tracer, attach_tracer
from .timeline import TxTimeline, build_timelines
from .forensics import AbortRecord, ForensicsReport, analyze_events, format_report
from .capture import TracedRun, trace_experiment, trace_grid
from .export import chrome_trace, to_jsonl, write_chrome_trace, write_jsonl

__all__ = [
    "TraceEvent",
    "Tracer",
    "attach_tracer",
    "TxTimeline",
    "build_timelines",
    "AbortRecord",
    "ForensicsReport",
    "analyze_events",
    "format_report",
    "TracedRun",
    "trace_experiment",
    "trace_grid",
    "chrome_trace",
    "to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
]
