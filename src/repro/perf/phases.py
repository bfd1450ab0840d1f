"""Manual phase timers over the simulator's hot entry points.

The profiler's function-level view is precise but scattered; performance
discussions about the simulator happen in terms of five *phases*:

* ``access`` — the cache hierarchy servicing loads and stores,
* ``signature`` — Bloom-signature probes for off-chip conflict checks,
* ``coherence`` — directory lookups and transactional bookkeeping,
* ``commit`` — the commit path (log sealing, write-set publication),
* ``stats`` — counter and histogram bookkeeping.

Block operations run the same per-line walk as word operations, so every
line a block touches lands in ``access``.

:class:`PhaseTimers` patches the phase entry points at *class* level
(``StatsRegistry`` is slotted, so instances cannot be patched, and a class
patch also catches bound methods hoisted by systems built after
:meth:`attach`).  Attach before building any :class:`~repro.runtime.system.
System`, run, read :meth:`report`, then :meth:`detach`.

Time is attributed *exclusively*: a ``stats.incr`` issued from inside
``commit`` counts toward ``stats``, not ``commit``, so the phase totals
partition instrumented time and sum to less than the run's wall clock
(the remainder is workload logic, the engine loop, and the timers' own
overhead).  Instrumentation costs two clock reads per call on paths taken
millions of times per run — expect an instrumented run to be noticeably
slower; the *shares* are what the report is for.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Tuple

#: Phase names, in the order reports print them.
PHASES = ("access", "signature", "coherence", "commit", "stats")


class PhaseTimers:
    """Exclusive wall-time accounting per simulator phase."""

    def __init__(self) -> None:
        self.exclusive_s: Dict[str, float] = {p: 0.0 for p in PHASES}
        self.calls: Dict[str, int] = {p: 0 for p in PHASES}
        self._patched: List[Tuple[Any, str, str, Any]] = []
        # One frame per live instrumented call: [child_seconds, started_at].
        self._stack: List[List[float]] = []

    # -- patching ----------------------------------------------------------

    def attach(self) -> "PhaseTimers":
        """Instrument the phase entry points.  Idempotent per instance."""
        if self._patched:
            return self
        from ..cache.directory import Directory
        from ..cache.hierarchy import CacheHierarchy
        from ..htm import designs
        from ..htm.base import HTMSystem
        from ..sim.stats import Histogram, StatsRegistry

        self._wrap(CacheHierarchy, "access", "access")
        # Every design funnels its filter probes through this one helper.
        self._wrap(designs, "_signature_hits", "signature")
        self._wrap(Directory, "check_access", "coherence")
        self._wrap(Directory, "record_access", "coherence")
        self._wrap(HTMSystem, "commit", "commit")
        self._wrap(StatsRegistry, "incr", "stats")
        self._wrap(StatsRegistry, "record", "stats")
        self._wrap(Histogram, "record", "stats")
        return self

    def detach(self) -> None:
        """Restore every patched entry point (safe to call twice)."""
        for owner, name, _phase, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched = []
        self._stack = []

    def __enter__(self) -> "PhaseTimers":
        return self.attach()

    def __exit__(self, *exc: Any) -> None:
        self.detach()

    def _wrap(self, owner: Any, name: str, phase: str) -> None:
        original = getattr(owner, name)
        stack = self._stack
        exclusive = self.exclusive_s
        calls = self.calls

        def timed(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0, perf_counter()]
            stack.append(frame)
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - frame[1]
                stack.pop()
                exclusive[phase] += elapsed - frame[0]
                calls[phase] += 1
                if stack:
                    stack[-1][0] += elapsed

        timed.__name__ = f"timed_{name}"
        setattr(owner, name, timed)
        self._patched.append((owner, name, phase, original))

    # -- reporting ---------------------------------------------------------

    @property
    def attached(self) -> bool:
        return bool(self._patched)

    def total_s(self) -> float:
        """Seconds attributed to any phase (exclusive times sum cleanly)."""
        return sum(self.exclusive_s.values())

    def report(self) -> Dict[str, Dict[str, float]]:
        """Per-phase exclusive seconds, call counts, and share of phase time."""
        total = self.total_s()
        return {
            phase: {
                "seconds": round(self.exclusive_s[phase], 6),
                "calls": self.calls[phase],
                "share": round(self.exclusive_s[phase] / total, 4)
                if total
                else 0.0,
            }
            for phase in PHASES
        }
