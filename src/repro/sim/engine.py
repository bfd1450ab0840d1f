"""The discrete-event engine: min-clock interleaving of simulated threads.

Threads are generators that yield (``None``) once per workload operation.
The engine resumes whichever runnable thread currently has the smallest local
clock, giving a deterministic interleaving that respects per-thread timing.
Components may block a thread (e.g. waiting on the fallback lock) and wake it
later at a given simulated time.
"""

from __future__ import annotations

import enum
import heapq
from typing import Callable, Generator, Iterable, List, Optional

from ..errors import SimulationError

ThreadBody = Generator[None, None, None]


class ThreadState(enum.Enum):
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    DONE = "done"


class SimThread:
    """One simulated hardware thread with its own local clock."""

    def __init__(
        self,
        thread_id: int,
        name: str,
        body_factory: Callable[["SimThread"], ThreadBody],
    ) -> None:
        self.thread_id = thread_id
        self.name = name
        self.clock_ns: float = 0.0
        self.state = ThreadState.RUNNABLE
        self._body_factory = body_factory
        self._body: Optional[ThreadBody] = None
        #: Monotonic tiebreaker so heap ordering is total and deterministic.
        self._sequence = 0

    def advance(self, delta_ns: float) -> None:
        """Charge ``delta_ns`` of simulated time to this thread."""
        if delta_ns < 0:
            raise SimulationError(f"negative time advance: {delta_ns}")
        self.clock_ns += delta_ns

    def advance_to(self, at_ns: float) -> None:
        """Move the clock forward to ``at_ns`` if it is in the future."""
        if at_ns > self.clock_ns:
            self.clock_ns = at_ns

    def _ensure_body(self) -> ThreadBody:
        if self._body is None:
            self._body = self._body_factory(self)
        return self._body

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimThread({self.thread_id}, {self.name!r}, "
            f"t={self.clock_ns:.1f}ns, {self.state.value})"
        )


class Engine:
    """Runs a set of :class:`SimThread` objects to completion.

    The run loop is a priority queue ordered by ``(clock_ns, sequence)``.
    Each pop resumes one thread for one step (one workload operation).  A
    blocked thread leaves the queue until another component wakes it.
    """

    def __init__(self) -> None:
        self._threads: List[SimThread] = []
        self._heap: List = []
        self._push_count = 0
        self._steps = 0
        #: Fault-injection hook (see :mod:`repro.faults`): consulted before
        #: every thread step for step-count and simulated-time crash points.
        #: A raised :class:`~repro.errors.PowerFailure` propagates out of
        #: :meth:`run`; the dead machine is never resumed.
        self.fault_injector = None
        #: Optional event tracer (see :mod:`repro.obs`): scheduling events
        #: (block/wake/done) are emitted when attached, else zero cost.
        self.tracer = None

    @property
    def threads(self) -> List[SimThread]:
        return list(self._threads)

    @property
    def steps_executed(self) -> int:
        return self._steps

    def add_thread(self, thread: SimThread) -> None:
        self._threads.append(thread)
        self._push(thread)

    def _push(self, thread: SimThread) -> None:
        self._push_count += 1
        thread._sequence = self._push_count
        heapq.heappush(self._heap, (thread.clock_ns, thread._sequence, thread))

    # -- blocking ----------------------------------------------------------

    def block(self, thread: SimThread) -> None:
        """Mark ``thread`` blocked; it will be skipped until woken.

        The thread stays in the heap; stale entries are filtered on pop
        (lazy deletion), keeping block/wake O(log n).
        """
        if thread.state is ThreadState.DONE:
            raise SimulationError("cannot block a finished thread")
        thread.state = ThreadState.BLOCKED
        if self.tracer is not None:
            self.tracer.emit(
                "thread.block", ts_ns=thread.clock_ns, thread_id=thread.thread_id
            )

    def wake(self, thread: SimThread, at_ns: Optional[float] = None) -> None:
        """Make ``thread`` runnable again, no earlier than ``at_ns``."""
        if thread.state is ThreadState.DONE:
            return
        if at_ns is not None:
            thread.advance_to(at_ns)
        if thread.state is ThreadState.BLOCKED:
            thread.state = ThreadState.RUNNABLE
            self._push(thread)
            if self.tracer is not None:
                self.tracer.emit(
                    "thread.wake", ts_ns=thread.clock_ns, thread_id=thread.thread_id
                )

    # -- run loop ----------------------------------------------------------

    def run(self, until_ns: Optional[float] = None, max_steps: Optional[int] = None) -> float:
        """Advance the simulation; returns the final simulated time.

        Stops when all threads are done, when every runnable thread's clock
        exceeds ``until_ns``, or after ``max_steps`` thread steps.  Raises
        :class:`SimulationError` on deadlock (live threads, none runnable).

        The pop and step logic is inlined here: this loop runs once per
        workload operation and is the simulator's outermost hot path.  The
        step counter lives in a local and is written back in ``finally`` so
        it stays correct when a fault injector's ``PowerFailure`` (or a
        workload exception) propagates out mid-run.  ``self._push`` stays a
        method call because components woken during ``next(body)`` push
        through it concurrently with this loop.
        """
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        runnable = ThreadState.RUNNABLE
        steps = self._steps
        try:
            while True:
                if max_steps is not None and steps >= max_steps:
                    break
                # Skip-scan pop: drop stale lazy-deleted entries (blocked,
                # done, or superseded threads) without touching them.
                thread = None
                while heap:
                    clock_ns, sequence, candidate = heappop(heap)
                    if candidate.state is not runnable:
                        continue  # stale entry for a blocked/done thread
                    if sequence != candidate._sequence:
                        continue  # superseded by a later push
                    if candidate.clock_ns > clock_ns:
                        # The thread's clock moved while it was queued (e.g.
                        # it was charged rollback latency by a conflict
                        # winner); re-sort it at its new time instead of
                        # running it early.
                        self._push(candidate)
                        continue
                    thread = candidate
                    break
                if thread is None:
                    if any(t.state is ThreadState.BLOCKED for t in self._threads):
                        raise SimulationError(
                            "deadlock: blocked threads remain but none are runnable"
                        )
                    break
                if until_ns is not None and thread.clock_ns >= until_ns:
                    # Smallest clock already past the horizon: everyone is.
                    self._push(thread)
                    break
                steps += 1
                if self.fault_injector is not None:
                    self.fault_injector.on_engine_step(thread.clock_ns)
                body = thread._body
                if body is None:
                    body = thread._ensure_body()
                try:
                    next(body)
                except StopIteration:
                    thread.state = ThreadState.DONE
                    if self.tracer is not None:
                        self.tracer.emit(
                            "thread.done",
                            ts_ns=thread.clock_ns,
                            thread_id=thread.thread_id,
                        )
                    continue
                if thread.state is runnable:
                    # Inlined self._push: one push per step, worth skipping
                    # the method call.  wake() calls during next(body) went
                    # through self._push and already advanced the counter.
                    sequence = self._push_count + 1
                    self._push_count = sequence
                    thread._sequence = sequence
                    heappush(heap, (thread.clock_ns, sequence, thread))
                # A blocked thread is re-queued by wake().
        finally:
            self._steps = steps
        return self.now()

    def now(self) -> float:
        """The frontier of simulated time: max clock over all threads."""
        if not self._threads:
            return 0.0
        return max(t.clock_ns for t in self._threads)

    def min_runnable_clock(self) -> Optional[float]:
        runnable = [
            t.clock_ns for t in self._threads if t.state is ThreadState.RUNNABLE
        ]
        if not runnable:
            return None
        return min(runnable)

    def all_done(self) -> bool:
        return all(t.state is ThreadState.DONE for t in self._threads)


def run_threads(bodies: Iterable[Callable[[SimThread], ThreadBody]]) -> Engine:
    """Convenience: build an engine from body factories and run it."""
    engine = Engine()
    for index, factory in enumerate(bodies):
        engine.add_thread(SimThread(index, f"t{index}", factory))
    engine.run()
    return engine
