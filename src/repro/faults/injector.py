"""The fault injector: counts architectural events, cuts power on cue.

One :class:`FaultInjector` is installed per simulated machine (via
:meth:`repro.runtime.system.System.install_fault_injector`).  Every hook
point — NVM log appends, the commit-mark window, the mid-commit window,
engine steps, recovery replay — reports its event here.  Unarmed, the
injector just counts, which is how a campaign's probe run learns the event
space it can crash in.  Armed with a :class:`~repro.faults.plan.CrashPoint`,
it raises :class:`~repro.errors.PowerFailure` the instant the point fires.

The injector can also carry a *seeded durability bug* for oracle
self-validation: ``suppress_commit_marks=True`` makes the controller skip
the durable commit mark while the rest of the commit protocol proceeds —
the classic "forgot the fence" bug that leaves every commit torn.  A sound
oracle must flag any crash after such a commit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import PowerFailure
from ..mem.log import LogRecord, RecordKind
from .plan import CrashPoint, TriggerKind


class FaultInjector:
    """Counts fault-hook events and fires an armed crash point."""

    def __init__(self, suppress_commit_marks: bool = False) -> None:
        #: Seeded durability bug: drop every durable commit mark.
        self.suppress_commit_marks = suppress_commit_marks
        self.counts: Dict[TriggerKind, int] = {k: 0 for k in TriggerKind}
        self._armed: Optional[CrashPoint] = None
        #: Crash points that actually fired, in order.
        self.fired: List[CrashPoint] = []

    # -- arming ------------------------------------------------------------

    def arm(self, point: CrashPoint) -> None:
        """Fire ``point`` when its event count is reached (from now on).

        Counts are *not* reset: a recovery-phase point armed for a second
        recovery attempt counts that attempt's replays on top of earlier
        ones, so campaigns arm with cumulative ordinals.  Run-phase plans
        arm before the run starts, so their ordinals are absolute anyway.
        """
        self._armed = point

    def disarm(self) -> None:
        self._armed = None

    @property
    def armed(self) -> Optional[CrashPoint]:
        return self._armed

    # -- the trigger -------------------------------------------------------

    def _bump(self, kind: TriggerKind, now_ns: float = 0.0) -> None:
        self.counts[kind] += 1
        point = self._armed
        if point is None or point.kind is not kind:
            return
        if kind is TriggerKind.SIM_TIME:
            if now_ns < point.at_ns:
                return
        elif self.counts[kind] != point.ordinal:
            return
        self.fired.append(point)
        self._armed = None
        raise PowerFailure(point.describe())

    # -- hook points (called by the instrumented machine) -------------------

    def observe_nvm_log(self, record: LogRecord) -> None:
        """NVM-log append observer; data records are the crash window."""
        if record.kind is RecordKind.REDO:
            self._bump(TriggerKind.NVM_LOG_APPEND)

    def before_commit_mark(self, tx_id: int) -> bool:
        """About to write a durable commit mark; returns whether to write it."""
        self._bump(TriggerKind.PRE_COMMIT_MARK)
        return not self.suppress_commit_marks

    def after_commit_mark(self, tx_id: int) -> None:
        self._bump(TriggerKind.COMMIT_MARK)

    def on_mid_commit(self, tx_id: int) -> None:
        self._bump(TriggerKind.MID_COMMIT)

    def on_engine_step(self, now_ns: float) -> None:
        self._bump(TriggerKind.ENGINE_STEP)
        # SIM_TIME rides the same hook but fires on the clock, not a count.
        point = self._armed
        if point is not None and point.kind is TriggerKind.SIM_TIME:
            self._bump(TriggerKind.SIM_TIME, now_ns=now_ns)

    def on_recovery_replay(self, replayed_so_far: int) -> None:
        self._bump(TriggerKind.RECOVERY_REPLAY)
