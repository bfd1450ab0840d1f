"""Fault plans: *where* a campaign cuts the power.

A :class:`FaultPlan` is a small, serialisable program of crash points.  The
first step (if any) fires while the workload runs; every later step fires
during a recovery attempt, modelling a power failure that strikes recovery
itself.  Plans are value objects — hashable, comparable, JSON round-trippable
— so a failing campaign can print one line that reproduces the failure and
the minimizer can treat shrinking as a search over plain data.

Crash points name architectural events, not wall-clock accidents:

========================  =====================================================
``nvm_log_append``        after the Nth redo record lands in the NVM log (the
                          torn-commit window between a transaction's data
                          records and its commit mark)
``pre_commit_mark``       just before the Nth durable commit mark would be
                          written (all data logged, commit not yet final)
``commit_mark``           just after the Nth durable commit mark (committed,
                          but nothing published to the DRAM cache yet)
``mid_commit``            between the NVM and DRAM phases of the Nth commit
``engine_step``           before the Nth simulated thread step
``sim_time``              at the first step whose clock reaches ``at_ns``
``recovery_replay``       after the Nth replayed line of a recovery attempt
========================  =====================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from ..errors import ConfigError


class TriggerKind(enum.Enum):
    NVM_LOG_APPEND = "nvm_log_append"
    PRE_COMMIT_MARK = "pre_commit_mark"
    COMMIT_MARK = "commit_mark"
    MID_COMMIT = "mid_commit"
    ENGINE_STEP = "engine_step"
    SIM_TIME = "sim_time"
    RECOVERY_REPLAY = "recovery_replay"


@dataclass(frozen=True)
class CrashPoint:
    """One crash trigger: the Nth occurrence of an architectural event."""

    kind: TriggerKind
    #: Fire on the Nth event of this kind (1-based).  Ignored for
    #: ``SIM_TIME``, which fires on the clock instead.
    ordinal: int = 1
    #: ``SIM_TIME`` only: crash at the first step at or past this time.
    at_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.kind is TriggerKind.SIM_TIME:
            if self.at_ns < 0:
                raise ConfigError("sim_time crash points need at_ns >= 0")
        elif self.ordinal < 1:
            raise ConfigError(f"crash-point ordinal must be >= 1, got {self.ordinal}")

    @property
    def in_recovery(self) -> bool:
        return self.kind is TriggerKind.RECOVERY_REPLAY

    def describe(self) -> str:
        if self.kind is TriggerKind.SIM_TIME:
            return f"at t={self.at_ns:g}ns"
        return f"after {self.kind.value} #{self.ordinal}"

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"kind": self.kind.value}
        if self.kind is TriggerKind.SIM_TIME:
            payload["at_ns"] = self.at_ns
        else:
            payload["ordinal"] = self.ordinal
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CrashPoint":
        return cls(
            kind=TriggerKind(payload["kind"]),
            ordinal=int(payload.get("ordinal", 1)),
            at_ns=float(payload.get("at_ns", 0.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered program of crash points for one campaign run.

    Grammar: at most one run-phase step, and it must come first; every
    subsequent step is a ``recovery_replay`` point, crashing successive
    recovery attempts.  (After a run-phase crash the workload's generators
    are dead — only recovery can be interrupted again.)
    """

    steps: Tuple[CrashPoint, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for index, step in enumerate(self.steps):
            if index > 0 and not step.in_recovery:
                raise ConfigError(
                    "only the first plan step may be a run-phase crash point"
                )

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def run_step(self) -> CrashPoint | None:
        if self.steps and not self.steps[0].in_recovery:
            return self.steps[0]
        return None

    @property
    def recovery_steps(self) -> Tuple[CrashPoint, ...]:
        skip = 1 if self.run_step is not None else 0
        return self.steps[skip:]

    def describe(self) -> str:
        if not self.steps:
            return "run to completion, then cut power"
        return " ; then ".join(s.describe() for s in self.steps)

    def to_dict(self) -> Dict[str, Any]:
        return {"steps": [s.to_dict() for s in self.steps]}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultPlan":
        return cls(
            steps=tuple(CrashPoint.from_dict(p) for p in payload.get("steps", ()))
        )


# -- convenience constructors ------------------------------------------------


def after_nvm_append(n: int) -> FaultPlan:
    return FaultPlan((CrashPoint(TriggerKind.NVM_LOG_APPEND, n),))


def before_commit_mark(n: int) -> FaultPlan:
    return FaultPlan((CrashPoint(TriggerKind.PRE_COMMIT_MARK, n),))


def after_commit_mark(n: int) -> FaultPlan:
    return FaultPlan((CrashPoint(TriggerKind.COMMIT_MARK, n),))


def mid_commit(n: int) -> FaultPlan:
    return FaultPlan((CrashPoint(TriggerKind.MID_COMMIT, n),))


def at_step(n: int) -> FaultPlan:
    return FaultPlan((CrashPoint(TriggerKind.ENGINE_STEP, n),))


def at_time(ns: float) -> FaultPlan:
    return FaultPlan((CrashPoint(TriggerKind.SIM_TIME, at_ns=ns),))


def during_recovery(n: int, after: FaultPlan | None = None) -> FaultPlan:
    """Crash after the Nth replayed line, optionally stacked on ``after``."""
    base = after.steps if after is not None else ()
    return FaultPlan(base + (CrashPoint(TriggerKind.RECOVERY_REPLAY, n),))
