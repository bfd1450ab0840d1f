"""Deterministic discrete-event simulation core.

The engine interleaves simulated threads at *operation* granularity: each
thread is a Python generator that yields once per workload operation, and the
engine always resumes the runnable thread with the smallest local clock.
Every memory access performed inside a step charges latency to the owning
thread's clock, so the resulting schedule is a deterministic serialisation
consistent with per-thread timing — the same abstraction at which gem5's
syscall-emulation mode orders racing requests.
"""

from .engine import Engine, SimThread, ThreadState
from .rng import RngStreams
from .stats import StatsRegistry

__all__ = [
    "Engine",
    "SimThread",
    "ThreadState",
    "RngStreams",
    "StatsRegistry",
]
