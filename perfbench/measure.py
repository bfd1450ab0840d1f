"""Run one benchmark workload through the public harness and measure it.

Every simulation goes through :func:`repro.harness.runner.run_experiment`
in this process, one at a time: no process pool, no result cache, and the
program's default engine (the caller removes ``REPRO_ENGINE`` from the
environment and no spec sets ``engine=``).

A run of workload ``w`` at seed ``n`` simulates a fixed list of sub-seeds
derived from ``n`` (see :func:`sub_seeds`).  Simulated statistics are
deterministic per sub-seed but differ between sub-seeds, so the simulated
metrics are pooled over the whole list; the list's length depends only on
the workload and ``--seconds``, never on how fast the host is.  The first
sub-seed is simulated twice: the first time as a warm-up, excluded from
the host-time metrics, and both times compared by digest.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from repro.harness.metrics import RunResult, run_result_to_dict
from repro.harness.runner import run_experiment
from repro.kernels import kit_for
from repro.sim.stats import ratio

from .tracing import LayerTracer
from .workloads import WORKLOADS

#: Host seconds one simulation takes, set-up included, on the 2-core Xeon
#: the benchmark was tuned on.  A run at ``--seconds`` simulates about
#: ``seconds / SECONDS_PER_SIM`` sub-seeds (one of them twice), so it takes
#: about ``--seconds`` there; the count never depends on the host's speed.
SECONDS_PER_SIM = {
    "overflow-nvm": 2.05,
    "onchip-index": 3.6,
    "long-scan": 3.8,
}


def sub_seeds(workload: str, seed: int, seconds: float) -> List[int]:
    """The simulation seeds a run of ``workload`` at ``seed`` pools over:
    ``seed`` itself, then draws from a generator seeded with it."""
    count = max(1, int(seconds / SECONDS_PER_SIM[workload]) - 1)
    draw = random.Random(seed).randrange
    return [seed] + [draw(1 << 31) for _ in range(1, count)]


def result_digest(result: RunResult) -> str:
    """SHA-256 over the full :class:`RunResult`, floats written exactly."""
    payload = json.dumps(run_result_to_dict(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class Simulation:
    """One ``run_experiment`` call and what the benchmark saw of it."""

    seed: int
    role: str
    result: Optional[RunResult] = None
    digest: str = ""
    setup_s: float = 0.0
    run_s: float = 0.0
    error: str = ""
    #: Failure reasons found by :class:`DigestBook` (empty when correct).
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.error and not self.problems

    def line(self) -> str:
        status = "ok" if self.ok else "FAIL " + "; ".join(
            [self.error] if self.error else self.problems
        )
        return (
            f"sim role={self.role} seed={self.seed} setup_s={self.setup_s:.4f} "
            f"run_s={self.run_s:.4f} digest={self.digest[:16]} {status}"
        )


def simulate(
    spec: Any,
    role: str,
    on_system: Optional[Callable[[Any], None]] = None,
    on_run_start: Optional[Callable[[], None]] = None,
) -> Simulation:
    """Run ``spec`` once, timing set-up and ``System.run`` separately.

    ``setup_s`` runs from the ``run_experiment`` call to the first
    ``System.run``: building the machine and pre-filling the workloads.
    ``run_s`` is the host time inside ``System.run``.  Both are read by a
    wrapper on the built system instance, so the timed region holds two
    clock reads more than the program itself.
    """
    sim = Simulation(seed=spec.seed, role=role)
    marks: Dict[str, float] = {}

    def instrument(system: Any) -> None:
        run = system.run

        def timed_run(*args: Any, **kwargs: Any) -> float:
            if on_run_start is not None:
                on_run_start()
            marks.setdefault("run_start", perf_counter())
            try:
                return run(*args, **kwargs)
            finally:
                marks["run_end"] = perf_counter()

        system.run = timed_run
        if on_system is not None:
            on_system(system)

    gc.collect()
    start = perf_counter()
    try:
        sim.result = run_experiment(spec, instrument=instrument)
    except Exception:  # one failed simulation must not stop the benchmark
        sim.error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        traceback.print_exc(file=sys.stderr)
    if "run_start" in marks:
        sim.setup_s = marks["run_start"] - start
        sim.run_s = marks["run_end"] - marks["run_start"]
    if sim.result is not None:
        sim.digest = result_digest(sim.result)
    return sim


class DigestBook:
    """Checks every simulation: verified, and equal to its seed's others."""

    def __init__(self) -> None:
        self.first: Dict[int, str] = {}

    def check(self, sim: Simulation) -> Simulation:
        if sim.result is None:
            return sim
        if not sim.result.verified:
            sim.problems.append("RunResult.verified is false")
        expected = self.first.setdefault(sim.seed, sim.digest)
        if sim.digest != expected:
            sim.problems.append(
                f"digest {sim.digest[:16]} differs from {expected[:16]} "
                "at the same seed"
            )
        return sim


@dataclass
class Outcome:
    """What one benchmark invocation measured."""

    sims: List[Simulation]
    metrics: Dict[str, Dict[str, Any]]
    engine: str
    #: The pooled digest: one hash over every sub-seed's digest, in order.
    digest: str
    tracer: Optional[LayerTracer] = None

    @property
    def attempted(self) -> int:
        return len(self.sims)

    @property
    def failed(self) -> int:
        return sum(not sim.ok for sim in self.sims)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def summary(self) -> Dict[str, Any]:
        """The result line: ``correct``, ``attempted``, ``failed`` and ``metrics``."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _pooled_digest(sims: List[Simulation]) -> str:
    seen: Dict[int, str] = {}
    for sim in sims:
        seen.setdefault(sim.seed, sim.digest)
    joined = ",".join(f"{seed}:{digest}" for seed, digest in seen.items())
    return hashlib.sha256(joined.encode()).hexdigest()


def measure(
    workload: str,
    seed: int,
    seconds: float,
    size: float = 1.0,
    log: Callable[[str], None] = print,
) -> Outcome:
    """The untraced run: every end-to-end metric."""
    build = WORKLOADS[workload]
    seeds = sub_seeds(workload, seed, seconds)
    book = DigestBook()
    engines: List[str] = []
    sims: List[Simulation] = []
    for role, sim_seed in [("warmup", seeds[0])] + [("measure", s) for s in seeds]:
        sim = book.check(
            simulate(
                build(sim_seed, size),
                role,
                on_system=lambda system: engines.append(system.engine_name),
            )
        )
        log(sim.line())
        sims.append(sim)
    measured = [s for s in sims if s.role == "measure" and s.result is not None]
    results = [s.result for s in measured]
    committed = sum(r.committed_ops for r in results)
    elapsed_ms = sum(r.elapsed_ns for r in results) / 1e6
    begins = sum(r.begins for r in results)
    aborts = sum(r.aborts for r in results)
    metrics = {
        "setup_s": _metric(_median([s.setup_s for s in measured]), "s"),
        "run_s": _metric(_median([s.run_s for s in measured]), "s"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
        "sim_throughput_ops_per_ms": _metric(ratio(committed, elapsed_ms), "ops/ms"),
        "abort_rate": _metric(ratio(aborts, begins), "ratio"),
    }
    return Outcome(
        sims=sims,
        metrics=metrics,
        engine=engines[0] if engines else "unknown",
        digest=_pooled_digest(sims),
    )


def measure_traced(
    workload: str,
    seed: int,
    size: float = 1.0,
    log: Callable[[str], None] = print,
) -> Outcome:
    """The traced run: every per-layer metric, at the workload seed.

    An untraced warm-up and an untraced reference simulation come first;
    then the same seed runs again with every layer entry point wrapped.
    All three must have the same digest, which is how the benchmark checks
    that the wrappers leave the simulation unchanged.
    """
    build = WORKLOADS[workload]
    book = DigestBook()
    sims: List[Simulation] = []
    for role in ("warmup", "reference"):
        sim = book.check(simulate(build(seed, size), role))
        log(sim.line())
        sims.append(sim)
    batched = kit_for(None).batched
    systems: List[Any] = []
    with LayerTracer().attach(batched) as tracer:
        traced = book.check(
            simulate(
                build(seed, size),
                "traced",
                on_system=systems.append,
                on_run_start=tracer.start_run,
            )
        )
    log(traced.line())
    sims.append(traced)
    if not systems:
        raise RuntimeError(f"{workload}: the traced run built no System")
    system = systems[0]
    return Outcome(
        sims=sims,
        metrics=layer_metrics(tracer, system, traced, reference=sims[1]),
        engine=system.engine_name,
        digest=_pooled_digest(sims),
        tracer=tracer,
    )


def layer_metrics(
    tracer: LayerTracer,
    system: Any,
    traced: Simulation,
    reference: Simulation,
) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric of one traced simulation."""
    counter = system.stats.counter
    epochs = system.epoch_stats
    hierarchy = system.hierarchy
    count = tracer.count
    sig_true = counter("sig.hits.true")
    sig_false = counter("sig.hits.false")
    begins = counter("tx.begins")
    commits = counter("tx.commits")
    values = {
        "sim.steps": (system.engine.steps_executed, "count"),
        "sim.self_s": (tracer.layer_self_s("sim"), "s"),
        "sim.epochs": (epochs.epochs if epochs else 0, "count"),
        "sim.mean_batch_width": (
            epochs.mean_batch_width if epochs else 0.0, "ops"
        ),
        "sim.scalar_fallback_ratio": (
            epochs.scalar_fallback_ratio if epochs else 0.0, "ratio"
        ),
        "cache.accesses": (count("cache.CacheHierarchy.access"), "count"),
        "cache.llc_misses": (tracer.llc_misses, "count"),
        "cache.l1_evictions": (
            sum(l1.evictions for l1 in hierarchy.l1s), "count"
        ),
        "cache.llc_evictions": (hierarchy.llc.evictions, "count"),
        "cache.directory_checks": (count("cache.Directory.check_access"), "count"),
        "cache.self_s": (tracer.layer_self_s("cache"), "s"),
        "signatures.checks": (counter("sig.checks"), "count"),
        "signatures.true_hits": (sig_true, "count"),
        "signatures.false_hits": (sig_false, "count"),
        "signatures.true_hit_ratio": (
            ratio(sig_true, sig_true + sig_false), "ratio"
        ),
        "signatures.false_abort_rate": (
            ratio(counter("tx.aborts.false_positive"), begins), "ratio"
        ),
        "signatures.read_inserts": (count("signatures.SignaturePair.add_read"), "count"),
        "signatures.write_inserts": (
            count("signatures.SignaturePair.add_write"), "count"
        ),
        "signatures.self_s": (tracer.layer_self_s("signatures"), "s"),
        "htm.begins": (begins, "count"),
        "htm.commits": (commits, "count"),
        "htm.aborts": (counter("tx.aborts"), "count"),
        "htm.commit_ratio": (ratio(commits, begins), "ratio"),
        "htm.overflows": (counter("tx.overflows"), "count"),
        "htm.tx_reads": (count("htm.HTMSystem.tx_read"), "count"),
        "htm.tx_writes": (count("htm.HTMSystem.tx_write"), "count"),
        "htm.nontx_accesses": (count("htm.HTMSystem.nontx_access"), "count"),
        "htm.block_calls": (
            sum(count(f"htm.BatchDispatcher.{name}") for name in (
                "tx_read_block", "tx_write_block", "nontx_rmw_block"
            )),
            "count",
        ),
        "htm.self_s": (tracer.layer_self_s("htm"), "s"),
        "htm.commit_s": (tracer.inclusive_s("htm.HTMSystem.commit"), "s"),
        "mem.loads": (count("mem.MemoryController.load_word"), "count"),
        "mem.stores": (count("mem.MemoryController.store_word"), "count"),
        "mem.nvm_commits": (
            count("mem.MemoryController.commit_nvm_transaction"), "count"
        ),
        "mem.nvm_log_appends": (counter("nvm.log_appends"), "count"),
        "mem.undo_logs": (count("mem.MemoryController.log_undo_and_update"), "count"),
        "mem.sim_demand_ns": (tracer.demand_ns(), "ns"),
        "mem.sim_commit_ns": (tracer.commit_ns(), "ns"),
        "mem.self_s": (tracer.layer_self_s("mem"), "s"),
        "runtime.retries": (counter("tx.retries"), "count"),
        "runtime.slow_path": (counter("tx.slow_path_executions"), "count"),
        "runtime.capacity_fallbacks": (counter("tx.capacity_fallbacks"), "count"),
        "workloads.setup_s": (tracer.setup_s, "s"),
        "workloads.verify_s": (tracer.inclusive_s("workloads.verify"), "s"),
        "trace.overhead_ratio": (ratio(traced.run_s, reference.run_s), "ratio"),
    }
    return {name: _metric(value, unit) for name, (value, unit) in values.items()}


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def context(root: Path, engine: str) -> Dict[str, Any]:
    """Where the figures came from: engine, code, interpreter and host."""
    return {
        "engine": engine,
        "commit": _git_commit(root),
        "source_digest": _source_digest(root / "src"),
        "python": platform.python_version(),
        "host": host_fingerprint(),
    }


def host_fingerprint() -> Dict[str, Any]:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    host = {
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "cpu": cpu,
        "cpus": os.cpu_count(),
    }
    host["fingerprint"] = hashlib.sha256(
        json.dumps(host, sort_keys=True).encode()
    ).hexdigest()[:16]
    return host


def _git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _source_digest(src: Path) -> str:
    """SHA-256 over the program's Python sources, so checkouts that are not
    git repositories still name the code they measured."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()
