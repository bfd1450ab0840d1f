"""The open-loop multi-tenant traffic generator (``repro.traffic``).

Every other workload here is closed-loop: a fixed batch of transactions per
thread, each issued the instant the previous one finishes, so a slow server
just stretches the run.  This one is *open-loop*: requests arrive on an
absolute schedule drawn from :mod:`repro.sim.arrivals` (Poisson or bursty),
and a request that finds its thread still busy queues behind it — the
latency recorded for it includes that queueing delay, which is the honest
way to measure tails (closed-loop measurement suffers coordinated
omission).

One ``open_loop`` benchmark instance is one *tenant*: the harness gives
each :class:`~repro.harness.config.BenchmarkSpec` its own simulated process
and therefore its own conflict domain, so the traffic figure's
shared-vs-isolated axis is exactly the paper's
:class:`~repro.params.HTMConfig` ``isolation`` knob.  Keys are skewed by a
seed-stable :class:`~repro.sim.arrivals.ZipfSampler` shared by the tenant's
threads — hot keys collide across threads and produce genuine conflicts
inside the tenant.

The store under the traffic is a miniature of one of the paper's stores
(``inner``):

* ``hybrid_index`` — DRAM B-tree index + NVM hash index over NVM payloads;
* ``dual_kv`` — mirrored DRAM and NVM hash maps, both updated in the
  request transaction;
* ``echo`` — a single persistent NVM hash table.

Per-request latency lands in the ``traffic.latency_ns`` histograms (exact
:class:`~repro.sim.stats.ReservoirHistogram` samples), which
:func:`~repro.harness.metrics.collect_metrics` folds into the cacheable
:class:`~repro.harness.metrics.RunResult` — so traffic points flow through
``run_grid`` and the result cache like any figure point.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

from ..errors import ConfigError
from ..mem.address import MemoryKind
from ..sim.arrivals import ZipfSampler, bursty_arrivals, poisson_arrivals
from ..sim.stats import ReservoirHistogram
from .base import PayloadPool, Workload, WorkloadParams, write_payload
from .btree import TxBTree
from .hashmap import TxHashMap

#: Stores an ``open_loop`` tenant can run its traffic against.
INNER_STORES = ("hybrid_index", "dual_kv", "echo")

#: Arrival process names accepted by the ``arrival`` kwarg.
ARRIVAL_MODELS = ("poisson", "bursty")

#: Named rng streams each tenant thread forks off the system root.
ARRIVALS_STREAM = "open_loop.arrivals"
KEYS_STREAM = "open_loop.keys"

#: Fork salt spacing: one rng namespace per (process, thread) pair.
THREAD_FORK_SALT = 8191


def thread_fork(root, pid: int, thread_index: int):
    """The rng fork a tenant thread draws its streams from.

    A module-level function (not a method) so that
    :func:`repro.traffic.report.reconstruct_arrivals` can replay a thread's
    exact arrival schedule from the spec alone, without running the sim.
    """
    return root.fork(pid * THREAD_FORK_SALT + thread_index)


def arrival_times(
    rng,
    arrival: str = "poisson",
    mean_gap_ns: float = 50_000.0,
    horizon_ns: float = 2e6,
    burst_on_ns: float = 250_000.0,
    burst_off_ns: float = 250_000.0,
    burst_factor: float = 2.0,
) -> Generator[float, None, None]:
    """One thread's absolute arrival schedule; shared by the workload and
    the traffic report's offline replay.  Defaults mirror
    :class:`OpenLoopWorkload`'s constructor."""
    if arrival == "poisson":
        return poisson_arrivals(rng, mean_gap_ns, horizon_ns)
    return bursty_arrivals(
        rng,
        mean_gap_ns,
        horizon_ns,
        on_ns=burst_on_ns,
        off_ns=burst_off_ns,
        burst_factor=burst_factor,
    )


class OpenLoopWorkload(Workload):
    """Zipf-skewed open-loop put traffic against a tenant-local store."""

    name = "open_loop"

    def __init__(
        self,
        system,
        process,
        params: WorkloadParams,
        inner: str = "hybrid_index",
        tenant: int = 0,
        arrival: str = "poisson",
        mean_gap_ns: float = 50_000.0,
        horizon_ns: float = 2e6,
        zipf_theta: float = 0.9,
        burst_on_ns: float = 250_000.0,
        burst_off_ns: float = 250_000.0,
        burst_factor: float = 2.0,
    ) -> None:
        super().__init__(system, process, params)
        if inner not in INNER_STORES:
            raise ConfigError(f"unknown inner store {inner!r}")
        if arrival not in ARRIVAL_MODELS:
            raise ConfigError(f"unknown arrival model {arrival!r}")
        if horizon_ns <= 0:
            raise ConfigError("horizon_ns must be > 0")
        self.inner = inner
        self.tenant = tenant
        self.arrival = arrival
        self.mean_gap_ns = mean_gap_ns
        self.horizon_ns = horizon_ns
        self.sampler = ZipfSampler(params.keys, zipf_theta)
        self.burst_on_ns = burst_on_ns
        self.burst_off_ns = burst_off_ns
        self.burst_factor = burst_factor
        self.btree_index: Optional[TxBTree] = None
        self.hash_index: Optional[TxHashMap] = None
        self.mirror_map: Optional[TxHashMap] = None
        self.pool: Optional[PayloadPool] = None
        self.mirror_pool: Optional[PayloadPool] = None
        self._hist: Optional[ReservoirHistogram] = None
        self._tenant_hist: Optional[ReservoirHistogram] = None

    # -- lifecycle -------------------------------------------------------------

    def setup(self) -> None:
        heap = self.system.heap
        nbuckets = max(64, self.params.keys // 4)
        if self.inner == "hybrid_index":
            self.btree_index = TxBTree.create(heap, self.raw, MemoryKind.DRAM)
            self.hash_index = TxHashMap.create(
                heap, self.raw, MemoryKind.NVM, nbuckets=nbuckets
            )
            self.pool = PayloadPool(
                self.system, self.params.keys, self.value_bytes, MemoryKind.NVM
            )
        elif self.inner == "dual_kv":
            self.hash_index = TxHashMap.create(
                heap, self.raw, MemoryKind.DRAM, nbuckets=nbuckets
            )
            self.mirror_map = TxHashMap.create(
                heap, self.raw, MemoryKind.NVM, nbuckets=nbuckets
            )
            self.pool = PayloadPool(
                self.system, self.params.keys, self.value_bytes, MemoryKind.DRAM
            )
            self.mirror_pool = PayloadPool(
                self.system, self.params.keys, self.value_bytes, MemoryKind.NVM
            )
        else:  # echo
            self.hash_index = TxHashMap.create(
                heap, self.raw, MemoryKind.NVM, nbuckets=nbuckets
            )
            self.pool = PayloadPool(
                self.system, self.params.keys, self.value_bytes, MemoryKind.NVM
            )
        for key in range(self.params.initial_fill):
            self.hash_index.insert(self.raw, key, self.pool.block_for(key))
            if self.btree_index is not None:
                self.btree_index.insert(self.raw, key, self.pool.block_for(key))
            if self.mirror_map is not None:
                self.mirror_map.insert(
                    self.raw, key, self.mirror_pool.block_for(key)
                )
        stats = self.system.stats
        self._hist = stats.histogram(
            "traffic.latency_ns", factory=ReservoirHistogram
        )
        self._tenant_hist = stats.histogram(
            f"traffic.latency_ns.t{self.tenant}", factory=ReservoirHistogram
        )

    def thread_bodies(self) -> List[Callable]:
        return [self._make_body(i) for i in range(self.params.threads)]

    # -- arrivals -------------------------------------------------------------

    def _arrival_times(self, rng) -> Generator[float, None, None]:
        return arrival_times(
            rng,
            arrival=self.arrival,
            mean_gap_ns=self.mean_gap_ns,
            horizon_ns=self.horizon_ns,
            burst_on_ns=self.burst_on_ns,
            burst_off_ns=self.burst_off_ns,
            burst_factor=self.burst_factor,
        )

    # -- request bodies -------------------------------------------------------

    def _request(self, batch: List[int], tag: int) -> Callable:
        if self.inner == "hybrid_index":

            def work(tx, batch=batch, tag=tag):
                for key in batch:
                    record = self.pool.block_for(key)
                    yield from write_payload(tx, record, self.value_bytes, tag)
                    self.hash_index.insert(tx, key, record)
                    self.btree_index.insert(tx, key, record)
                    yield

        elif self.inner == "dual_kv":

            def work(tx, batch=batch, tag=tag):
                for key in batch:
                    front = self.pool.block_for(key)
                    yield from write_payload(tx, front, self.value_bytes, tag)
                    self.hash_index.insert(tx, key, front)
                    back = self.mirror_pool.block_for(key)
                    yield from write_payload(tx, back, self.value_bytes, tag)
                    self.mirror_map.insert(tx, key, back)
                    yield

        else:  # echo

            def work(tx, batch=batch, tag=tag):
                for key in batch:
                    record = self.pool.block_for(key)
                    yield from write_payload(tx, record, self.value_bytes, tag)
                    self.hash_index.insert(tx, key, record)
                    yield

        return work

    def _make_body(self, thread_index: int) -> Callable:
        fork = thread_fork(self.system.rng, self.process.pid, thread_index)
        arrival_rng = fork.stream(ARRIVALS_STREAM)
        key_rng = fork.stream(KEYS_STREAM)
        ops = self.params.ops_per_tx

        def body(api) -> Generator[None, None, None]:
            stats = self.system.stats
            thread = api.thread
            request_index = 0
            for at_ns in self._arrival_times(arrival_rng):
                if thread.clock_ns < at_ns:
                    # Idle until the next arrival: open-loop, not batch.
                    thread.advance_to(at_ns)
                else:
                    stats.incr("traffic.backlogged")
                batch = [self.sampler.sample(key_rng) for _ in range(ops)]
                request_index += 1
                yield from api.run_transaction(
                    self._request(batch, request_index), ops=len(batch)
                )
                # Arrival-to-completion: queueing delay + retries included.
                latency_ns = thread.clock_ns - at_ns
                self._hist.record(latency_ns)
                self._tenant_hist.record(latency_ns)
                stats.incr("traffic.requests")
                yield

        return body

    # -- verification ---------------------------------------------------------

    def verify(self) -> bool:
        if not self.hash_index.check_integrity(self.raw):
            return False
        if self.btree_index is not None:
            if not self.btree_index.check_integrity(self.raw):
                return False
            if sorted(self.hash_index.keys(self.raw)) != self.btree_index.keys(
                self.raw
            ):
                return False
        if self.mirror_map is not None:
            if not self.mirror_map.check_integrity(self.raw):
                return False
            if sorted(self.hash_index.keys(self.raw)) != sorted(
                self.mirror_map.keys(self.raw)
            ):
                return False
        return True
