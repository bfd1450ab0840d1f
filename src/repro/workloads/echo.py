"""The Echo key-value store (WHISPER suite, Table IV).

"The master thread of the Echo key-value store manages a persistent hash
table while clients threads batch and send updates to the master."

Clients assemble update batches (cheap local work plus queue traffic) and
hand them to the master, which applies each batch to the NVM hash table in
one durable transaction.  For the Figure 8 experiment, a configurable
fraction of client transactions are *long-running read-only* scans — a
batch of gets over a contiguous window of cold keys totalling
``long_scan_bytes`` — which the issuing client executes itself against the
shared table.  Updates target a hot key region disjoint from the scan
windows, mirroring the paper's setup where puts and the random 8-32 MB
read sets rarely touch the same pairs.

Long-transaction occurrences are scheduled deterministically: with ratio r
and N total client transactions, ``max(1, round(N * r))`` of them are long
scans, evenly spaced — so small ratios still materialise in short runs.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Callable, Deque, Generator, List, Optional, Set, Tuple

from ..mem.address import MemoryKind
from .base import (
    PayloadPool,
    Workload,
    WorkloadParams,
    read_payload,
    write_payload,
)
from .hashmap import TxHashMap

#: Cost of one request enqueue/dequeue on the client-master queue.
_QUEUE_RECORD_NS = 150.0


class EchoWorkload(Workload):
    """Insert/update KV-pairs to a persistent hash table [5]."""

    name = "echo"

    def __init__(
        self,
        system,
        process,
        params: WorkloadParams,
        long_tx_ratio: float = 0.0,
        long_scan_bytes: int = 8 << 20,
        hot_keys: Optional[int] = None,
        horizon_ns: float = 0.0,
        queue_cap: int = 4,
    ) -> None:
        super().__init__(system, process, params)
        self.table: Optional[TxHashMap] = None
        self.pool: Optional[PayloadPool] = None
        #: Pending update batches: lists of (key, tag).
        self.queue: Deque[List[Tuple[int, int]]] = deque()
        self.long_tx_ratio = long_tx_ratio
        self.long_scan_bytes = max(
            64, int(long_scan_bytes * system.machine.scale)
        )
        #: Updates target keys [0, hot_keys); scans read [hot_keys, fill).
        self.hot_keys = hot_keys if hot_keys is not None else params.initial_fill
        #: Fixed simulated-time window (0 = fixed-work mode).  In horizon
        #: mode clients are closed-loop (bounded queue) and every thread
        #: stops issuing once its clock passes the horizon — the paper's
        #: steady-state throughput measurement.
        self.horizon_ns = horizon_ns
        self.queue_cap = queue_cap
        self._clients_done = 0
        self._clients_total = 0
        self.long_txs_executed = 0
        #: Scan target keys, 8 B each: tens of thousands on a long scan.
        self._scan_keys = array("q")

    def setup(self) -> None:
        nbuckets = max(128, self.params.initial_fill)
        self.table = TxHashMap.create(
            self.system.heap, self.raw, MemoryKind.NVM, nbuckets=nbuckets
        )
        self.pool = PayloadPool(
            self.system, self.params.keys, self.value_bytes, MemoryKind.NVM
        )
        for key in range(self.params.initial_fill):
            self.table.insert(self.raw, key, self.pool.block_for(key))
        # Scan targets: cold keys whose hash chains share no bucket with a
        # hot key.  At the paper's scale the store holds millions of pairs,
        # so an 8-32 MB random read set virtually never lands on a chain a
        # concurrent put is updating; this filter reproduces that sparse
        # overlap on the scaled-down store.
        hot_buckets = {
            TxHashMap._hash(key) % nbuckets for key in range(self.hot_keys)
        }
        self._scan_keys = array(
            "q",
            (
                key
                for key in range(self.hot_keys, self.params.initial_fill)
                if TxHashMap._hash(key) % nbuckets not in hot_buckets
            ),
        )

    def thread_bodies(self) -> List[Callable]:
        """One master plus (threads - 1) clients (min one client)."""
        clients = max(1, self.params.threads - 1)
        self._clients_total = clients
        long_slots = self._schedule_long_txs(clients)
        bodies: List[Callable] = [self._make_master()]
        bodies.extend(
            self._make_client(i, long_slots.get(i, set())) for i in range(clients)
        )
        return bodies

    def _schedule_long_txs(self, clients: int) -> dict:
        """Evenly spaced (client, tx_index) slots for long scans."""
        total_txs = clients * self.params.txs_per_thread
        if self.long_tx_ratio <= 0 or total_txs == 0:
            return {}
        count = max(1, round(total_txs * self.long_tx_ratio))
        slots: dict = {}
        stride = total_txs / count
        for i in range(count):
            global_index = int(i * stride + stride / 2)
            client = global_index % clients
            tx_index = global_index // clients
            slots.setdefault(client, set()).add(tx_index)
        return slots

    def _make_master(self) -> Callable:
        def body(api) -> Generator[None, None, None]:
            while True:
                if self.horizon_ns and api.thread.clock_ns >= self.horizon_ns:
                    return
                if not self.queue:
                    if self._clients_done >= self._clients_total:
                        return
                    api.charge(_QUEUE_RECORD_NS)
                    yield
                    continue
                batch = self.queue.popleft()
                api.charge(_QUEUE_RECORD_NS * len(batch))

                def work(tx, batch=batch):
                    for key, tag in batch:
                        payload = self.pool.block_for(key)
                        yield from write_payload(
                            tx, payload, self.value_bytes, tag
                        )
                        self.table.insert(tx, key, payload)
                        yield

                yield from api.run_transaction(work, ops=len(batch))

        return body

    def _make_client(self, client_index: int, long_slots: Set[int]) -> Callable:
        rng = self.system.rng.fork(
            self.process.pid * 31 + client_index
        ).stream("echo_client")

        def body(api) -> Generator[None, None, None]:
            tx_index = 0
            while self._client_has_work(api, tx_index):
                if self._is_long_slot(tx_index, long_slots):
                    yield from self._long_read_only(api, rng)
                    tx_index += 1
                    continue
                if self.horizon_ns:
                    # Closed-loop client: wait for queue space.
                    while len(self.queue) >= self.queue_cap:
                        if api.thread.clock_ns >= self.horizon_ns:
                            self._clients_done += 1
                            return
                        api.charge(_QUEUE_RECORD_NS)
                        yield
                batch = [
                    (rng.randrange(max(1, self.hot_keys)), tx_index + 1)
                    for _ in range(self.params.ops_per_tx)
                ]
                # Batch assembly: local (non-transactional) work.
                api.charge(_QUEUE_RECORD_NS * len(batch))
                self.queue.append(batch)
                tx_index += 1
                yield
            self._clients_done += 1

        return body

    def _client_has_work(self, api, tx_index: int) -> bool:
        if self.horizon_ns:
            return api.thread.clock_ns < self.horizon_ns
        return tx_index < self.params.txs_per_thread

    def _is_long_slot(self, tx_index: int, long_slots: Set[int]) -> bool:
        if self.horizon_ns:
            if self.long_tx_ratio <= 0:
                return False
            # Phase-shifted so the first scan lands mid-stride, not at the
            # very end of a short window.
            phase = 0.5
            return int((tx_index + 1) * self.long_tx_ratio + phase) > int(
                tx_index * self.long_tx_ratio + phase
            )
        return tx_index in long_slots

    def _long_read_only(self, api, rng) -> Generator[None, None, None]:
        """A read-only transaction scanning ~long_scan_bytes of cold KV pairs."""
        self.long_txs_executed += 1
        reads_needed = max(1, self.long_scan_bytes // self.value_bytes)
        candidates = self._scan_keys or list(
            range(self.hot_keys, max(self.hot_keys + 1, self.params.initial_fill))
        )
        window = len(candidates)
        start = rng.randrange(window) if window > reads_needed else 0
        targets = [candidates[(start + i) % window] for i in range(reads_needed)]

        def work(tx, targets=targets):
            for key in targets:
                payload = self.table.get(tx, key)
                if payload is not None:
                    yield from read_payload(tx, payload, self.value_bytes)
                yield

        yield from api.run_transaction(work, ops=1)

    def verify(self) -> bool:
        if self.horizon_ns:
            # Horizon mode cuts the run mid-stream: leftover queue entries
            # are expected; only structural integrity must hold.
            return self.table.check_integrity(self.raw)
        return (
            not self.queue
            and self._clients_done >= self._clients_total
            and self.table.check_integrity(self.raw)
        )
