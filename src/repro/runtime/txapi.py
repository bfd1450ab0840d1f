"""Memory-access contexts: one interface, three execution modes.

Workload data structures take a :class:`MemoryContext` and never know
whether they are running speculatively (fast path), serialised under the
fallback lock (slow path), or entirely outside transactions (co-runners).
That is exactly the programming model of Algorithm 1, where the same body
runs on both paths.

Block helpers operate at line granularity: reading or writing a payload of
``n`` bytes touches ``ceil(n / 64)`` lines with one access each, which is
how a hardware transaction's footprint actually accrues.
"""

from __future__ import annotations

from typing import Dict

from ..errors import ReproError
from ..htm.base import HTMSystem, TxHandle
from ..mem.address import line_of
from ..params import LINE_SIZE
from ..sim.engine import SimThread


class MemoryContext:
    """The access interface workload code programs against."""

    #: True when reads/writes are speculative and may abort.
    transactional = False

    def read_word(self, addr: int) -> int:
        raise NotImplementedError

    def write_word(self, addr: int, value: int) -> None:
        raise NotImplementedError

    # -- payload helpers ----------------------------------------------------

    def read_block(self, addr: int, nbytes: int) -> int:
        """Scan a payload: one read per line; returns the first line's word."""
        first = 0
        offset = 0
        index = 0
        while offset < nbytes:
            value = self.read_word(addr + offset)
            if index == 0:
                first = value
            offset += LINE_SIZE
            index += 1
        return first

    def write_block(self, addr: int, nbytes: int, tag: int) -> None:
        """Fill a payload: one write per line, storing ``tag`` in each."""
        offset = 0
        while offset < nbytes:
            self.write_word(addr + offset, tag)
            offset += LINE_SIZE


class RawContext(MemoryContext):
    """Untimed direct access to memory contents — setup/verification only.

    Workload pre-population and test oracles use this "fast-forward" mode
    (gem5's functional accesses): no caches, no conflicts, no latency.
    Never use it from measured thread bodies.
    """

    def __init__(self, controller) -> None:
        self._controller = controller

    def read_word(self, addr: int) -> int:
        return self._controller.load_word(addr)

    def write_word(self, addr: int, value: int) -> None:
        self._controller.store_word(addr, value)


class TxContext(MemoryContext):
    """Speculative accesses inside a hardware transaction."""

    transactional = True

    def __init__(self, htm: HTMSystem, handle: TxHandle) -> None:
        self._htm = htm
        self._handle = handle

    @property
    def tx_id(self) -> int:
        return self._handle.tx_id

    @property
    def handle(self) -> TxHandle:
        return self._handle

    def read_word(self, addr: int) -> int:
        return self._htm.tx_read(self._handle, addr)

    def write_word(self, addr: int, value: int) -> None:
        self._htm.tx_write(self._handle, addr, value)

    # A block is one call: the per-line loop runs inside ``tx_read`` /
    # ``tx_write``, with the same per-line protocol as a word access.

    def read_block(self, addr: int, nbytes: int) -> int:
        return self._htm.tx_read(self._handle, addr, nbytes)

    def write_block(self, addr: int, nbytes: int, tag: int) -> None:
        self._htm.tx_write(self._handle, addr, tag, nbytes)

    def abort(self) -> None:
        """Explicitly abort (``_xabort()``)."""
        self._htm.explicit_abort(self._handle)


class DirectContext(MemoryContext):
    """Plain non-transactional accesses (memory-intensive co-runners)."""

    def __init__(
        self,
        htm: HTMSystem,
        thread: SimThread,
        core_id: int,
        domain_id: int,
    ) -> None:
        self._htm = htm
        self._thread = thread
        self._core_id = core_id
        self._domain_id = domain_id

    def read_word(self, addr: int) -> int:
        return self._htm.nontx_access(
            self._thread, self._core_id, self._domain_id, addr, is_write=False
        )

    def write_word(self, addr: int, value: int) -> None:
        self._htm.nontx_access(
            self._thread,
            self._core_id,
            self._domain_id,
            addr,
            is_write=True,
            value=value,
        )

    def rmw_add_block(self, addrs, delta: int = 1) -> None:
        """Read-modify-write sweep: ``mem[a] += delta`` for each address.

        Exactly equivalent to ``write_word(a, read_word(a) + delta)`` per
        address, as one call for the whole chunk (``HTMSystem.nontx_rmw``).
        """
        self._htm.nontx_rmw(
            self._thread, self._core_id, self._domain_id, addrs, delta
        )


class SlowPathContext(MemoryContext):
    """Serialised execution under the fallback lock, still failure-atomic.

    NVM writes are buffered and redo-logged; :meth:`finalize` appends the
    durable commit mark and publishes through the DRAM cache, so a crash
    mid-slow-path leaves no torn persistent state.  DRAM writes go straight
    to memory — the lock already serialises them and they need no
    durability.
    """

    def __init__(
        self,
        htm: HTMSystem,
        thread: SimThread,
        core_id: int,
        domain_id: int,
    ) -> None:
        self._htm = htm
        self._thread = thread
        self._core_id = core_id
        self._domain_id = domain_id
        self._controller = htm.controller
        #: Pseudo transaction ID for the durable log records.
        self.tx_id = htm.tx_ids.allocate()
        self._nvm_buffer: Dict[int, Dict[int, int]] = {}
        self._finalized = False
        if htm.tracer is not None:
            htm.tracer.emit(
                "slowpath.begin",
                ts_ns=thread.clock_ns,
                tx_id=self.tx_id,
                thread_id=thread.thread_id,
                core=core_id,
                domain=domain_id,
            )

    def read_word(self, addr: int) -> int:
        if self._controller.address_space.is_nvm(addr):
            words = self._nvm_buffer.get(line_of(addr))
            if words is not None and addr in words:
                self._htm.nontx_access(
                    self._thread, self._core_id, self._domain_id, addr, False
                )
                return words[addr]
        return self._htm.nontx_access(
            self._thread, self._core_id, self._domain_id, addr, is_write=False
        )

    def write_word(self, addr: int, value: int) -> None:
        if self._controller.address_space.is_nvm(addr):
            self._htm.nontx_access(
                self._thread,
                self._core_id,
                self._domain_id,
                addr,
                is_write=True,
                value=None,
            )
            line_addr = line_of(addr)
            first_touch = line_addr not in self._nvm_buffer
            self._nvm_buffer.setdefault(line_addr, {})[addr] = value
            if first_touch:
                # Stream the redo record out, as the fast path does.
                self._thread.advance(self._controller.latency.nvm_write_ns)
        else:
            self._htm.nontx_access(
                self._thread,
                self._core_id,
                self._domain_id,
                addr,
                is_write=True,
                value=value,
            )

    def finalize(self) -> None:
        """Durably commit the buffered NVM writes (commit mark + publish)."""
        if self._finalized:
            raise ReproError("slow path finalized twice")
        self._finalized = True
        if self._nvm_buffer:
            if self._htm.tracer is not None:
                # Stamp before the timeless controller's commit events.
                self._htm.tracer.emit(
                    "slowpath.commit",
                    ts_ns=self._thread.clock_ns,
                    tx_id=self.tx_id,
                    thread_id=self._thread.thread_id,
                    nvm_lines=len(self._nvm_buffer),
                )
            self._thread.advance(
                self._controller.commit_nvm_transaction(
                    self.tx_id, self._nvm_buffer
                )
            )
            self._nvm_buffer.clear()
        elif self._htm.tracer is not None:
            self._htm.tracer.emit(
                "slowpath.commit",
                ts_ns=self._thread.clock_ns,
                tx_id=self.tx_id,
                thread_id=self._thread.thread_id,
                nvm_lines=0,
            )
