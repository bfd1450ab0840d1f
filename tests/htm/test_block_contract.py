"""Block operations keep the per-line contract their docstrings promise.

* ``write_block(addr, nbytes, tag)`` is one ``write_word(addr + k * 64,
  tag)`` per line of ``[addr, addr + nbytes)``;
* ``rmw_add_block(addrs, delta)`` is ``write_word(a, read_word(a) +
  delta)`` per address;
* ``read_block(addr, nbytes)`` touches the same lines as one
  ``read_word`` per line and returns ``read_word(addr)``.

Each test runs the same schedule twice on fresh systems, once through the
block calls and once through their word expansions, and compares
everything the run leaves behind: thread clocks, every counter, cache
residency, the values read and the memory image.  Operations are issued
straight against the HTM (no scheduler), so a block can abort part-way,
by losing a conflict or overflowing a bounded design's LLC.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import HTMConfig, MachineConfig, System, TransactionAborted
from repro.htm.base import HTMSystem
from repro.mem.address import MemoryKind
from repro.params import LINE_SIZE
from repro.runtime.txapi import DirectContext, TxContext
from repro.sim.engine import SimThread

#: Lines per shared pool: more than the 64-line LLC, so sets overflow.
POOL_LINES = 96

#: Slack lines after each pool, so a block starting at the pool's last
#: line stays inside the allocation.
SLACK_LINES = 10

#: Transactional threads 0..2 run on cores 0..2; core 3 issues the
#: non-transactional sweeps.
TX_THREADS = 3
NONTX = 3

DELTA = 3


def make_thread(thread_id):
    return SimThread(thread_id, f"raw{thread_id}", lambda t: iter(()))


class Harness:
    """One system plus the per-thread state a schedule needs."""

    def __init__(self, design: str, isolation: bool) -> None:
        self.system = System(
            MachineConfig.scaled(1 / 256, cores=4, cache_scale=1 / 4096),
            HTMConfig(design=design, isolation=isolation),
        )
        self.htm = self.system.htm
        span = (POOL_LINES + SLACK_LINES) * LINE_SIZE
        self.pools = {
            "dram": self.system.heap.alloc(span, MemoryKind.DRAM),
            "nvm": self.system.heap.alloc(span, MemoryKind.NVM),
        }
        self.span = span
        self.threads = [make_thread(i) for i in range(NONTX + 1)]
        self.txs = [None] * TX_THREADS
        self.values = []
        self.direct = DirectContext(self.htm, self.threads[NONTX], NONTX, 1)

    def context(self, index: int) -> TxContext:
        tx = self.txs[index]
        if tx is None:
            tx = self.txs[index] = self.htm.begin(
                self.threads[index], index, 1, 1
            )
        return TxContext(self.htm, tx)

    def transact(self, index: int, op) -> None:
        """Run ``op(ctx)`` in thread ``index``'s transaction."""
        try:
            op(self.context(index))
        except TransactionAborted:
            self.htm.acknowledge_abort(self.txs[index])
            self.txs[index] = None

    def commit(self, index: int) -> None:
        tx = self.txs[index]
        if tx is None:
            return
        self.txs[index] = None
        try:
            self.htm.commit(tx)
        except TransactionAborted:
            self.htm.acknowledge_abort(tx)

    def fingerprint(self):
        for index in range(TX_THREADS):
            self.commit(index)
        system = self.system
        hierarchy = system.hierarchy
        load = system.controller.load_word
        image = {
            kind: [load(base + offset) for offset in range(0, self.span, 8)]
            for kind, base in sorted(self.pools.items())
        }
        return (
            [thread.clock_ns for thread in self.threads],
            system.stats.snapshot(),
            hierarchy.llc.resident_lines(),
            [l1.resident_lines() for l1 in hierarchy.l1s],
            self.values,
            image,
        )


# -- the two ways to issue each operation -------------------------------------


def block_write(ctx, addr, nbytes, tag):
    ctx.write_block(addr, nbytes, tag)


def word_write(ctx, addr, nbytes, tag):
    offset = 0
    while offset < nbytes:
        ctx.write_word(addr + offset, tag)
        offset += LINE_SIZE


def block_read(ctx, addr, nbytes):
    return ctx.read_block(addr, nbytes)


def word_read(ctx, addr, nbytes):
    """One ``read_word`` per line; the block's answer is the first one."""
    first = 0
    offset = 0
    while offset < nbytes:
        value = ctx.read_word(addr + offset)
        if offset == 0:
            first = value
        offset += LINE_SIZE
    return first


def block_rmw(ctx, addrs, delta):
    ctx.rmw_add_block(addrs, delta)


def word_rmw(ctx, addrs, delta):
    for addr in addrs:
        ctx.write_word(addr, ctx.read_word(addr) + delta)


BLOCK = (block_write, block_read, block_rmw)
WORD = (word_write, word_read, word_rmw)


def run(design, isolation, ops, calls):
    write, read, rmw = calls
    harness = Harness(design, isolation)
    for kind, index, region, line, word, nbytes in ops:
        addr = harness.pools[region] + line * LINE_SIZE + word
        if kind == "commit":
            harness.commit(index)
        elif kind == "txw":
            harness.transact(
                index, lambda ctx: write(ctx, addr, nbytes, 0x100 + line)
            )
        elif kind == "txr":
            harness.transact(
                index,
                lambda ctx: harness.values.append(read(ctx, addr, nbytes)),
            )
        else:
            addrs = [addr + i * LINE_SIZE for i in range(max(0, nbytes) // 64)]
            rmw(harness.direct, addrs, DELTA)
    return harness


op = st.tuples(
    st.sampled_from(["txw", "txw", "txr", "txr", "rmw", "commit"]),
    st.integers(min_value=0, max_value=TX_THREADS - 1),
    st.sampled_from(["dram", "nvm"]),
    st.integers(min_value=0, max_value=POOL_LINES - 1),
    st.sampled_from([0, 8, 56]),  # byte offset of the block in its line
    st.sampled_from([-8, 0, 1, 8, 64, 65, 128, 200, 512]),
)


@settings(max_examples=60, deadline=None)
@given(
    design=st.sampled_from(["uhtm", "ideal", "signature_only", "llc_bounded"]),
    isolation=st.booleans(),
    ops=st.lists(op, min_size=1, max_size=40),
)
def test_blocks_match_their_word_expansions(design, isolation, ops):
    blocks = run(design, isolation, ops, BLOCK)
    words = run(design, isolation, ops, WORD)
    assert blocks.fingerprint() == words.fingerprint()


# -- aborts part-way through a block -----------------------------------------


def test_capacity_abort_mid_write_block_matches_words():
    """A bounded design overflows its LLC part-way through one block."""
    nbytes = 2 * POOL_LINES * LINE_SIZE  # more lines than the LLC holds
    results = []
    for write, _, _ in (BLOCK, WORD):
        harness = Harness("llc_bounded", True)
        tx = harness.context(0).handle
        base = harness.pools["nvm"]  # every line it writes is redo-logged
        harness.transact(0, lambda ctx: write(ctx, base, nbytes, 7))
        assert harness.txs[0] is None, "the block must abort"
        assert 0 < tx.writes < nbytes // LINE_SIZE, "abort must be mid-block"
        assert harness.system.stats.counter("nvm.log_appends") == tx.writes
        results.append(harness.fingerprint())
    assert results[0] == results[1]


def test_conflict_abort_mid_read_block_matches_words():
    """Table II: a requester that has not overflowed loses to one that has,
    so a read block aborts at the first line the overflowed writer owns."""
    results = []
    for write, read, _ in (BLOCK, WORD):
        harness = Harness("uhtm", False)
        dram, nvm = harness.pools["dram"], harness.pools["nvm"]
        harness.transact(
            0, lambda ctx: write(ctx, dram, POOL_LINES * LINE_SIZE, 1)
        )
        harness.transact(0, lambda ctx: write(ctx, nvm + 3 * LINE_SIZE, 8, 2))
        writer = harness.txs[0]
        assert harness.htm.tss.is_overflowed(writer.tx_id)
        reader = harness.context(1).handle
        harness.transact(1, lambda ctx: read(ctx, nvm, 8 * LINE_SIZE))
        assert harness.txs[1] is None and reader.reads == 3
        assert harness.txs[0] is writer
        results.append(harness.fingerprint())
    assert results[0] == results[1]


# -- edge cases ----------------------------------------------------------------


def test_empty_blocks_touch_nothing_and_return_zero():
    idle, busy = Harness("uhtm", True), Harness("uhtm", True)
    for harness in (idle, busy):
        harness.system.controller.store_word(harness.pools["nvm"], 41)
        harness.context(0)
    ctx = busy.context(0)
    base = busy.pools["nvm"]
    for nbytes in (0, -1, -LINE_SIZE):
        assert ctx.read_block(base, nbytes) == 0
        ctx.write_block(base, nbytes, 9)
    busy.direct.rmw_add_block([], DELTA)
    tx = ctx.handle
    assert (tx.reads, tx.writes) == (0, 0)
    assert not tx.read_lines and not tx.written_lines and not tx.write_buffer
    assert busy.fingerprint() == idle.fingerprint()


def test_65_bytes_walk_two_lines():
    harness = Harness("uhtm", True)
    base = harness.pools["dram"]
    ctx = harness.context(0)
    ctx.write_block(base, 65, 5)
    ctx.read_block(base + 4 * LINE_SIZE, 65)
    tx = ctx.handle
    assert tx.written_lines == {base, base + LINE_SIZE}
    assert tx.read_lines == {base + 4 * LINE_SIZE, base + 5 * LINE_SIZE}
    assert (tx.reads, tx.writes) == (2, 2)


def test_read_block_returns_the_first_word():
    harness = Harness("uhtm", True)
    base = harness.pools["nvm"] + 8
    harness.system.controller.store_word(base, 17)
    harness.system.controller.store_word(base + LINE_SIZE, 23)
    ctx = harness.context(0)
    assert ctx.read_block(base, 2 * LINE_SIZE) == 17
    ctx.write_word(base, 99)
    # Own buffered writes win over memory, as for read_word.
    assert ctx.read_block(base, 2 * LINE_SIZE) == ctx.read_word(base) == 99


# -- the rmw value rule --------------------------------------------------------


def record_order(harness):
    """Log staging, loads and stores, in issue order, on ``harness``.

    ``rmw_word`` is exactly a load then a store of the sum, so it logs as
    that pair; the values are checked by the memory image instead.
    """
    htm = harness.htm
    controller = harness.system.controller
    log = []
    staging = htm._nontx_staging
    load, store, rmw_word = (
        controller.load_word, controller.store_word, controller.rmw_word
    )
    depth = [0]

    def stage(line_addr, is_write, domain_id):
        log.append(("stage", line_addr, is_write))
        return staging(line_addr, is_write, domain_id)

    def load_word(addr):
        if not depth[0]:
            log.append(("load", addr))
        return load(addr)

    def store_word(addr, value):
        if not depth[0]:
            log.append(("store", addr))
        return store(addr, value)

    def fused_rmw(addr, delta):
        log.append(("load", addr))
        log.append(("store", addr))
        depth[0] += 1
        try:
            return rmw_word(addr, delta)
        finally:
            depth[0] -= 1

    htm._nontx_staging = stage
    controller.load_word = load_word
    controller.store_word = store_word
    controller.rmw_word = fused_rmw
    return log


def rmw_order(calls, design="uhtm"):
    """The issue order of two rmw sweeps, then the final fingerprint.

    During the first, a transaction on core 0 has read the swept lines, so
    the sweep's writes (GetM) abort it in their staging; the second runs
    with no transaction active.
    """
    harness = Harness(design, False)
    base = harness.pools["nvm"]
    addrs = [base + i * LINE_SIZE for i in range(4)]
    for addr in addrs:
        harness.system.controller.store_word(addr, 10)
    harness.transact(0, lambda ctx: block_read(ctx, base, 4 * LINE_SIZE))
    harness.transact(1, lambda ctx: block_write(ctx, base + 32 * LINE_SIZE, 64, 1))
    log = record_order(harness)
    calls[2](harness.direct, addrs, DELTA)
    harness.commit(1)
    assert not harness.htm._active
    calls[2](harness.direct, addrs, DELTA)
    return log, harness.fingerprint()


def test_rmw_issue_order_matches_words():
    for design in ("uhtm", "signature_only", "llc_bounded"):
        block_log, block_print = rmw_order(BLOCK, design)
        word_log, word_print = rmw_order(WORD, design)
        assert any(entry[0] == "stage" for entry in block_log)
        assert block_log == word_log
        assert block_print == word_print


def late_load_rmw(self, thread, core_id, domain_id, addrs, delta):
    """Mutant: with a transaction active, load only after the write's
    staging instead of where the read returns its value."""
    access = self.hierarchy.access
    controller = self.controller
    for addr in addrs:
        line_addr = addr & ~(LINE_SIZE - 1)
        for is_write in (False, True):
            active = bool(self._active)
            check = (
                self._nontx_staging(line_addr, is_write, domain_id)
                if active
                else None
            )
            latency = access(
                core_id, line_addr, is_write, None, thread.clock_ns, check
            ).latency_ns
            thread.clock_ns += latency
        if active:
            controller.store_word(addr, controller.load_word(addr) + delta)
        else:
            controller.rmw_word(addr, delta)


def test_late_load_mutant_is_caught(monkeypatch):
    word_log, _ = rmw_order(WORD)
    monkeypatch.setattr(HTMSystem, "nontx_rmw", late_load_rmw)
    mutant_log, _ = rmw_order(BLOCK)
    assert mutant_log != word_log
