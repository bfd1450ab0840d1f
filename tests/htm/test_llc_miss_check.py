"""The off-chip check runs inside the cache walk, at the LLC miss.

UHTM checks signatures only on LLC misses, and a request that loses the
check is nacked before the fill (Section IV-D).  Designs with that trigger
install ``CacheHierarchy.on_llc_miss``; ``access`` calls it where the LLC
lookup missed, before the memory access and the fill.  These tests pin
both halves of that promise:

* a transactional requester that loses leaves no trace in the caches or
  the directory, so a retry cannot hit on-chip and skip the check;
* a non-transactional requester cannot be nacked: the victim aborts and
  the line is filled;
* the hook fires on exactly the accesses for which the old pre-walk
  probe (peek the L1, then the LLC, touching nothing) answers "miss",
  taken where that probe was taken.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import HTMConfig, MachineConfig, System, TransactionAborted
from repro.errors import AbortReason
from repro.htm.tss import TxStatus
from repro.mem.address import MemoryKind
from repro.params import LINE_SIZE
from repro.sim.engine import SimThread


def make_thread(thread_id):
    return SimThread(thread_id, f"raw{thread_id}", lambda t: iter(()))


def spilled_system():
    """A UHTM system whose transaction on core 0 spilled DRAM lines."""
    system = System(
        MachineConfig.scaled(1 / 256, cores=4), HTMConfig(design="uhtm")
    )
    nlines = 2048
    base = system.heap.alloc(nlines * LINE_SIZE, MemoryKind.DRAM)
    victim = system.htm.begin(make_thread(0), 0, 1, 1)
    for i in range(nlines):
        system.htm.tx_write(victim, base + i * LINE_SIZE, 1)
    assert system.htm.tss.is_overflowed(victim.tx_id)
    line = sorted(victim.dram_overflowed_lines)[0]
    assert not system.hierarchy.llc_resident(line)
    return system, victim, line


def cache_state(system, core_id, line):
    """Everything a nacked request must leave untouched, by value."""
    hierarchy = system.hierarchy
    directory = hierarchy.directory

    def bucket(array):
        return [
            (meta.line_addr, meta.mesi, meta.dirty)
            for meta in array._set_of(line).values()
        ]

    return (
        bucket(hierarchy.llc),
        bucket(hierarchy.l1s[core_id]),
        {addr: set(cores) for addr, cores in hierarchy.l1_holders.items()},
        {
            addr: (entry.tx_owner, set(entry.tx_sharers))
            for addr, entry in directory._entries.items()
        },
        {tx: set(lines) for tx, lines in directory._lines_of_tx.items()},
    )


@pytest.mark.parametrize("is_write", (False, True))
def test_losing_transactional_requester_is_nacked(is_write):
    system, victim, line = spilled_system()
    requester = system.htm.begin(make_thread(1), 1, 1, 1)
    before = cache_state(system, 1, line)
    with pytest.raises(TransactionAborted):
        # Table II off-chip: the overflowed victim beats the requester.
        if is_write:
            system.htm.tx_write(requester, line, 2)
        else:
            system.htm.tx_read(requester, line)
    assert system.htm.tss.entry(requester.tx_id).status is TxStatus.ABORTED
    assert system.htm.tss.is_active(victim.tx_id)
    assert not system.hierarchy.l1_resident(1, line)
    assert not system.hierarchy.llc_resident(line)
    # No tag, LRU order, holder, MESI or directory change.
    assert cache_state(system, 1, line) == before


def test_nontransactional_requester_aborts_victim_then_fills():
    system, victim, line = spilled_system()
    system.htm.nontx_access(make_thread(1), 1, 1, line, is_write=False)
    entry = system.htm.tss.entry(victim.tx_id)
    assert entry.status is TxStatus.ABORTED
    assert entry.abort_reason in (
        AbortReason.NON_TX_CONFLICT,
        AbortReason.FALSE_POSITIVE,
    )
    assert system.hierarchy.llc_resident(line)
    assert system.hierarchy.l1_resident(1, line)
    assert 1 in system.hierarchy.l1_holders[line]


@pytest.mark.parametrize("design", ("llc_bounded", "signature_only"))
def test_hook_installed_only_for_on_miss_designs(design):
    system = System(
        MachineConfig.scaled(1 / 256, cores=4), HTMConfig(design=design)
    )
    assert system.hierarchy.on_llc_miss is None


# -- Hypothesis: the hook fires exactly on would-be LLC misses ---------------

#: Lines in the shared pool: more than the 64-line LLC, so sets overflow.
POOL_LINES = 96

#: The non-transactional requester's core and thread id.
NONTX = 2

access = st.tuples(
    st.sampled_from(["txr", "txw", "commit", "nontx_r", "nontx_w"]),
    st.integers(min_value=0, max_value=1),  # transactional thread
    st.integers(min_value=0, max_value=POOL_LINES - 1),
)


def run_and_compare(design, isolation, ops):
    """Run ``ops``; return (hook calls, mismatches against the probe)."""
    system = System(
        MachineConfig.scaled(1 / 256, cores=4, cache_scale=1 / 4096),
        HTMConfig(design=design, isolation=isolation),
    )
    htm = system.htm
    hierarchy = system.hierarchy
    base = system.heap.alloc(POOL_LINES * LINE_SIZE, MemoryKind.DRAM)
    hook = hierarchy.on_llc_miss
    assert hook is not None
    fired = []
    mismatches = []
    calls = [0]

    def counting_hook(*args):
        fired.append(args)
        hook(*args)

    original_access = hierarchy.access

    def would_miss_llc(core_id, line_addr):
        # The old pre-walk probe: peeks touch no LRU state or counters.
        return (
            hierarchy.l1s[core_id].peek(line_addr) is None
            and hierarchy.llc.peek(line_addr) is None
        )

    def probed_access(
        core_id, line_addr, is_write, tx_id=None, now_ns=0.0, domain_id=None
    ):
        # Where the old path probed: after the directory resolution, just
        # before the walk.  It checked only when the gate was open, which
        # is exactly when a domain is passed.
        expected = domain_id is not None and would_miss_llc(core_id, line_addr)
        fired.clear()
        try:
            return original_access(
                core_id, line_addr, is_write, tx_id, now_ns, domain_id
            )
        finally:
            calls[0] += len(fired)
            if bool(fired) != expected or len(fired) > 1:
                mismatches.append((core_id, line_addr, is_write, expected))

    hierarchy.on_llc_miss = counting_hook
    hierarchy.access = probed_access

    threads = [make_thread(i) for i in range(3)]
    txs = [None, None]
    for kind, index, line_no in ops:
        addr = base + line_no * LINE_SIZE
        if kind.startswith("nontx"):
            htm.nontx_access(
                threads[NONTX], NONTX, 1, addr, is_write=kind == "nontx_w"
            )
            continue
        tx = txs[index]
        try:
            if kind == "commit":
                if tx is not None:
                    txs[index] = None
                    htm.commit(tx)
                continue
            if tx is None:
                tx = txs[index] = htm.begin(threads[index], index, 1, 1)
            if kind == "txw":
                htm.tx_write(tx, addr, line_no)
            else:
                htm.tx_read(tx, addr)
        except TransactionAborted:
            htm.acknowledge_abort(tx)
            txs[index] = None
    return calls[0], mismatches


@settings(max_examples=40, deadline=None)
@given(
    design=st.sampled_from(["uhtm", "ideal"]),
    isolation=st.booleans(),
    ops=st.lists(access, min_size=1, max_size=120),
)
def test_hook_fires_exactly_on_would_be_llc_misses(design, isolation, ops):
    _, mismatches = run_and_compare(design, isolation, ops)
    assert mismatches == []


def test_property_workload_exercises_the_hook():
    """The property's op mix reaches the hook and its resolution."""
    ops = [("txw", 0, i) for i in range(POOL_LINES)]
    ops += [("txr", 1, i) for i in range(POOL_LINES)]
    ops += [("nontx_r", 0, i) for i in range(POOL_LINES)]
    calls, mismatches = run_and_compare("uhtm", False, ops)
    assert mismatches == []
    assert calls > POOL_LINES
