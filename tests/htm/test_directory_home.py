"""Transactional line state has one home: the directory.

Cached copies carry no Tx markers, so once a transaction commits nothing
on-chip names it any more.  An LLC eviction after the commit is then a
plain eviction: no ``llc.evict`` event, no ``on_llc_evict`` call.  These
tests pin that for a committed reader and for a committed writer whose
line was spilled, re-fetched and written again before the commit.
"""

from __future__ import annotations

from repro import HTMConfig, MachineConfig, System
from repro.mem.address import MemoryKind
from repro.obs.tracer import Tracer, attach_tracer
from repro.params import LINE_SIZE
from repro.sim.engine import SimThread


def make_thread(thread_id):
    return SimThread(thread_id, f"raw{thread_id}", lambda t: iter(()))


def make_system():
    system = System(
        MachineConfig.scaled(1 / 256, cores=4), HTMConfig(design="uhtm")
    )
    tracer = attach_tracer(system, Tracer())
    calls = []
    hook = system.hierarchy.on_llc_evict

    def recording_hook(meta, entry):
        calls.append(meta.line_addr)
        hook(meta, entry)

    system.hierarchy.on_llc_evict = recording_hook
    return system, tracer, calls


def llc_lines(system):
    return system.machine.llc.size_bytes // LINE_SIZE


def flush_llc(system, thread):
    """Stream non-transactional reads over four LLCs' worth of lines."""
    nlines = 4 * llc_lines(system)
    base = system.heap.alloc(nlines * LINE_SIZE, MemoryKind.DRAM)
    for i in range(nlines):
        system.htm.nontx_access(thread, 0, 1, base + i * LINE_SIZE, False)


def llc_evict_events(tracer):
    return [e for e in tracer.events() if e.kind == "llc.evict"]


def test_committed_reader_leaves_no_eviction_work():
    system, tracer, calls = make_system()
    addr = system.heap.alloc(LINE_SIZE, MemoryKind.DRAM)
    thread = make_thread(0)
    tx = system.htm.begin(thread, 0, 1, 1)
    system.htm.tx_read(tx, addr)
    system.htm.commit(tx)
    assert len(system.hierarchy.directory) == 0
    tracer.clear()
    flush_llc(system, thread)
    assert not system.hierarchy.llc_resident(addr)
    assert llc_evict_events(tracer) == []
    assert calls == []


def test_committed_writer_of_refetched_spilled_line_leaves_no_eviction_work():
    system, tracer, calls = make_system()
    nlines = 2 * llc_lines(system)
    base = system.heap.alloc(nlines * LINE_SIZE, MemoryKind.DRAM)
    thread = make_thread(0)
    tx = system.htm.begin(thread, 0, 1, 1)
    for i in range(nlines):
        system.htm.tx_write(tx, base + i * LINE_SIZE, 1)
    assert base in tx.dram_overflowed_lines
    assert not system.hierarchy.llc_resident(base)
    # While the writer is live, its spill is an overflow with its id on it.
    spilled = [e for e in llc_evict_events(tracer) if e.get("line_addr") == base]
    assert [e.get("writer") for e in spilled] == [tx.tx_id]
    assert base in calls
    system.htm.tx_write(tx, base, 2)
    assert system.hierarchy.llc_resident(base)
    system.htm.commit(tx)
    assert len(system.hierarchy.directory) == 0
    tracer.clear()
    calls.clear()
    writebacks = system.hierarchy.writebacks
    flush_llc(system, thread)
    assert not system.hierarchy.llc_resident(base)
    assert llc_evict_events(tracer) == []
    assert calls == []
    # The re-written line left as plain dirty data.
    assert system.hierarchy.writebacks > writebacks
