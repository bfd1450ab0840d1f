"""Background NVM log reclamation, checked against a shadow log.

The shadow is every record ever appended to the NVM log, never reclaimed.
At many crash points — every few appends, and right after each background
reclamation pass — recovering the NVM backing store from the reclaimed log
must give the same contents as recovering it from the shadow.  Words
written non-transactionally after set-up carry no durability guarantee
and are left out, as the crash oracle leaves them out.  At the end of each
run the machine really crashes and recovers, and the result must match
the shadow's again.

The overflow-nvm spec (Fig. 7's 500 KB NVM values) is the one that drains
the DRAM cache, so it is the one where drains make records redundant.
Random controller-level streams add what the workloads make rarely:
partial-line commits, and aborts of transactions that spilled a line
whose last commit has not drained yet.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Set

import pytest

from repro.faults.campaign import CampaignConfig, build_system
from repro.faults.cli import CAMPAIGN_WORKLOADS
from repro.harness.config import ExperimentSpec, mixed_pmdk
from repro.harness.runner import run_experiment
from repro.mem.address import word_of
from repro.mem.controller import MemoryController
from repro.mem.log import LogRecord, RecordKind
from repro.params import (
    LINE_SIZE,
    HTMConfig,
    HTMDesign,
    LatencyConfig,
    MemoryConfig,
    SignatureConfig,
)
from repro.workloads import WorkloadParams


def replay(nvm: Dict[int, int], records: Iterable[LogRecord]) -> Dict[int, int]:
    """What :meth:`MemoryController.recover` leaves in NVM, on a copy."""
    records = list(records)
    committed = {r.tx_id for r in records if r.kind is RecordKind.COMMIT}
    aborted = {r.tx_id for r in records if r.kind is RecordKind.ABORT}
    image = dict(nvm)
    for record in records:
        if (
            record.kind is RecordKind.REDO
            and record.tx_id in committed
            and record.tx_id not in aborted
        ):
            image.update(record.words)
    return image


class ShadowCheck:
    """Compares recovery over the NVM log with recovery over a shadow."""

    def __init__(self, machine, every: int) -> None:
        """``machine`` is a :class:`System` or a bare controller: whatever
        has ``crash`` and ``recover``."""
        self.machine = machine
        self.controller = getattr(machine, "controller", machine)
        self.log = self.controller.nvm_log
        self.every = every
        self.shadow: List[LogRecord] = []
        self.excluded: Set[int] = set()
        self.points = 0
        self.passes = 0
        self.log.add_observer(self._on_append)
        reclaim = self.log.reclaim_durable

        def checked_reclaim() -> int:
            freed = reclaim()
            self.passes += 1
            self.check()
            return freed

        self.log.reclaim_durable = checked_reclaim

    def arm(self) -> None:
        """Start excluding non-transactional stores (call after set-up)."""
        self.controller.on_nontx_nvm_store = (
            lambda addr: self.excluded.add(word_of(addr))
        )

    def _on_append(self, record: LogRecord) -> None:
        self.shadow.append(record)
        if len(self.shadow) % self.every == 0:
            self.check()

    def mismatches(self, nvm: Dict[int, int], got: Dict[int, int]) -> List[str]:
        want = replay(nvm, self.shadow)
        return [
            f"{addr:#x}: recovered {got.get(addr, 0)}, shadow {want.get(addr, 0)}"
            for addr in sorted(set(got) | set(want))
            if addr not in self.excluded and got.get(addr, 0) != want.get(addr, 0)
        ]

    def check(self) -> None:
        self.points += 1
        nvm = self.controller.nvm_snapshot()
        bad = self.mismatches(nvm, replay(nvm, self.log))
        assert not bad, f"crash point {self.points}: {bad[:3]}"

    def crash_and_recover(self) -> None:
        nvm = self.controller.nvm_snapshot()
        self.machine.crash()
        self.machine.recover()
        bad = self.mismatches(nvm, self.controller.nvm_snapshot())
        assert not bad, f"after recovery: {bad[:3]}"


def overflow_nvm_spec(seed: int, txs_per_thread: int) -> ExperimentSpec:
    """Fig. 7's setup at 1/64 scale: 500 KB NVM values overflow the LLC."""
    params = WorkloadParams(
        threads=4,
        txs_per_thread=txs_per_thread,
        value_bytes=500 << 10,
        ops_per_tx=1,
        keys=256,
        initial_fill=64,
    )
    return ExperimentSpec(
        name="overflow-nvm",
        htm=HTMConfig(
            design=HTMDesign.UHTM,
            signature=SignatureConfig(bits=4096),
            isolation=True,
        ),
        benchmarks=mixed_pmdk(params),
        scale=1 / 64,
        membound_instances=2,
        seed=seed,
    )


def run_overflow_nvm(seed: int, txs_per_thread: int, every: int) -> ShadowCheck:
    box = {}

    def instrument(system) -> None:
        check = box["check"] = ShadowCheck(system, every)
        run = system.run

        def armed_run(*args, **kwargs):
            check.arm()
            return run(*args, **kwargs)

        system.run = armed_run

    run_experiment(overflow_nvm_spec(seed, txs_per_thread), instrument=instrument)
    check = box["check"]
    check.crash_and_recover()
    return check


@pytest.mark.parametrize("seed", [16, 2020])
def test_overflow_nvm_recovers_like_the_shadow(seed):
    check = run_overflow_nvm(seed, txs_per_thread=8, every=250)
    assert check.controller.dram_cache.drains > 1000
    assert check.passes >= 4
    assert check.points >= 40
    # The log holds far fewer records than were appended.
    assert len(check.shadow) > 8 * 1024


@pytest.mark.parametrize("workload", sorted(CAMPAIGN_WORKLOADS))
def test_campaign_workloads_recover_like_the_shadow(workload):
    config = CampaignConfig(workload=workload, txs_per_thread=600, seed=3)
    system, _workload, _oracle = build_system(config)
    check = ShadowCheck(system, every=97)
    check.arm()
    system.run()
    check.crash_and_recover()
    assert check.passes >= 1
    assert check.points >= 10


@pytest.mark.parametrize("seed", range(8))
def test_random_controller_streams_recover_like_the_shadow(seed):
    """Transactions one after another on a four-line DRAM cache: each
    writes some words of one to three of twelve lines, may spill some of
    them first, then commits or aborts."""
    rng = random.Random(seed)
    controller = MemoryController(
        MemoryConfig(dram_cache_bytes=4 * LINE_SIZE), LatencyConfig()
    )
    check = ShadowCheck(controller, every=1)
    lines = [controller.address_space.nvm_heap.base + i * LINE_SIZE for i in range(12)]
    entries = controller.dram_cache._entries
    restores = 0
    for tx_id in range(1, 400):
        writes = {
            line: {
                line + 8 * slot: rng.randrange(1 << 20)
                for slot in rng.sample(range(8), rng.randrange(1, 4))
            }
            for line in rng.sample(lines, rng.randrange(1, 4))
        }
        spilled = [line for line in writes if rng.random() < 0.4]
        for line in spilled:
            controller.buffer_early_evicted_nvm(tx_id, line, dict(writes[line]))
        if rng.random() < 0.3:
            restores += sum(
                entries[line].committed_words is not None for line in spilled
            )
            controller.abort_nvm(tx_id, spilled)
        else:
            controller.commit_nvm_transaction(tx_id, writes)
        if rng.random() < 0.1:
            controller.nvm_log.reclaim_durable()
    assert restores > 0  # aborts that must give back an undrained commit
    assert check.passes > 20
    check.crash_and_recover()
