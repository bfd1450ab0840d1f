"""Differential equivalence suite for the optimized hot-path modules.

Every module that was rewritten for speed is checked here against a
straightforward reference implementation on seeded random operation
streams: the optimized code must produce *exactly* the same observable
behaviour.  Two seeds per stream guard against a lucky sequence.
"""

from __future__ import annotations

import random
from collections import Counter, OrderedDict
from dataclasses import asdict
from types import SimpleNamespace

import pytest

from repro.cache.setassoc import SetAssociativeArray
from repro.errors import AddressError
from repro.htm import designs
from repro.mem.address import DRAM_BASE, NVM_BASE, MemoryKind
from repro.mem.backend import BackingStore
from repro.mem.dram_cache import DramCache
from repro.params import (
    CacheGeometry,
    LINE_SIZE,
    LatencyConfig,
    MemoryConfig,
    SignatureConfig,
    WORD_SIZE,
)
from repro.signatures.addresssig import SignaturePair
from repro.signatures.bloom import BankedBloomFilter, BloomFilter
from repro.signatures.hashing import MultiplicativeHashFamily
from repro.signatures.isolation import ConflictDomainRegistry
from repro.sim.stats import Histogram, StatsRegistry

SEEDS = (2020, 7)


# ---------------------------------------------------------------- signatures


class ReferenceBloom:
    """Either filter kind as a plain set of ``(bank, index)`` positions.

    A flat filter is one bank.  Indices come from the family's unmemoised
    :meth:`indices`, so the reference shares no state with the filter.
    """

    def __init__(self, family, banks: int = 1) -> None:
        self._family = family
        self._banks = banks
        self._positions: set = set()

    def positions(self, value: int) -> set:
        indices = self._family.indices(value)
        if self._banks == 1:
            return {(0, index) for index in indices}
        return set(enumerate(indices))

    def insert(self, value: int) -> None:
        self._positions |= self.positions(value)

    def maybe_contains(self, value: int) -> bool:
        return self.positions(value) <= self._positions

    def clear(self) -> None:
        self._positions = set()

    @property
    def popcount(self) -> int:
        return len(self._positions)

    def observed_false_positive_rate(self) -> float:
        if not self._positions:
            return 0.0
        bank_bits = self._family.buckets
        if self._banks == 1:
            return (len(self._positions) / bank_bits) ** self._family.functions
        rate = 1.0
        for bank in range(self._banks):
            occupied = sum(1 for b, _ in self._positions if b == bank)
            rate *= occupied / bank_bits
        return rate


def assert_filter_matches(optimized, reference, probes) -> None:
    assert optimized.popcount == reference.popcount
    assert optimized.is_empty() == (reference.popcount == 0)
    assert optimized.observed_false_positive_rate() == pytest.approx(
        reference.observed_false_positive_rate(), rel=1e-12
    )
    for value in probes:
        expected = reference.maybe_contains(value)
        assert optimized.maybe_contains(value) == expected, hex(value)
        key = optimized.probe_key(value)
        assert optimized.contains_key(key) == expected, hex(value)


def check_through_clear(optimized, reference, seed) -> None:
    """Insert, probe, clear and re-insert: every observable agrees."""
    rng = random.Random(seed)
    values = [rng.randrange(1 << 32) for _ in range(300)]
    assert_filter_matches(optimized, reference, values[:50])
    for value in values[:150]:
        optimized.insert(value)
        reference.insert(value)
    assert_filter_matches(optimized, reference, values)
    assert any(optimized.maybe_contains(v) for v in values[150:])
    optimized.clear()
    reference.clear()
    assert optimized.is_empty() and optimized.inserted == 0
    assert_filter_matches(optimized, reference, values)
    for value in values[200:260]:
        optimized.insert(value)
        reference.insert(value)
    assert_filter_matches(optimized, reference, values)


@pytest.mark.parametrize("seed", SEEDS)
def test_bloom_filter_matches_reference(seed):
    family = MultiplicativeHashFamily(4, 256)
    optimized = BloomFilter(256, 4, family=family)
    check_through_clear(optimized, ReferenceBloom(family), seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_banked_bloom_matches_per_bank_reference(seed):
    optimized = BankedBloomFilter(256, 4)
    check_through_clear(optimized, ReferenceBloom(optimized.family, 4), seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("banked", [False, True], ids=["flat", "banked"])
def test_signature_hits_match_reference(banked, seed):
    """The inlined probe loop of ``_signature_hits`` against the sets."""
    rng = random.Random(seed)
    config = SignatureConfig(bits=128, banked=banked)
    registry = ConflictDomainRegistry(isolation_enabled=True)
    references = {}
    for tx_id in range(1, 7):
        pair = SignaturePair(config)
        banks = 4 if banked else 1
        refs = (
            ReferenceBloom(pair.read_filter.family, banks),
            ReferenceBloom(pair.write_filter.family, banks),
        )
        # Transaction 6 stays empty: the probe must skip it.
        for _ in range(0 if tx_id == 6 else rng.randrange(5, 40)):
            line = rng.randrange(1 << 20) * LINE_SIZE
            if rng.random() < 0.5:
                pair.add_read(line)
                refs[0].insert(line)
            else:
                pair.add_write(line)
                refs[1].insert(line)
        registry.register(tx_id, 3, pair)
        references[tx_id] = (pair, refs)
    system = SimpleNamespace(
        domains=registry, stats=StatsRegistry(), tracer=None, tss=None
    )
    probes = [
        line for pair, _ in references.values() for line in pair.exact_write
    ]
    probes += [rng.randrange(1 << 20) * LINE_SIZE for _ in range(300)]
    expected_counts: Counter = Counter()
    for line in probes:
        is_write = rng.random() < 0.5
        exclude = rng.choice([None, 1, 6])
        hits = designs._signature_hits(system, 3, line, is_write, exclude)
        expected = []
        checked = 0
        for tx_id, (pair, (read_ref, write_ref)) in references.items():
            if tx_id == exclude or pair.is_empty():
                continue
            checked += 1
            if write_ref.maybe_contains(line) or (
                is_write and read_ref.maybe_contains(line)
            ):
                truly = line in pair.exact_write or (
                    is_write and line in pair.exact_read
                )
                expected.append((tx_id, truly))
                label = "sig.hits.true" if truly else "sig.hits.false"
                expected_counts[label] += 1
        expected_counts["sig.checks"] += checked
        assert hits == expected, hex(line)
    assert system.stats.snapshot() == expected_counts
    assert expected_counts["sig.hits.false"] > 0


# ---------------------------------------------------------------- setassoc


class ReferenceArray:
    """LRU set-associative tags on OrderedDicts, written for clarity."""

    def __init__(self, sets: int, ways: int) -> None:
        self._sets = [OrderedDict() for _ in range(sets)]
        self._num_sets = sets
        self._ways = ways
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _bucket(self, line_addr: int) -> OrderedDict:
        return self._sets[(line_addr // LINE_SIZE) % self._num_sets]

    def lookup(self, line_addr: int):
        bucket = self._bucket(line_addr)
        if line_addr not in bucket:
            self.misses += 1
            return None
        bucket.move_to_end(line_addr)
        self.hits += 1
        return bucket[line_addr]

    def peek(self, line_addr: int):
        return self._bucket(line_addr).get(line_addr)

    def install(self, line_addr: int):
        bucket = self._bucket(line_addr)
        victims = []
        while len(bucket) >= self._ways:
            victim_addr, victim = bucket.popitem(last=False)
            victims.append(victim_addr)
            self.evictions += 1
        bucket[line_addr] = line_addr
        return victims

    def remove(self, line_addr: int):
        return self._bucket(line_addr).pop(line_addr, None)

    def resident_lines(self):
        lines = []
        for bucket in self._sets:
            lines.extend(bucket.keys())
        return lines


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("sets,ways", [(4, 2), (3, 2), (8, 1)])
def test_setassoc_matches_reference(seed, sets, ways):
    """Power-of-two (mask path) and non-power-of-two (modulo path) sets."""
    rng = random.Random(seed)
    geometry = CacheGeometry(size_bytes=sets * ways * LINE_SIZE, ways=ways)
    assert geometry.num_sets == sets
    optimized = SetAssociativeArray(geometry, "diff")
    reference = ReferenceArray(sets, ways)
    lines = [i * LINE_SIZE for i in range(4 * sets * ways)]
    for _ in range(600):
        line = rng.choice(lines)
        op = rng.randrange(4)
        if op == 0:
            assert (optimized.lookup(line) is None) == (
                reference.lookup(line) is None
            )
        elif op == 1:
            assert (optimized.peek(line) is None) == (
                reference.peek(line) is None
            )
        elif op == 2:
            if optimized.peek(line) is None:
                victims = [v.line_addr for v in optimized.install(line)]
                assert victims == reference.install(line)
        else:
            removed = optimized.remove(line)
            assert (removed is None) == (reference.remove(line) is None)
        assert optimized.hits == reference.hits
        assert optimized.misses == reference.misses
        assert optimized.evictions == reference.evictions
    assert optimized.resident_lines() == reference.resident_lines()


# ---------------------------------------------------------------- histogram


@pytest.mark.parametrize("seed", SEEDS)
def test_histogram_matches_eager_reference(seed):
    """The deferred-flush histogram must equal an eagerly computed one."""
    rng = random.Random(seed)
    histogram = Histogram()
    recorded = []
    for step in range(500):
        value = rng.choice(
            [0.0, 0.5, 1.0, float(rng.randrange(1, 1 << 20)), 3.25e6]
        )
        histogram.record(value)
        recorded.append(value)
        if step % 97 == 0:  # interleave reads to exercise partial flushes
            assert histogram.count == len(recorded)
    assert histogram.count == len(recorded)
    assert histogram.mean == pytest.approx(sum(recorded) / len(recorded))
    assert histogram.max == max(recorded)

    top = 39
    expected_counts = [0] * 40
    for value in recorded:
        index = 0 if value < 1 else min(top, int(value).bit_length() - 1)
        expected_counts[index] += 1
    assert histogram.nonzero_buckets() == [
        (i, c) for i, c in enumerate(expected_counts) if c
    ]


# ---------------------------------------------------------------- dram cache


class _RecordingNvm:
    """Stands in for the NVM backing store; records bulk line stores."""

    def __init__(self) -> None:
        self.stored = []

    def store_line(self, words) -> None:
        self.stored.append(dict(sorted(words.items())))


class ReferenceDramCache:
    """The DRAM cache with the original front-to-back victim scan.

    An uncommitted fill over a committed line keeps the committed image,
    and invalidating the line restores it (the abort must not lose an
    undrained commit)."""

    def __init__(self, capacity_lines: int, nvm: _RecordingNvm) -> None:
        self._capacity = capacity_lines
        self._nvm = nvm
        self._entries: "OrderedDict[int, list]" = OrderedDict()
        # entry layout: [words, tx_id, committed, invalid, committed image]
        self.drains = 0
        self.overcommits = 0

    def lookup(self, line_addr: int):
        entry = self._entries.get(line_addr)
        if entry is None or entry[3]:
            return None
        self._entries.move_to_end(line_addr)
        return entry

    def fill(self, line_addr, words, tx_id, committed):
        entry = self._entries.get(line_addr)
        if entry is not None and not entry[3]:
            if not committed and entry[2]:
                entry[4] = dict(entry[0])
            elif committed:
                entry[4] = None
            entry[0].update(words)
            entry[1] = tx_id
            entry[2] = committed
            self._entries.move_to_end(line_addr)
            return
        self._entries[line_addr] = [dict(words), tx_id, committed, False, None]
        self._entries.move_to_end(line_addr)
        while len(self._entries) > self._capacity:
            victim = self._pick_victim()
            if victim is None:
                self.overcommits += 1
                break
            self._drain(victim)

    def mark_committed(self, line_addr, tx_id):
        entry = self._entries.get(line_addr)
        if entry is None or entry[3] or entry[1] != tx_id:
            return False
        entry[2] = True
        entry[4] = None
        return True

    def invalidate(self, line_addr, tx_id):
        entry = self._entries.get(line_addr)
        if entry is None or entry[1] != tx_id or entry[2]:
            return False
        if entry[4] is not None:
            entry[:] = [entry[4], None, True, False, None]
        else:
            entry[3] = True
        return True

    def _pick_victim(self):
        for line_addr, entry in self._entries.items():  # LRU order
            if entry[3] or entry[2]:
                return line_addr
        return None

    def _drain(self, line_addr):
        entry = self._entries.pop(line_addr)
        if entry[3]:
            return
        self._nvm.store_line(entry[0])
        self.drains += 1

    def resident_lines(self):
        return [
            (addr, entry[2], entry[3])
            for addr, entry in self._entries.items()
        ]


@pytest.mark.parametrize("seed", SEEDS)
def test_dram_cache_heap_victim_matches_scan_reference(seed):
    """The lazy-heap victim picker must evict exactly what the scan did."""
    rng = random.Random(seed)
    capacity = 8
    config = MemoryConfig(dram_cache_bytes=capacity * LINE_SIZE)
    real_nvm = _RecordingNvm()
    ref_nvm = _RecordingNvm()
    optimized = DramCache(config, real_nvm)
    assert optimized.capacity_lines == capacity
    reference = ReferenceDramCache(capacity, ref_nvm)

    lines = [i * LINE_SIZE for i in range(32)]
    tx_ids = [1, 2, 3]
    for _ in range(800):
        line = rng.choice(lines)
        tx = rng.choice(tx_ids)
        op = rng.randrange(3)
        if op == 0:
            words = {line + 8 * k: rng.randrange(1 << 16) for k in range(2)}
            committed = rng.random() < 0.5
            optimized.fill(line, words, tx, committed)
            reference.fill(line, words, tx, committed)
        elif op == 1:
            assert optimized.invalidate(line, tx) == reference.invalidate(
                line, tx
            )
        else:
            assert (optimized.lookup(line) is None) == (
                reference.lookup(line) is None
            )
        assert optimized.resident_lines() == reference.resident_lines()
        assert optimized.drains == reference.drains
        assert optimized.overcommits == reference.overcommits
        assert real_nvm.stored == ref_nvm.stored


# ---------------------------------------------------------------- backing store

_WORD_MASK = ~(WORD_SIZE - 1)
#: Zero, then the corners of the signed 64-bit range a word holds.
EXTREME_VALUES = (0, -1, (1 << 63) - 1, -(1 << 63))


def fits_word(value: int) -> bool:
    return -(1 << 63) <= value < (1 << 63)


class ReferenceStore:
    """The dict-of-words backing store the paged one replaced."""

    def __init__(self):
        self.cells = {}

    def load(self, addr):
        return self.cells.get(addr & _WORD_MASK, 0)

    def store(self, addr, value):
        self.cells[addr & _WORD_MASK] = value

    def nonzero(self):
        return {addr: value for addr, value in self.cells.items() if value}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", [MemoryKind.DRAM, MemoryKind.NVM], ids=["dram", "nvm"])
def test_paged_store_matches_dict_reference(kind, seed):
    """Every operation on the paged store against a plain word dict, on
    words either side of page boundaries."""
    rng = random.Random(seed)
    paged = BackingStore(kind, LatencyConfig())
    reference = ReferenceStore()
    base = DRAM_BASE if kind is MemoryKind.DRAM else NVM_BASE
    words = [
        base + page * 4096 + offset
        for page in (1, 2, 9)
        for offset in range(-2 * LINE_SIZE, 2 * LINE_SIZE, WORD_SIZE)
    ]

    def value():
        if rng.random() < 0.5:
            return rng.choice(EXTREME_VALUES)
        return rng.randrange(-1000, 1000)

    for step in range(3000):
        addr = rng.choice(words) + rng.randrange(WORD_SIZE)
        op = rng.randrange(10)
        if op < 3:
            v = value()
            paged.store(addr, v)
            reference.store(addr, v)
        elif op < 6:
            assert paged.load(addr) == reference.load(addr)
        elif op < 8:
            delta = rng.choice((1, -1, rng.randrange(-1000, 1000)))
            total = reference.load(addr) + delta
            if fits_word(total):
                paged.rmw(addr, delta)
                reference.store(addr, total)
            else:
                with pytest.raises(AddressError):
                    paged.rmw(addr, delta)
        elif op < 9:
            line = addr & ~(LINE_SIZE - 1)
            image = {
                line + k * WORD_SIZE: value()
                for k in sorted(rng.sample(range(8), rng.randrange(1, 9)))
            }
            paged.store_line(image)
            for word_addr, v in image.items():
                reference.store(word_addr, v)
        elif rng.random() < 0.05:
            paged.wipe()
            reference.cells.clear()
        if step % 50 == 0 or op == 9:
            expected = reference.nonzero()
            assert dict(paged.words()) == expected
            assert paged.word_count() == len(expected)
            snapshot = paged.clone_contents()
            assert snapshot == expected
            paged.store(words[0], 12345)
            assert snapshot == expected  # a copy, not a view
            reference.store(words[0], 12345)
    assert dict(paged.words()) == reference.nonzero()


# ---------------------------------------------------------------- end to end


@pytest.mark.parametrize("seed", SEEDS)
def test_end_to_end_metrics_are_deterministic(seed):
    """Two identical runs produce bit-identical metric dicts (per seed)."""
    from repro.harness.config import ExperimentSpec, consolidated
    from repro.harness.runner import run_experiment
    from repro.params import HTMConfig
    from repro.workloads import WorkloadParams

    spec = ExperimentSpec(
        name="diff-e2e",
        htm=HTMConfig(),
        benchmarks=consolidated(
            "hashmap",
            2,
            WorkloadParams(
                threads=2,
                txs_per_thread=2,
                value_bytes=16 << 10,
                keys=64,
                initial_fill=16,
            ),
        ),
        scale=1 / 64,
        seed=seed,
    )
    first = asdict(run_experiment(spec))
    second = asdict(run_experiment(spec))
    assert first == second
    assert first["commits"] > 0
