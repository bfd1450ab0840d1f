"""A bit-array Bloom filter, the substrate of an address signature."""

from __future__ import annotations

import math
from operator import add
from typing import Iterable, Optional, Sequence, Tuple

from .hashing import HashFamily, MultiplicativeHashFamily


class BloomFilter:
    """A fixed-width Bloom filter backed by a byte array, one byte per bit.

    Signature checks sit on the simulator's hottest path (every LLC miss in
    UHTM; every access in signature-only designs).  Insert and probe both
    go through the hash family's memoised per-line indices (``k`` slots of
    the family's page memo), so a warm insert sets ``k`` bytes and a warm
    probe tests at most ``k`` bytes, stopping at the first clear one.  A
    4096-bit filter costs 4 KB per instance; only the indices are shared
    and memoised.  ``probe_key`` is the family's
    :meth:`~.hashing.HashFamily.indices_for` itself, bound per instance, so
    a probe adds no call frame of its own.
    """

    def __init__(
        self,
        bits: int,
        hash_functions: int,
        family: Optional[HashFamily] = None,
    ) -> None:
        if bits < 1:
            raise ValueError("filter must have at least one bit")
        self.bits = bits
        self.family = family or MultiplicativeHashFamily(hash_functions, bits)
        if self.family.buckets != bits:
            raise ValueError("hash family buckets must equal filter bits")
        #: One byte per bit, 0 or 1.  Callers may read it, never write it.
        self.array = bytearray(bits)
        self._inserted = 0
        #: The byte offsets in :attr:`array` that a value maps to.
        self.probe_key = self.family.indices_for

    @property
    def inserted(self) -> int:
        """Number of insert calls (not distinct elements)."""
        return self._inserted

    @property
    def popcount(self) -> int:
        """Number of set bits (occupancy)."""
        return self.array.count(1)

    @property
    def saturation(self) -> float:
        """Fraction of bits set, in [0, 1]."""
        return self.popcount / len(self.array)

    def insert(self, value: int) -> None:
        array = self.array
        for index in self.probe_key(value):
            array[index] = 1
        self._inserted += 1

    def insert_all(self, values: Iterable[int]) -> None:
        insert = self.insert
        for value in values:
            insert(value)

    def maybe_contains(self, value: int) -> bool:
        return self.contains_key(self.probe_key(value))

    # -- key-based probing --------------------------------------------------
    #
    # When one value is probed against *many* filters sharing a hash family
    # (the off-chip conflict sweep checks every active transaction in a
    # domain), the hash work can be done once and the per-filter test
    # reduced to ``k`` byte reads.  ``probe_key`` computes the reusable key
    # (the byte offsets to test); ``contains_key`` applies it.

    def contains_key(self, key: Sequence[int]) -> bool:
        """Membership test with a precomputed :meth:`probe_key` token."""
        array = self.array
        for index in key:
            if not array[index]:
                return False
        return True

    def clear(self) -> None:
        self.array = bytearray(len(self.array))
        self._inserted = 0

    def is_empty(self) -> bool:
        return 1 not in self.array

    def expected_false_positive_rate(self) -> float:
        """The analytic ``(1 - e^{-kn/m})^k`` estimate from insert count.

        ``n`` is the number of inserts, ``m`` the filter width, ``k`` the
        hash-function count — the textbook prediction of what the filter's
        false-positive rate *should* be after ``n`` random insertions.
        Compare with :meth:`observed_false_positive_rate`, which reads the
        actual bit array.  A banked filter has the same asymptotic form:
        each of its ``k`` banks of ``m/k`` bits sees one hash per insert, so
        a bank bit stays clear with probability ``(1 - k/m)^n`` (banking
        costs only a lower-order term).
        """
        if self._inserted == 0:
            return 0.0
        k = self.family.functions
        return (1.0 - math.exp(-k * self._inserted / self.bits)) ** k

    def observed_false_positive_rate(self) -> float:
        """The occupancy-based ``(popcount/m)^k`` rate of *this* bit array.

        A uniformly random probe hits ``k`` independent bit positions; each
        is set with probability equal to the measured occupancy, so this is
        the aliasing probability the filter actually exhibits (the analytic
        estimate assumes ideal hashing and distinct keys).
        """
        if self._inserted == 0:
            return 0.0
        k = self.family.functions
        return self.saturation**k


class BankedBloomFilter(BloomFilter):
    """A partitioned (banked) Bloom filter, as hardware signatures build it.

    LogTM-SE and Bulk implement signatures as ``k`` independent SRAM banks
    of ``m/k`` bits, one hash function per bank — single-ported banks can
    then be probed in parallel.  Statistically the banked design has a
    marginally higher false-positive rate than a flat filter of equal total
    size; the ``signature-design`` ablation benchmark quantifies it.

    The banks are consecutive slices of one byte array, bank ``b`` at
    offset ``b * bank_bits``.  :meth:`probe_key` adds those offsets to the
    family's per-bank indices, so insert, probe and clear are the flat
    filter's.
    """

    def __init__(
        self,
        bits: int,
        hash_functions: int,
        family: Optional[HashFamily] = None,
    ) -> None:
        if bits < hash_functions:
            raise ValueError("need at least one bit per bank")
        bank_bits = bits // hash_functions
        self.bits = bits
        self.banks = hash_functions
        self._bank_bits = bank_bits
        self._offsets = tuple(range(0, bank_bits * hash_functions, bank_bits))
        self.family = family or MultiplicativeHashFamily(
            hash_functions, bank_bits
        )
        if self.family.buckets != bank_bits:
            raise ValueError("hash family buckets must equal bank width")
        self.array = bytearray(bank_bits * hash_functions)
        self._inserted = 0

    def probe_key(self, value: int) -> Tuple[int, ...]:
        """One byte offset per bank: bank offset plus the bank's index."""
        return tuple(map(add, self.family.indices_for(value), self._offsets))

    def observed_false_positive_rate(self) -> float:
        """Product of per-bank occupancies: the aliasing rate of a random
        probe against *this* filter's banks (one bit tested per bank).
        """
        if self._inserted == 0:
            return 0.0
        rate = 1.0
        array = self.array
        bank_bits = self._bank_bits
        for start in self._offsets:
            rate *= array.count(1, start, start + bank_bits) / bank_bits
        return rate
