"""Hash families for hardware Bloom-filter signatures.

Two implementations of the same interface:

* :class:`H3HashFamily` — the classic hardware H3 scheme (per-input-bit
  random masks XOR-folded into the output), the family Bulk and LogTM-SE
  assume.  Faithful but slow in Python; used in tests to validate the fast
  family's statistics.
* :class:`MultiplicativeHashFamily` — Fibonacci-style multiplicative mixing
  with per-function odd constants.  Statistically equivalent uniformity for
  line addresses at a fraction of the cost; the default in simulations.

Signature checks sit on the simulator's hottest path (every LLC miss in
UHTM; every access in signature-only designs), and the same line addresses
recur across transactions.  Each family therefore memoises the tuple of
``k`` indices per input value in one plain dict, bounded at
:data:`MEMO_CAPACITY` entries, so a warm probe is one dict hit instead of
``k`` multiply/mix/mod rounds.  A family only ever produces ``buckets``
distinct index values, so the memo's tuples point at one shared ``int``
object per value instead of each owning ``k`` private ones (indices above
256 are outside CPython's small-int cache).  A family's outputs are a pure
function of ``(functions, buckets, seed)``, which also makes the instances
themselves shareable: :func:`shared_multiplicative` hands out one memoised
family per parameter triple instead of re-deriving multipliers for every
transaction's signature pair.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..sim.rng import RngStreams

_MASK64 = (1 << 64) - 1

#: Per-family memo capacity.  An entry (the value, its 4-index tuple of
#: shared ints and the dict slot) measures about 160 bytes under
#: tracemalloc, so a full memo holds about 10 MB.  A full memo is emptied
#: and refills on demand: indices are a pure function of the value, so
#: eviction never changes an answer.
MEMO_CAPACITY = 1 << 16


class HashFamily:
    """Interface: k independent functions from 64-bit ints to [0, buckets).

    Subclasses implement :meth:`indices`; the base class layers the memoised
    fast path :meth:`indices_for` (the tuple of k indices) on top of it.
    """

    def __init__(self, functions: int, buckets: int) -> None:
        if functions < 1:
            raise ValueError("need at least one hash function")
        if buckets < 1:
            raise ValueError("need at least one bucket")
        self.functions = functions
        self.buckets = buckets
        self._memo: Dict[int, Tuple[int, ...]] = {}
        # One shared int object per index value, so memo tuples do not
        # each own k private ints; at most ``buckets`` entries, never cleared.
        self._interned: Dict[int, int] = {}

    def indices(self, value: int) -> Sequence[int]:
        raise NotImplementedError

    def indices_for(self, value: int) -> Tuple[int, ...]:
        """``tuple(self.indices(value))``, memoised per value."""
        memo = self._memo
        key = memo.get(value)
        if key is None:
            if len(memo) >= MEMO_CAPACITY:
                memo.clear()
            idx = self.indices(value)
            key = memo[value] = tuple(map(self._interned.setdefault, idx, idx))
        return key


class H3HashFamily(HashFamily):
    """H3: output = XOR of random masks selected by the input's set bits."""

    INPUT_BITS = 48  # physical line addresses fit comfortably

    def __init__(self, functions: int, buckets: int, seed: int = 0x5EED) -> None:
        super().__init__(functions, buckets)
        rng = RngStreams(seed).stream("signatures.h3_masks")
        self._masks: List[List[int]] = [
            [rng.getrandbits(32) for _ in range(self.INPUT_BITS)]
            for _ in range(functions)
        ]

    def indices(self, value: int) -> Sequence[int]:
        out = []
        for masks in self._masks:
            acc = 0
            v = value & _MASK64
            bit = 0
            while v and bit < self.INPUT_BITS:
                if v & 1:
                    acc ^= masks[bit]
                v >>= 1
                bit += 1
            out.append(acc % self.buckets)
        return out


class MultiplicativeHashFamily(HashFamily):
    """Per-function odd multipliers with xor-shift finalisation."""

    def __init__(self, functions: int, buckets: int, seed: int = 0x5EED) -> None:
        super().__init__(functions, buckets)
        rng = RngStreams(seed).stream("signatures.multipliers")
        self._multipliers = [
            (rng.getrandbits(64) | 1) & _MASK64 for _ in range(functions)
        ]

    def indices(self, value: int) -> Sequence[int]:
        out = []
        v = value & _MASK64
        buckets = self.buckets
        for multiplier in self._multipliers:
            h = (v * multiplier) & _MASK64
            h ^= h >> 33
            h = (h * 0xFF51AFD7ED558CCD) & _MASK64
            h ^= h >> 33
            out.append(h % buckets)
        return out


#: Shared multiplicative families, one per (functions, buckets, seed).  A
#: family's multipliers — and hence every output — are derived solely from
#: these three parameters, so sharing an instance (and its warm memo) across
#: the thousands of per-transaction signature pairs is behaviour-neutral.
_SHARED_FAMILIES: Dict[Tuple[int, int, int], MultiplicativeHashFamily] = {}


def shared_multiplicative(
    functions: int, buckets: int, seed: int
) -> MultiplicativeHashFamily:
    """The process-wide memoised family for ``(functions, buckets, seed)``."""
    key = (functions, buckets, seed)
    family = _SHARED_FAMILIES.get(key)
    if family is None:
        family = MultiplicativeHashFamily(functions, buckets, seed=seed)
        _SHARED_FAMILIES[key] = family
    return family
