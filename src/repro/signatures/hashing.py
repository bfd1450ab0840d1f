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
UHTM; every access in signature-only designs), so the multiplicative family
computes all ``k`` of its functions in one pass over one packed integer:
its multipliers sit 128 bits apart, each 64-bit lane is mixed in place, and
one ``to_bytes`` plus one precompiled ``struct`` unpack reads the lanes out
as a tuple.  A call keeps no per-value state, so memory does not grow with
the addresses hashed.  A family's outputs are a pure function of
``(functions, buckets, seed)``, which makes the instances shareable:
:func:`shared_multiplicative` hands out one family per parameter triple
instead of re-deriving multipliers for every transaction's signature pair.
"""

from __future__ import annotations

from struct import Struct
from typing import Dict, List, Sequence, Tuple

from ..sim.rng import RngStreams

_MASK64 = (1 << 64) - 1

#: Lane pitch of the packed pass: a 64-bit lane times a 64-bit constant
#: fits 128 bits, so no product carries into the next lane.
_LANE_BITS = 128

_MIX = 0xFF51AFD7ED558CCD


def _packed(fields: Sequence[int]) -> int:
    """``fields`` as one integer, field ``i`` at bit ``128 * i``."""
    return sum(field << _LANE_BITS * i for i, field in enumerate(fields))


class HashFamily:
    """Interface: k independent functions from 64-bit ints to [0, buckets)."""

    def __init__(self, functions: int, buckets: int) -> None:
        if functions < 1:
            raise ValueError("need at least one hash function")
        if buckets < 1:
            raise ValueError("need at least one bucket")
        self.functions = functions
        self.buckets = buckets

    def indices(self, value: int) -> Sequence[int]:
        raise NotImplementedError


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
    """Per-function odd multipliers with xor-shift finalisation.

    Function ``i`` maps ``v`` to ``mix(v * m_i mod 2**64) % buckets``, where
    ``mix`` is ``h ^= h >> 33; h *= 0xFF51AFD7ED558CCD; h ^= h >> 33`` on 64
    bits.  :meth:`indices` runs all ``k`` of them as one packed pass.
    """

    def __init__(self, functions: int, buckets: int, seed: int = 0x5EED) -> None:
        super().__init__(functions, buckets)
        rng = RngStreams(seed).stream("signatures.multipliers")
        multipliers = [
            (rng.getrandbits(64) | 1) & _MASK64 for _ in range(functions)
        ]
        self._multipliers = _packed(multipliers)
        self._lanes = _packed([_MASK64] * functions)
        # A power-of-two width reduces every lane with one packed mask; any
        # other width keeps whole lanes and takes ``%`` per index.
        self._modulo = bool(buckets & (buckets - 1))
        self._out = (
            self._lanes if self._modulo else _packed([buckets - 1] * functions)
        )
        self._width = functions * _LANE_BITS // 8
        self._unpack = Struct("<" + "Q8x" * functions).unpack

    def indices(self, value: int) -> Tuple[int, ...]:
        lanes = self._lanes
        h = ((value & _MASK64) * self._multipliers) & lanes
        h ^= (h >> 33) & lanes
        h = (h * _MIX) & lanes
        h = (h ^ h >> 33) & self._out
        out = self._unpack(h.to_bytes(self._width, "little"))
        if self._modulo:
            buckets = self.buckets
            return tuple([index % buckets for index in out])
        return out


#: Shared multiplicative families, one per (functions, buckets, seed).  A
#: family's multipliers — and hence every output — are derived solely from
#: these three parameters, so sharing an instance across the thousands of
#: per-transaction signature pairs is behaviour-neutral.
_SHARED_FAMILIES: Dict[Tuple[int, int, int], MultiplicativeHashFamily] = {}


def shared_multiplicative(
    functions: int, buckets: int, seed: int
) -> MultiplicativeHashFamily:
    """The process-wide family for ``(functions, buckets, seed)``."""
    key = (functions, buckets, seed)
    family = _SHARED_FAMILIES.get(key)
    if family is None:
        family = MultiplicativeHashFamily(functions, buckets, seed=seed)
        _SHARED_FAMILIES[key] = family
    return family
