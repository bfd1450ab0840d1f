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
recur across transactions.  Each family therefore memoises the ``k``
indices of every line address, packed by page: a dict keyed by
``value >> 12`` whose values are typed arrays of ``64 * k`` slots, ``k``
per 64-byte line.  A slot holds ``buckets`` (never a valid index) until
its line is computed, so a line costs ``k`` array items (8 bytes for
``k = 4`` and at most 65,535 buckets) instead of a dict entry and a tuple,
and a warm probe is one dict hit and one ``itemgetter`` call.  Values that
are not line-aligned skip the memo; the simulator passes line addresses.
A family's outputs are a pure function of ``(functions, buckets, seed)``,
which also makes the instances themselves shareable:
:func:`shared_multiplicative` hands out one memoised family per parameter
triple instead of re-deriving multipliers for every transaction's
signature pair.
"""

from __future__ import annotations

from array import array
from operator import itemgetter
from typing import Dict, List, Sequence, Tuple

from ..sim.rng import RngStreams

_MASK64 = (1 << 64) - 1

_LINE_SHIFT = 6  # 64-byte lines
_PAGE_SHIFT = 12  # 4 KB pages: 64 lines each
_LINE_MASK = (1 << _LINE_SHIFT) - 1
_PAGE_MASK = (1 << _PAGE_SHIFT) - 1
_LINES_PER_PAGE = 1 << (_PAGE_SHIFT - _LINE_SHIFT)

#: Per-family memo capacity, in pages.  A page of a 4-function family
#: with at most 65,535 buckets measures about 660 bytes under tracemalloc
#: (the array, its key and its dict slot), so a full memo holds about
#: 2.7 MB and covers 262,144 lines: more than any perfbench workload
#: touches over its whole seed list (``long-scan`` needs up to about
#: 1,760).  A full memo is emptied and refills on demand: indices are a
#: pure function of the value, so eviction never changes an answer.
MEMO_PAGES = 1 << 12


class HashFamily:
    """Interface: k independent functions from 64-bit ints to [0, buckets).

    Subclasses implement :meth:`indices`; the base class layers the memoised
    fast path :meth:`indices_for` on top of it.
    """

    def __init__(self, functions: int, buckets: int) -> None:
        if functions < 1:
            raise ValueError("need at least one hash function")
        if buckets < 1:
            raise ValueError("need at least one bucket")
        self.functions = functions
        self.buckets = buckets
        # The narrowest unsigned type that holds ``buckets``, the marker of
        # a slot not yet computed (valid indices are below it).
        self._typecode = next(
            code for code in "HIQ" if buckets < 1 << 8 * array(code).itemsize
        )
        self._blank_page = array(self._typecode, [buckets]) * (
            _LINES_PER_PAGE * functions
        )
        # Per line, a getter of its ``k`` slots as a tuple: as cheap to build
        # as an array slice and cheaper to iterate, once per member in the
        # conflict sweep.  (``itemgetter`` of one item returns no tuple.)
        self._getters = tuple(
            itemgetter(*range(start, start + functions))
            if functions > 1
            else (lambda page, start=start: (page[start],))
            for start in range(0, _LINES_PER_PAGE * functions, functions)
        )
        self._pages: Dict[int, array] = {}

    def indices(self, value: int) -> Sequence[int]:
        raise NotImplementedError

    def indices_for(self, value: int) -> Sequence[int]:
        """The ``k`` indices of ``value``, memoised per line address.

        A line address gets its ``k`` slots of the memo page as a tuple;
        any other value gets :meth:`indices` computed afresh.
        """
        if value & _LINE_MASK:
            return self.indices(value)
        pages = self._pages
        number = value >> _PAGE_SHIFT
        page = pages.get(number)
        if page is None:
            if len(pages) >= MEMO_PAGES:
                pages.clear()
            page = pages[number] = self._blank_page[:]
        line = (value & _PAGE_MASK) >> _LINE_SHIFT
        key = self._getters[line](page)
        if key[0] == self.buckets:
            key = tuple(self.indices(value))
            start = line * self.functions
            page[start:start + self.functions] = array(self._typecode, key)
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
