"""Word-addressed backing stores for DRAM and NVM.

A :class:`BackingStore` holds the *globally visible* contents of one medium
and knows its read/write latencies.  Like the modelled machine, a medium is
made of signed 64-bit words: stores of anything else raise
:class:`~repro.errors.AddressError`.

The contents are paged.  ``pages`` maps a 4 KB page number
(``addr >> PAGE_SHIFT``) to an ``array('q')`` of that page's 512 words, and a
word sits at slot ``(addr >> 3) & SLOT_MASK`` of its page.  A page is made,
zero-filled, by the first store into it.  Unwritten words read as zero, like
zero-initialised physical memory, so a stored zero cannot be told from a
word never written: :meth:`~BackingStore.words`,
:meth:`~BackingStore.word_count` and :meth:`~BackingStore.clone_contents`
report the *nonzero* words.  A written page costs about 8 B a word, so
the contents of a long scan stay small.

The NVM store survives a simulated crash; the DRAM store is wiped.  The heap
stores keys, payload words, and pointers encoded as addresses.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, Tuple

from ..errors import AddressError
from ..params import LatencyConfig, WORD_SIZE
from .address import MemoryKind

#: ``addr >> PAGE_SHIFT`` is the page number of a byte address.
PAGE_SHIFT = 12
#: Words per page.
PAGE_WORDS = (1 << PAGE_SHIFT) // WORD_SIZE
#: ``(addr >> WORD_SHIFT) & SLOT_MASK`` is a word's slot within its page.
WORD_SHIFT = WORD_SIZE.bit_length() - 1
SLOT_MASK = PAGE_WORDS - 1

#: Copied (a memcpy) to make each new page.
_ZERO_PAGE = array("q", bytes(1 << PAGE_SHIFT))


def _overflow(value: int) -> AddressError:
    return AddressError(f"{value} does not fit a signed 64-bit word")


class BackingStore:
    """The contents and timing of one physical memory medium."""

    def __init__(self, kind: MemoryKind, latency: LatencyConfig) -> None:
        self.kind = kind
        #: Page number -> the page's words.  The memory controller reads it
        #: directly on every load, so it is only ever mutated in place.
        self.pages: Dict[int, array] = {}
        # Plain attributes, not properties: read on every memory access.
        if kind is MemoryKind.DRAM:
            self.read_ns = latency.dram_ns
            self.write_ns = latency.dram_ns
        else:
            self.read_ns = latency.nvm_read_ns
            self.write_ns = latency.nvm_write_ns

    def load(self, addr: int) -> int:
        """Read the 64-bit word containing ``addr``."""
        page = self.pages.get(addr >> PAGE_SHIFT)
        if page is None:
            return 0
        return page[(addr >> WORD_SHIFT) & SLOT_MASK]

    def store(self, addr: int, value: int) -> None:
        """Write the 64-bit word containing ``addr``."""
        if not isinstance(value, int):
            raise AddressError(f"stores take int values, got {type(value).__name__}")
        # The page lookup is inlined here and below: stores build every
        # workload's initial data structures.
        page = self.pages.get(addr >> PAGE_SHIFT)
        if page is None:
            page = self.pages[addr >> PAGE_SHIFT] = _ZERO_PAGE[:]
        try:
            page[(addr >> WORD_SHIFT) & SLOT_MASK] = value
        except OverflowError:
            raise _overflow(value) from None

    def rmw(self, addr: int, delta: int) -> None:
        """Fused read-modify-write of one word: load + store in one call.

        Exactly ``store(addr, load(addr) + delta)``; the non-transactional
        read-modify-write sweep (``HTMSystem.nontx_rmw``) issues it per
        address, paying one method call instead of two (the value is an int
        by construction, so the store-side type check is vacuous).
        """
        page = self.pages.get(addr >> PAGE_SHIFT)
        if page is None:
            page = self.pages[addr >> PAGE_SHIFT] = _ZERO_PAGE[:]
        slot = (addr >> WORD_SHIFT) & SLOT_MASK
        try:
            page[slot] += delta
        except OverflowError:
            raise _overflow(page[slot] + delta) from None

    def store_line(self, words: Dict[int, int]) -> None:
        """Bulk store of already word-aligned (addr, value) pairs.

        The DRAM-cache drain path writes whole line images, so the per-word
        type check would be pure overhead (the range check is the page
        array's own and costs nothing extra).  This writes the pages itself
        rather than calling :meth:`store` per word: wear accounting wraps
        both methods and would count every word twice.
        """
        pages = self.pages
        try:
            for addr, value in words.items():
                page = pages.get(addr >> PAGE_SHIFT)
                if page is None:
                    page = pages[addr >> PAGE_SHIFT] = _ZERO_PAGE[:]
                page[(addr >> WORD_SHIFT) & SLOT_MASK] = value
        except OverflowError:
            raise _overflow(value) from None

    def words(self) -> Iterator[Tuple[int, int]]:
        """Iterate over the (word address, value) pairs that are nonzero."""
        for number, page in self.pages.items():
            base = number << PAGE_SHIFT
            for slot, value in enumerate(page):
                if value:
                    yield base + (slot << WORD_SHIFT), value

    def word_count(self) -> int:
        """Number of nonzero words."""
        return sum(PAGE_WORDS - page.count(0) for page in self.pages.values())

    def wipe(self) -> None:
        """Lose all contents (power failure on a volatile medium)."""
        self.pages.clear()

    def clone_contents(self) -> Dict[int, int]:
        """Snapshot of the nonzero words (recovery tests' ground truth)."""
        return dict(self.words())
