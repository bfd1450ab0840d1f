"""Word-addressed backing stores for DRAM and NVM.

A :class:`BackingStore` holds the *globally visible* contents of one medium
as a sparse word-address → value map, and knows its read/write latencies.
Unwritten words read as zero, like zero-initialised physical memory.

The NVM store survives a simulated crash; the DRAM store is wiped.  Values
are opaque Python ints (the heap stores 64-bit words: keys, payload words,
and pointers encoded as addresses).
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from ..errors import AddressError
from ..params import LatencyConfig, WORD_SIZE
from .address import MemoryKind

#: Word-alignment mask, inlined on the load/store hot path (``word_of`` as a
#: function call was measurable at access frequency).
_WORD_MASK = ~(WORD_SIZE - 1)


class BackingStore:
    """The contents and timing of one physical memory medium."""

    def __init__(self, kind: MemoryKind, latency: LatencyConfig) -> None:
        self.kind = kind
        self._words: Dict[int, int] = {}
        # Plain attributes, not properties: read on every memory access.
        if kind is MemoryKind.DRAM:
            self.read_ns = latency.dram_ns
            self.write_ns = latency.dram_ns
        else:
            self.read_ns = latency.nvm_read_ns
            self.write_ns = latency.nvm_write_ns

    def load(self, addr: int) -> int:
        """Read the 64-bit word containing ``addr``."""
        return self._words.get(addr & _WORD_MASK, 0)

    def store(self, addr: int, value: int) -> None:
        """Write the 64-bit word containing ``addr``."""
        if not isinstance(value, int):
            raise AddressError(f"stores take int values, got {type(value).__name__}")
        self._words[addr & _WORD_MASK] = value

    def rmw(self, addr: int, delta: int) -> None:
        """Fused read-modify-write of one word: load + store in one call.

        Exactly ``store(addr, load(addr) + delta)``; the non-transactional
        read-modify-write sweep (``HTMSystem.nontx_rmw``) issues it per
        address, paying one method call and one mask instead of two of each
        (the value is an int by construction, so the store-side type check
        is vacuous).
        """
        key = addr & _WORD_MASK
        words = self._words
        words[key] = words.get(key, 0) + delta

    def store_line(self, words: Dict[int, int]) -> None:
        """Bulk store of already word-aligned, validated (addr, value) pairs.

        The DRAM-cache drain path writes whole line images whose keys came
        through :meth:`store`-validated write buffers, so the per-word
        alignment and type checks would be pure overhead.
        """
        self._words.update(words)

    def words(self) -> Iterator[Tuple[int, int]]:
        """Iterate over (word address, value) pairs that were written."""
        return iter(self._words.items())

    def word_count(self) -> int:
        return len(self._words)

    def wipe(self) -> None:
        """Lose all contents (power failure on a volatile medium)."""
        self._words.clear()

    def clone_contents(self) -> Dict[int, int]:
        """Snapshot contents (used by recovery tests as ground truth)."""
        return dict(self._words)
