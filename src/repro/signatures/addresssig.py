"""Per-transaction read/write address signatures.

"Each transaction has separate read- and write-signature" (Section IV-D).
Alongside the Bloom filters we keep *exact* shadow sets of the inserted line
addresses.  The hardware has no such sets — they exist purely so the harness
can label each signature hit as a true conflict or a false positive when
decomposing abort causes for Figure 7, and so the Ideal design can detect
conflicts perfectly.
"""

from __future__ import annotations

from typing import Optional, Set

from ..params import SignatureConfig
from .bloom import BankedBloomFilter, BloomFilter
from .hashing import HashFamily, shared_multiplicative


class SignaturePair:
    """Read and write signatures for one transaction (or core)."""

    def __init__(
        self,
        config: SignatureConfig,
        scale: float = 1.0,
        family: Optional[HashFamily] = None,
    ) -> None:
        # Families are shared per (functions, buckets, seed): one transaction
        # begins per retry attempt, and re-deriving multipliers each time was
        # a measurable share of the begin path.
        bits = config.effective_bits(scale)
        if config.banked:
            bits -= bits % config.hash_functions or 0
            bits = max(config.hash_functions, bits)
            bank_bits = bits // config.hash_functions
            self.read_filter = BankedBloomFilter(
                bits,
                config.hash_functions,
                family
                or shared_multiplicative(
                    config.hash_functions, bank_bits, seed=0x5EED
                ),
            )
            self.write_filter = BankedBloomFilter(
                bits,
                config.hash_functions,
                family
                or shared_multiplicative(
                    config.hash_functions, bank_bits, seed=0xC0FFEE
                ),
            )
        else:
            if family is not None:
                read_family = write_family = family
            else:
                read_family = shared_multiplicative(
                    config.hash_functions, bits, seed=0x5EED
                )
                write_family = shared_multiplicative(
                    config.hash_functions, bits, seed=0xC0FFEE
                )
            self.read_filter = BloomFilter(
                bits, config.hash_functions, read_family
            )
            self.write_filter = BloomFilter(
                bits, config.hash_functions, write_family
            )
        #: Ground-truth shadow sets (accounting / Ideal design only).
        self.exact_read: Set[int] = set()
        self.exact_write: Set[int] = set()

    # -- inserts -------------------------------------------------------------

    def add_read(self, line_addr: int) -> None:
        self.read_filter.insert(line_addr)
        self.exact_read.add(line_addr)

    def add_write(self, line_addr: int) -> None:
        self.write_filter.insert(line_addr)
        self.exact_write.add(line_addr)

    # -- queries -------------------------------------------------------------

    def read_may_contain(self, line_addr: int) -> bool:
        return self.read_filter.maybe_contains(line_addr)

    def write_may_contain(self, line_addr: int) -> bool:
        return self.write_filter.maybe_contains(line_addr)

    def conflicts_with_access(self, line_addr: int, is_write: bool) -> bool:
        """Would this signature flag the given incoming access?

        A read of the line conflicts with our *writes*; a write conflicts
        with our writes **or** reads (RAW / WAW / WAR).
        """
        if self.write_may_contain(line_addr):
            return True
        if is_write and self.read_may_contain(line_addr):
            return True
        return False

    def truly_conflicts_with_access(self, line_addr: int, is_write: bool) -> bool:
        """Ground truth for the same question, from the shadow sets."""
        if line_addr in self.exact_write:
            return True
        if is_write and line_addr in self.exact_read:
            return True
        return False

    def is_empty(self) -> bool:
        return not self.exact_read and not self.exact_write

    def clear(self) -> None:
        self.read_filter.clear()
        self.write_filter.clear()
        self.exact_read.clear()
        self.exact_write.clear()

    @property
    def footprint_lines(self) -> int:
        return len(self.exact_read | self.exact_write)
