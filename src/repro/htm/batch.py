"""Compatibility stub: block operations have no dispatcher of their own.

A block is a loop inside the per-op methods of
:class:`~repro.htm.base.HTMSystem` (``tx_read``/``tx_write`` take an
``nbytes`` span, ``nontx_rmw`` an address list), so the runtime's block
calls go straight there.  The ``perfbench/`` harness still imports
:class:`BatchDispatcher` and wraps its three methods by name, so the class
stays, forwarding to ``HTMSystem``, until the harness drops it.
"""

from __future__ import annotations

from typing import Iterable

from .base import HTMSystem, TxHandle


class BatchDispatcher:
    """The former block dispatcher's three methods, forwarding to ``htm``."""

    def __init__(self, htm: HTMSystem) -> None:
        self.htm = htm

    def tx_write_block(
        self, tx: TxHandle, addr: int, nbytes: int, tag: int
    ) -> None:
        self.htm.tx_write(tx, addr, tag, nbytes)

    def tx_read_block(self, tx: TxHandle, addr: int, nbytes: int) -> int:
        return self.htm.tx_read(tx, addr, nbytes)

    def nontx_rmw_block(
        self, thread, core_id: int, domain_id: int, addrs: Iterable[int], delta: int
    ) -> None:
        self.htm.nontx_rmw(thread, core_id, domain_id, addrs, delta)
