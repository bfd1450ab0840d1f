"""Compatibility stub: the simulator has one execution engine.

Its only caller is the ``perfbench/`` benchmark harness, which asks
``kit_for(None).batched`` to decide whether to time the epoch dispatcher's
block loops.  Fused epochs are always on, so the answer is always yes.
"""

from types import SimpleNamespace

_KIT = SimpleNamespace(batched=True)


def kit_for(engine=None):
    """The engine description; ``engine`` is ignored."""
    return _KIT
