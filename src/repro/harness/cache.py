"""On-disk result cache for experiment runs.

Every :class:`~repro.harness.config.ExperimentSpec` is a pure value: frozen
dataclasses all the way down, and the simulation draws only from seeded
:mod:`repro.sim.rng` streams.  A run's output is therefore a deterministic
function of (spec, label, simulator code), which makes results cacheable by
content hash:

* **Key** — SHA-256 over a canonical JSON encoding of the full spec (the
  seed is a spec field, so different seeds are different keys), the result
  label, and :data:`CACHE_VERSION`.
* **Code version** — :data:`CACHE_VERSION` stands in for "code-relevant
  params": bump it whenever a change to the simulator can alter any metric,
  and every existing entry silently misses (the key changes; stale files
  are just never read again).
* **Layout** — ``<root>/<hh>/<fingerprint>.json`` where ``hh`` is the first
  two hex digits (fan-out so no directory grows unboundedly).  Each entry
  stores the fingerprint, version, spec name, label, and the serialised
  :class:`~repro.harness.metrics.RunResult`.

A corrupted or unreadable entry is treated as a miss (counted in
``stats.corrupt``) and recomputed — the cache can always be deleted safely.
``CacheStats.simulations`` is maintained by the grid executor so callers can
prove a warm re-run performed zero simulations.

The cache is **multi-writer safe**: any number of processes (pool workers,
``repro serve`` fleet members on a shared filesystem) may ``put`` the same
fingerprint concurrently.  Each writer stages into its own uniquely named
temporary file and publishes with one atomic rename, so readers only ever
see either no entry or one complete entry — and because results are a pure
function of the spec, every racing writer publishes identical content, so
"last rename wins" is indistinguishable from "first writer wins".
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import itertools
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Union

from .config import ExperimentSpec
from .metrics import RunResult, run_result_from_dict, run_result_to_dict

#: Stamp covering everything that can change a result besides the spec —
#: i.e. the simulator code itself.  Bump on any behaviour-changing change.
#: v2: RunResult grew the ``latency`` traffic summary.
CACHE_VERSION = 2

#: Process-local staging-file sequence: makes concurrent ``put`` calls from
#: threads of one process stage under distinct names too.
_put_sequence = itertools.count()


def _canonical(value: Any) -> Any:
    """A JSON-encodable form with one representation per logical value."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            "fields": {
                f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__name__, "value": _canonical(value.value)}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {
            str(key): _canonical(val)
            for key, val in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot canonicalise {type(value).__name__} for hashing")


def spec_fingerprint(
    spec: ExperimentSpec,
    label: Optional[str] = None,
    version: int = CACHE_VERSION,
) -> str:
    """Content hash identifying one experiment point (64 hex chars)."""
    payload = {
        "cache_version": version,
        "label": label,
        "spec": _canonical(spec),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Counters exposed so tests and the bench CLI can audit cache use."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    #: Points actually simulated by the grid executor on this cache's watch
    #: (a warm re-run of an identical grid must leave this at zero).
    simulations: int = 0


class ResultCache:
    """Content-addressed store of :class:`RunResult`s under one directory."""

    def __init__(
        self, root: Union[str, Path], version: int = CACHE_VERSION
    ) -> None:
        self.root = Path(root)
        self.version = version
        self.stats = CacheStats()

    def fingerprint(
        self, spec: ExperimentSpec, label: Optional[str] = None
    ) -> str:
        return spec_fingerprint(spec, label=label, version=self.version)

    def path_for(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    def get(
        self, spec: ExperimentSpec, label: Optional[str] = None
    ) -> Optional[RunResult]:
        """The cached result for this point, or ``None`` (never raises)."""
        return self.get_fingerprint(self.fingerprint(spec, label))

    def get_fingerprint(self, fingerprint: str) -> Optional[RunResult]:
        """The cached result for a known fingerprint, or ``None``.

        Same corrupt→miss semantics as :meth:`get`.  The ``repro serve``
        client assembles campaign results through this: job records carry
        the fingerprint, so completed points load without re-hashing (or
        even unpickling) their specs.
        """
        path = self.path_for(fingerprint)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            result = run_result_from_dict(payload["result"])
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Unreadable, truncated, or schema-drifted entry: recompute.
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def has_fingerprint(self, fingerprint: str) -> bool:
        """Whether an entry exists for ``fingerprint`` (no stats, no parse).

        A cheap doneness probe for progress polling; a torn entry can never
        be observed (publication is one atomic rename), though a corrupt one
        would only be caught by :meth:`get_fingerprint`.
        """
        return self.path_for(fingerprint).is_file()

    def put(
        self,
        spec: ExperimentSpec,
        result: RunResult,
        label: Optional[str] = None,
    ) -> Path:
        fingerprint = self.fingerprint(spec, label)
        path = self.path_for(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fingerprint": fingerprint,
            "cache_version": self.version,
            "spec_name": spec.name,
            "label": label,
            "result": run_result_to_dict(result),
        }
        # Stage under a name no other writer can collide on (pid + a
        # process-local sequence number), then publish with one atomic
        # rename.  Concurrent writers of the same fingerprint each stage
        # privately and the last rename wins with a complete entry — a
        # shared ".tmp" suffix would let two writers interleave into the
        # same staging file and publish a torn hybrid.
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{next(_put_sequence)}.tmp"
        )
        tmp.write_text(
            json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
        )
        tmp.replace(path)  # atomic publish: readers never see a torn entry
        self.stats.stores += 1
        return path

    def count_simulations(self, n: int) -> None:
        self.stats.simulations += n
