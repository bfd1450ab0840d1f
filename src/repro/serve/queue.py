"""The persistent job queue: submission, leases, sharding, status.

Design rule, worth repeating: **nothing here is load-bearing for
correctness**.  A point is *done* exactly when the shared
:class:`~repro.harness.cache.ResultCache` holds its fingerprint — an
atomically published, content-addressed artifact.  Leases are a
best-effort mutual-exclusion layer that keeps workers from duplicating
work; if two workers ever do run the same point (a stolen lease racing
its not-quite-dead owner), both compute byte-identical results and the
second rename is a no-op in effect.  This is what makes SIGKILL-anywhere
recovery trivial: restart, observe the cache, recompute the remainder.

The lease protocol (one JSON file per claimed point):

* **claim** — ``open(path, "x")``: atomic on POSIX and NFSv3+, exactly
  one creator wins.
* **liveness** — a lease carries ``deadline`` (wall clock + TTL) and the
  owner's ``host``/``pid``.  It is *dead* when the deadline passed, or
  when the owner is a local process that no longer exists (instant
  recovery from SIGKILLed workers without waiting out the TTL).
* **steal** — replace a dead lease via atomic rename, then read back:
  the claimant whose token survived owns the point.  Two stealers can
  transiently both believe they won; see the design rule above.
* **release** — unlink.  Workers release after publishing to the cache
  (or after recording a failure), so a lease never outlives its point.

Sharding is static and needs no coordination: worker ``i/N`` only ever
touches points with ``index % N == i``.  Shards of different ``N`` still
compose safely — overlap is handled by leases, and in the worst case by
idempotent re-execution.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import socket
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..harness.cache import ResultCache, spec_fingerprint
from ..harness.parallel import GridPoint
from .clock import wall_now
from .jobstore import (
    CampaignMeta,
    CampaignStore,
    JobRecord,
    ServeError,
    read_json,
    write_json_atomic,
)

#: Default lease lifetime.  Sized for the slowest full-matrix points; a
#: worker that outlives it only risks duplicated (never wrong) work.
DEFAULT_LEASE_TTL_S = 300.0

#: Process-local claim sequence — makes every lease token unique even when
#: one process claims many points in one wall-clock tick.
_claim_sequence = itertools.count()


@dataclass(frozen=True)
class Lease:
    """One work claim, as stored in ``leases/<index>.json``."""

    token: str
    host: str
    pid: int
    worker: str
    deadline: float

    def to_payload(self) -> Dict[str, object]:
        return {
            "token": self.token,
            "host": self.host,
            "pid": self.pid,
            "worker": self.worker,
            "deadline": self.deadline,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "Lease":
        return cls(
            token=str(payload["token"]),
            host=str(payload["host"]),
            pid=int(payload["pid"]),
            worker=str(payload.get("worker", "?")),
            deadline=float(payload["deadline"]),
        )


@dataclass
class CampaignStatus:
    """One campaign's progress, derived from cache + markers on demand."""

    campaign_id: str
    title: str
    total: int
    done: int
    failed: int
    leased: int
    cancelled: bool

    @property
    def pending(self) -> int:
        return self.total - self.done - self.failed

    @property
    def complete(self) -> bool:
        return self.done == self.total

    @property
    def settled(self) -> bool:
        """Nothing left to run: every point is done, failed, or abandoned."""
        return self.cancelled or self.done + self.failed == self.total


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OverflowError, ValueError):
        # Exists-but-not-ours, or a pid we cannot even express: assume alive
        # and let the TTL arbitrate.
        return True
    return True


def campaign_id_for(fingerprints: Sequence[str], title: str) -> str:
    """Deterministic campaign id: content hash of the ordered point list.

    Resubmitting an identical campaign therefore lands on the existing one
    (idempotent submit) instead of queueing duplicate work.
    """
    digest = hashlib.sha256()
    digest.update(title.encode("utf-8"))
    for fingerprint in fingerprints:
        digest.update(b"\n")
        digest.update(fingerprint.encode("ascii"))
    return f"{_slug(title)}-{digest.hexdigest()[:12]}"


def _slug(title: str) -> str:
    cleaned = [c if c.isalnum() else "-" for c in title.lower()]
    slug = "".join(cleaned).strip("-")[:32] or "campaign"
    return slug


class JobQueue:
    """Queue semantics over one spool directory (see module docstring)."""

    def __init__(
        self,
        spool: Union[str, Path],
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        clock=None,
    ) -> None:
        self.store = CampaignStore(spool)
        self.lease_ttl_s = lease_ttl_s
        self.cache = ResultCache(self.store.cache_dir)
        self._host = socket.gethostname()
        # Every wall-clock read the queue makes goes through this one
        # callable, so tests can freeze time and pin the lease-reclaim
        # boundary (a lease whose deadline == now is dead) exactly.
        self._clock = wall_now if clock is None else clock

    # -- submission --------------------------------------------------------

    def submit(
        self,
        points: Sequence[GridPoint],
        title: str,
        campaign_id: Optional[str] = None,
        figure: Optional[str] = None,
        quick: bool = True,
        scale: float = 0.0,
        seed: int = 0,
    ) -> CampaignMeta:
        """Durably enqueue a campaign of grid points; idempotent by content.

        Returns the (possibly pre-existing) campaign's metadata.  The
        fingerprint stored per record is computed *here*, with this
        process's :data:`~repro.harness.cache.CACHE_VERSION` — workers
        recompute and cross-check it, so submitter/worker version skew
        fails loudly instead of publishing mislabelled artifacts.
        """
        if not points:
            raise ServeError("a campaign needs at least one point")
        records = []
        for index, point in enumerate(points):
            records.append(
                JobRecord(
                    index=index,
                    fingerprint=spec_fingerprint(point.spec, label=point.label),
                    label=point.label,
                    spec=point.spec,
                    key=point.key,
                )
            )
        if campaign_id is None:
            campaign_id = campaign_id_for(
                [r.fingerprint for r in records], title
            )
        if self.store.exists(campaign_id):
            return self.store.load_meta(campaign_id)
        meta = CampaignMeta(
            campaign_id=campaign_id,
            title=title,
            total_points=len(records),
            created=self._clock(),
            figure=figure,
            quick=quick,
            scale=scale,
            seed=seed,
        )
        self.store.publish(meta, records)
        return meta

    # -- introspection -----------------------------------------------------

    def campaigns(self) -> List[CampaignMeta]:
        return [self.store.load_meta(cid) for cid in self.store.list_ids()]

    def records(self, campaign_id: str) -> List[JobRecord]:
        return self.store.load_records(campaign_id)

    def status(self, campaign_id: str) -> CampaignStatus:
        meta = self.store.load_meta(campaign_id)
        done = failed = leased = 0
        now = self._clock()
        for record in self.store.load_records(campaign_id):
            if self.cache.has_fingerprint(record.fingerprint):
                done += 1
            elif self.failure(campaign_id, record.index) is not None:
                failed += 1
            else:
                lease = self.peek_lease(campaign_id, record.index)
                if lease is not None and not self._lease_dead(lease, now):
                    leased += 1
        return CampaignStatus(
            campaign_id=campaign_id,
            title=meta.title,
            total=meta.total_points,
            done=done,
            failed=failed,
            leased=leased,
            cancelled=self.cancelled(campaign_id),
        )

    # -- cancellation ------------------------------------------------------

    def cancel(self, campaign_id: str) -> None:
        if not self.store.exists(campaign_id):
            raise ServeError(f"no campaign {campaign_id!r} to cancel")
        write_json_atomic(
            self.store.cancel_path(campaign_id), {"cancelled": self._clock()}
        )

    def cancelled(self, campaign_id: str) -> bool:
        return self.store.cancel_path(campaign_id).is_file()

    # -- failures ----------------------------------------------------------

    def record_failure(
        self, campaign_id: str, index: int, message: str
    ) -> None:
        """Mark a point failed (workers skip it until the marker is removed)."""
        write_json_atomic(
            self.store.failure_path(campaign_id, index),
            {"index": index, "message": message, "recorded": self._clock()},
        )

    def failure(self, campaign_id: str, index: int) -> Optional[str]:
        payload = read_json(self.store.failure_path(campaign_id, index))
        if payload is None:
            return None
        return str(payload.get("message", "unknown failure"))

    def failures(self, campaign_id: str) -> Dict[int, str]:
        out: Dict[int, str] = {}
        for record in self.store.load_records(campaign_id):
            message = self.failure(campaign_id, record.index)
            if message is not None:
                out[record.index] = message
        return out

    def clear_failures(self, campaign_id: str) -> int:
        """Remove every failure marker (``repro serve retry``); returns count."""
        cleared = 0
        for record in self.store.load_records(campaign_id):
            path = self.store.failure_path(campaign_id, record.index)
            try:
                path.unlink()
                cleared += 1
            except FileNotFoundError:
                pass
        return cleared

    # -- leases ------------------------------------------------------------

    def peek_lease(self, campaign_id: str, index: int) -> Optional[Lease]:
        payload = read_json(self.store.lease_path(campaign_id, index))
        if payload is None:
            return None
        try:
            return Lease.from_payload(payload)
        except (KeyError, TypeError, ValueError):
            return None  # torn lease: claimable

    def _lease_dead(self, lease: Lease, now: float) -> bool:
        if lease.deadline <= now:
            return True
        if lease.host == self._host and not _pid_alive(lease.pid):
            return True
        return False

    def _make_lease(self, worker: str) -> Lease:
        pid = os.getpid()
        return Lease(
            token=f"{self._host}:{pid}:{next(_claim_sequence)}",
            host=self._host,
            pid=pid,
            worker=worker,
            deadline=self._clock() + self.lease_ttl_s,
        )

    def try_claim(
        self, campaign_id: str, index: int, worker: str
    ) -> Optional[Lease]:
        """Claim one point; ``None`` means someone live already holds it."""
        path = self.store.lease_path(campaign_id, index)
        path.parent.mkdir(parents=True, exist_ok=True)
        lease = self._make_lease(worker)
        try:
            with path.open("x", encoding="utf-8") as handle:
                handle.write(json.dumps(lease.to_payload(), sort_keys=True))
            return lease
        except FileExistsError:
            pass
        existing = self.peek_lease(campaign_id, index)
        if existing is not None and not self._lease_dead(existing, self._clock()):
            return None
        # Dead (or torn) lease: steal by atomic replacement, then read back
        # to see whose token actually landed.
        write_json_atomic(path, lease.to_payload())
        current = self.peek_lease(campaign_id, index)
        if current is not None and current.token == lease.token:
            return lease
        return None

    def release(self, campaign_id: str, index: int) -> None:
        try:
            self.store.lease_path(campaign_id, index).unlink()
        except FileNotFoundError:
            pass

    # -- work discovery ----------------------------------------------------

    def shard_records(
        self, campaign_id: str, shard: Tuple[int, int] = (0, 1)
    ) -> List[JobRecord]:
        """This shard's slice of a campaign, in submission order."""
        shard_index, shard_count = _check_shard(shard)
        return [
            record
            for record in self.store.load_records(campaign_id)
            if record.index % shard_count == shard_index
        ]

    def runnable(
        self, campaign_id: str, shard: Tuple[int, int] = (0, 1)
    ) -> Iterable[JobRecord]:
        """Points this shard could still run: not done, not failed.

        (Lease state is *not* consulted here — claiming is the worker's
        per-point step, so discovery stays one cheap pass.)
        """
        if self.cancelled(campaign_id):
            return
        for record in self.shard_records(campaign_id, shard):
            if self.cache.has_fingerprint(record.fingerprint):
                continue
            if self.failure(campaign_id, record.index) is not None:
                continue
            yield record


def _check_shard(shard: Tuple[int, int]) -> Tuple[int, int]:
    shard_index, shard_count = shard
    if shard_count < 1 or not 0 <= shard_index < shard_count:
        raise ServeError(f"invalid shard {shard_index}/{shard_count}")
    return shard_index, shard_count


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse ``"i/N"`` (e.g. ``0/4``) into a validated ``(i, N)`` pair."""
    try:
        left, right = text.split("/", 1)
        shard = (int(left), int(right))
    except ValueError as exc:
        raise ServeError(
            f"shard must look like 'i/N' (got {text!r})"
        ) from exc
    return _check_shard(shard)
