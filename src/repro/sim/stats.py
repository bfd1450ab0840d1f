"""Statistics collection for simulation runs.

A :class:`StatsRegistry` is a flat namespace of counters and scalar samples.
Components increment counters through it rather than keeping private tallies
so the harness can snapshot everything a run produced in one place.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Optional, Tuple


class StatsRegistry:
    """Named counters plus simple scalar sample series.

    ``incr`` is the single hottest call in the simulator after cache probes;
    hot loops should hoist the bound method (``incr = stats.incr``) so each
    bump is one dict add with no attribute traversal.
    """

    __slots__ = ("_counters", "_samples", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, int] = defaultdict(int)
        self._samples: Dict[str, List[float]] = defaultdict(list)
        self._histograms: Dict[str, "Histogram"] = {}

    # -- counters ----------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        self._counters[name] += amount

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def counters_with_prefix(self, prefix: str) -> Dict[str, int]:
        return {
            name: value
            for name, value in self._counters.items()
            if name.startswith(prefix)
        }

    # -- samples -----------------------------------------------------------

    def record(self, name: str, value: float) -> None:
        self._samples[name].append(value)

    def samples(self, name: str) -> List[float]:
        return list(self._samples.get(name, ()))

    def mean(self, name: str) -> float:
        values = self._samples.get(name)
        if not values:
            return 0.0
        return sum(values) / len(values)

    # -- histograms ----------------------------------------------------------

    def histogram(self, name: str, factory: type = None) -> "Histogram":
        """The histogram for ``name``, creating it on first use.

        ``factory`` overrides the default :class:`Histogram` class for
        this one histogram (e.g. :class:`ReservoirHistogram` for the
        traffic latency series, whose tail percentiles must be exact).  It
        only matters at creation time; later lookups return whatever was
        created first.
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = (factory or Histogram)()
            self._histograms[name] = histogram
        return histogram

    def histograms(self) -> Dict[str, "Histogram"]:
        return dict(self._histograms)

    # -- aggregation -------------------------------------------------------

    def snapshot(self) -> Dict[str, int]:
        return dict(self._counters)

    def merge(self, other: "StatsRegistry") -> None:
        for name, value in other._counters.items():
            self._counters[name] += value
        for name, values in other._samples.items():
            self._samples[name].extend(values)
        for name, histogram in other._histograms.items():
            self.histogram(name).merge(histogram)

    def items(self) -> Iterable[Tuple[str, int]]:
        return self._counters.items()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v}" for k, v in sorted(self._counters.items()))
        return f"StatsRegistry({body})"


class Histogram:
    """A fixed-bucket latency histogram (log2 buckets by default).

    Bucket 0 counts samples in ``[0, 2)``; bucket ``i >= 1`` counts samples
    in ``[2^i, 2^(i+1))`` (ns).

    Bucketing is *deferred*: :meth:`record` — which sits on the commit and
    abort paths — only appends the raw value to a pending list, and the
    bit-length/min/accumulate work happens in one batch the first time any
    aggregate is read.  Record-heavy runs that never inspect the histogram
    until the end pay a single flush.
    """

    __slots__ = ("_counts", "_pending", "_total", "_sum", "_max")

    def __init__(self, buckets: int = 40) -> None:
        self._counts = [0] * buckets
        self._pending: List[float] = []
        self._total = 0
        self._sum = 0.0
        self._max = 0.0

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError("histogram samples must be >= 0")
        self._pending.append(value)

    def _flush(self) -> None:
        pending = self._pending
        if not pending:
            return
        counts = self._counts
        top = len(counts) - 1
        total_sum = 0.0
        maximum = self._max
        for value in pending:
            index = 0 if value < 1 else min(top, int(value).bit_length() - 1)
            counts[index] += 1
            total_sum += value
            if value > maximum:
                maximum = value
        self._total += len(pending)
        self._sum += total_sum
        self._max = maximum
        pending.clear()

    @property
    def count(self) -> int:
        self._flush()
        return self._total

    @property
    def mean(self) -> float:
        self._flush()
        return self._sum / self._total if self._total else 0.0

    @property
    def max(self) -> float:
        self._flush()
        return self._max

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (bucket-wise add).

        Counts add bucket by bucket (growing this histogram if ``other``
        has more buckets), totals and sums add, and the max is the max of
        the two maxes — so a merged registry reports the same aggregate
        statistics a single-registry run would have.
        """
        self._flush()
        other._flush()
        if len(other._counts) > len(self._counts):
            self._counts.extend([0] * (len(other._counts) - len(self._counts)))
        for index, count in enumerate(other._counts):
            self._counts[index] += count
        self._total += other._total
        self._sum += other._sum
        if other._max > self._max:
            self._max = other._max

    def percentile(self, fraction: float, method: str = "upper") -> float:
        """The given percentile, estimated from the log2 buckets.

        ``method="upper"`` (the historical default, kept for figure parity)
        reports the *upper bound* of the bucket containing the percentile —
        coarse enough that p99 and p999 usually collapse to the same
        power of two.  ``method="interpolated"`` linearly interpolates the
        percentile's rank within its bucket (clamped to the observed max),
        which keeps nearby tail percentiles distinct.

        An empty histogram — and one whose samples are all zero, where the
        bucket upper bound of 2.0 would overstate every percentile — reports
        0.0.
        """
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        if method not in ("upper", "interpolated"):
            raise ValueError(f"unknown percentile method {method!r}")
        self._flush()
        if self._total == 0 or self._max == 0:
            return 0.0
        threshold = fraction * self._total
        seen = 0
        for index, count in enumerate(self._counts):
            seen += count
            if seen >= threshold:
                if method == "upper":
                    return float(2 ** (index + 1))
                low = 0.0 if index == 0 else float(2 ** index)
                high = float(2 ** (index + 1))
                within = (threshold - (seen - count)) / count
                return min(low + (high - low) * within, self._max)
        if method == "upper":
            return float(2 ** len(self._counts))
        return self._max

    def nonzero_buckets(self) -> List[Tuple[int, int]]:
        self._flush()
        return [(i, c) for i, c in enumerate(self._counts) if c]


class ReservoirHistogram(Histogram):
    """A histogram that also keeps the raw samples, up to a capacity.

    Log2 buckets are fine for bandwidth-style distributions but too coarse
    for tail latency: p99 and p999 of an open-loop run usually land in the
    same bucket.  This subclass keeps every sample (the *reservoir*) until
    ``capacity`` is exceeded, at which point the reservoir is dropped and
    percentiles degrade to the interpolated bucket estimate — never a wrong
    answer, just a coarser one, and :attr:`exact` says which you got.

    Merging preserves exactness only while both sides still hold their
    reservoirs and the union fits the capacity.
    """

    __slots__ = ("_reservoir", "_capacity")

    DEFAULT_CAPACITY = 1 << 17

    def __init__(
        self, buckets: int = 40, capacity: int = DEFAULT_CAPACITY
    ) -> None:
        super().__init__(buckets)
        self._capacity = capacity
        self._reservoir: Optional[List[float]] = []

    @property
    def exact(self) -> bool:
        return self._reservoir is not None

    def record(self, value: float) -> None:
        super().record(value)
        reservoir = self._reservoir
        if reservoir is not None:
            reservoir.append(value)
            if len(reservoir) > self._capacity:
                self._reservoir = None

    def merge(self, other: "Histogram") -> None:
        super().merge(other)
        other_reservoir = getattr(other, "_reservoir", None)
        if self._reservoir is not None and other_reservoir is not None:
            self._reservoir.extend(other_reservoir)
            if len(self._reservoir) > self._capacity:
                self._reservoir = None
        else:
            self._reservoir = None

    def percentile(self, fraction: float, method: str = "exact") -> float:
        """Nearest-rank percentile over the exact samples.

        Falls back to the interpolated bucket estimate once the reservoir
        has been dropped.  The bucket methods remain available by name.
        """
        if method != "exact":
            return super().percentile(fraction, method)
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        if self._reservoir is None:
            return super().percentile(fraction, method="interpolated")
        self._flush()
        if not self._reservoir:
            return 0.0
        ordered = sorted(self._reservoir)
        rank = max(0, math.ceil(fraction * len(ordered)) - 1)
        return ordered[rank]


def ratio(numerator: float, denominator: float) -> float:
    """A division that treats 0/0 as 0 rather than raising."""
    if denominator == 0:
        return 0.0
    return numerator / denominator


def decompose(counts: Mapping[str, int], total: int) -> Dict[str, float]:
    """Express ``counts`` as fractions of ``total`` (0 if total is 0)."""
    return {name: ratio(value, total) for name, value in counts.items()}
