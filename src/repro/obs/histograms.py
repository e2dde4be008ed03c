"""Fixed-bucket latency histograms with percentile estimation.

Mean-only accounting hides exactly what the paper cares about — the tail a
slow superblock member adds to a multi-plane command.  :class:`LatencyHistogram`
keeps a fixed, geometry-free bucket ladder (so two runs always bucket
identically and histograms merge trivially) plus exact min/max/mean via an
embedded :class:`~repro.utils.stats.RunningStats`, and estimates p50/p95/p99
by linear interpolation inside the owning bucket.  :class:`LatencyStat` is
the drop-in accumulator the FTL metrics use: one ``add()`` feeds both the
running moments and the histogram.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.utils.stats import RunningStats

#: Default bucket upper bounds in µs: a 1-2-5 ladder from 1 µs to 10 s.
#: Flash reads sit around 10^2 µs, programs around 10^3, superpage
#: completions and GC storms reach 10^4-10^6; the ladder covers all of them
#: with a fixed, seed-independent shape every run shares.  Its resolution is
#: coarse: each bucket's upper edge is 2x (1->2, 5->10) or 2.5x (2->5) its
#: lower edge, so a quantile interpolated inside a bucket can sit anywhere
#: in that 2-2.5x span.
DEFAULT_LATENCY_BUCKETS_US: Tuple[float, ...] = tuple(
    mantissa * 10.0 ** exponent
    for exponent in range(0, 7)
    for mantissa in (1.0, 2.0, 5.0)
) + (1e7,)


class LatencyHistogram:
    """Counts per fixed bucket; quantiles interpolated within buckets.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    extra overflow bucket catches everything above the last bound.  Exact
    min/max/mean/count come from the embedded :class:`RunningStats`, so
    quantile estimates can be clamped to the truly observed range (the
    overflow bucket in particular reports the exact maximum instead of an
    invented edge).
    """

    __slots__ = ("bounds", "counts", "stats")

    def __init__(
        self, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS_US
    ) -> None:
        if not bounds:
            raise ValueError("need at least one bucket bound")
        ordered = tuple(float(b) for b in bounds)
        if any(b2 <= b1 for b1, b2 in zip(ordered, ordered[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds = ordered
        # counts[i] <= bounds[i]; counts[-1] is the overflow bucket.
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.stats = RunningStats()

    def add(self, value: float) -> None:
        self.stats.add(value)
        self.counts[bisect_right(self.bounds, value)] += 1

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def count(self) -> int:
        return self.stats.count

    @property
    def overflow(self) -> int:
        """Samples above the last bucket bound."""
        return self.counts[-1]

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (q in [0, 1]), clamped to the observed range.

        Linear interpolation between the owning bucket's edges; the first
        bucket's lower edge is the exact observed minimum and the overflow
        bucket collapses to the exact observed maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be within [0, 1]")
        if self.stats.count == 0:
            raise ValueError("no samples")
        target = q * self.stats.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= target and bucket_count:
                if index == len(self.bounds):  # overflow bucket
                    return self.stats.maximum
                low = (
                    self.bounds[index - 1]
                    if index > 0
                    else min(self.stats.minimum, self.bounds[0])
                )
                high = self.bounds[index]
                fraction = (target - (cumulative - bucket_count)) / bucket_count
                estimate = low + (high - low) * fraction
                return min(max(estimate, self.stats.minimum), self.stats.maximum)
        return self.stats.maximum

    def summary(self) -> Dict[str, float]:
        """count/mean/p50/p95/p99/max as a flat dict (zeros when empty)."""
        if self.stats.count == 0:
            return {
                "count": 0.0,
                "mean": 0.0,
                "p50": 0.0,
                "p95": 0.0,
                "p99": 0.0,
                "max": 0.0,
            }
        return {
            "count": float(self.stats.count),
            "mean": self.stats.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "max": self.stats.maximum,
        }

    def nonzero_buckets(self) -> List[Tuple[float, int]]:
        """(upper_bound, count) for populated buckets; inf marks overflow."""
        edges = list(self.bounds) + [float("inf")]
        return [
            (edges[i], count) for i, count in enumerate(self.counts) if count
        ]

    def __repr__(self) -> str:
        if self.stats.count == 0:
            return "LatencyHistogram(empty)"
        return (
            f"LatencyHistogram(n={self.stats.count}, "
            f"p50={self.quantile(0.5):.1f}, p99={self.quantile(0.99):.1f}, "
            f"max={self.stats.maximum:.1f})"
        )


class LatencyStat:
    """RunningStats + LatencyHistogram behind one ``add()``.

    Keeps the :class:`RunningStats` surface (``mean``/``count``/``minimum``/
    ``maximum``/``stdev``/``total``) the existing metrics consumers use, and
    adds the tail view (``p50``/``p95``/``p99``) the flat means were hiding.
    """

    __slots__ = ("histogram",)

    def __init__(
        self, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS_US
    ) -> None:
        self.histogram = LatencyHistogram(bounds)

    def add(self, value: float) -> None:
        self.histogram.add(value)

    def extend(self, values: Iterable[float]) -> None:
        self.histogram.extend(values)

    @property
    def _stats(self) -> RunningStats:
        return self.histogram.stats

    @property
    def count(self) -> int:
        return self._stats.count

    @property
    def mean(self) -> float:
        return self._stats.mean

    @property
    def stdev(self) -> float:
        return self._stats.stdev

    @property
    def minimum(self) -> float:
        return self._stats.minimum

    @property
    def maximum(self) -> float:
        return self._stats.maximum

    @property
    def total(self) -> float:
        return self._stats.total

    @property
    def p50(self) -> float:
        return self.histogram.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.histogram.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.histogram.quantile(0.99)

    def quantile(self, q: float) -> float:
        return self.histogram.quantile(q)

    def summary(self) -> Dict[str, float]:
        return self.histogram.summary()

    def __repr__(self) -> str:
        if self.count == 0:
            return "LatencyStat(empty)"
        return (
            f"LatencyStat(n={self.count}, mean={self.mean:.2f}, "
            f"p99={self.p99:.2f}, max={self.maximum:.2f})"
        )


def merge_histograms(
    histograms: Sequence[LatencyHistogram],
) -> Optional[LatencyHistogram]:
    """Sum same-shaped histograms (the fixed ladder makes this exact)."""
    if not histograms:
        return None
    first = histograms[0]
    merged = LatencyHistogram(first.bounds)
    stats = RunningStats()
    for histogram in histograms:
        if histogram.bounds != first.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for index, count in enumerate(histogram.counts):
            merged.counts[index] += count
        stats = stats.merge(histogram.stats)
    merged.stats = stats
    return merged
