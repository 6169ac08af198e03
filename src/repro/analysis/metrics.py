"""Distribution statistics for the evaluation figures.

Every figure in the paper is either a CDF over per-node / per-event
measurements (Figures 6 and 7) or a mean-vs-parameter series (Figure 8).
:class:`Cdf` is the common currency: benches build them from raw samples
and compare medians, tails and crossings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple


def mean(samples: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence (charts tolerate gaps)."""
    seq = list(samples)
    return sum(seq) / len(seq) if seq else 0.0


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile out of range: {q}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    a, b = ordered[lo], ordered[hi]
    # clamped to its own segment, the interpolant is exact when a == b
    # (a weighted sum of two equal subnormals is not) and monotone in q
    # across segment boundaries
    return float(min(max(a + (b - a) * frac, a), b))


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


@dataclass
class Cdf:
    """An empirical cumulative distribution function."""

    samples: List[float]

    @classmethod
    def of(cls, samples: Iterable[float]) -> "Cdf":
        data = sorted(float(s) for s in samples)
        if not data:
            raise ValueError("cannot build a CDF from zero samples")
        return cls(samples=data)

    def __len__(self) -> int:
        return len(self.samples)

    def at(self, value: float) -> float:
        """Fraction of samples <= value."""
        lo, hi = 0, len(self.samples)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.samples[mid] <= value:
                lo = mid + 1
            else:
                hi = mid
        return lo / len(self.samples)

    def quantile(self, q: float) -> float:
        return percentile(self.samples, q * 100.0)

    def median(self) -> float:
        return self.quantile(0.5)

    def mean(self) -> float:
        return mean(self.samples)

    def min(self) -> float:
        return self.samples[0]

    def max(self) -> float:
        return self.samples[-1]

    def points(self, n: int = 20) -> List[Tuple[float, float]]:
        """(value, cumulative fraction) pairs for plotting/reporting."""
        if n < 2:
            raise ValueError("need at least two points")
        out = []
        for i in range(n):
            q = i / (n - 1)
            out.append((self.quantile(q), q))
        return out

    def tail_beyond(self, value: float) -> float:
        """Fraction of samples strictly greater than value (tail mass)."""
        return 1.0 - self.at(value)

    def summary(self) -> str:
        return (
            f"n={len(self)} min={self.min():.3g} p50={self.median():.3g} "
            f"p90={self.quantile(0.9):.3g} p99={self.quantile(0.99):.3g} "
            f"max={self.max():.3g} mean={self.mean():.3g}"
        )


def dominates(a: Cdf, b: Cdf, at_quantiles: Sequence[float] = (0.25, 0.5, 0.75, 0.9)) -> bool:
    """True when distribution ``a`` is no worse (<=) than ``b`` at every
    checked quantile -- the "who wins" shape test used by benches."""
    return all(a.quantile(q) <= b.quantile(q) for q in at_quantiles)
