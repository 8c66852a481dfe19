"""Measurement utilities: CDFs, coefficients of variation, histograms.

The paper reports cumulative distributions of machines by message count
(Fig. 10), database size (Fig. 12), and leaf table size (Fig. 15), and
characterizes load balance by the coefficient of variation CoV = sigma/mu
(citing Jain [21]).  These helpers compute those exact quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence


def coefficient_of_variation(values: Sequence[float]) -> float:
    """CoV = population standard deviation / mean (0 for empty or zero-mean)."""
    values = list(values)
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    if mean == 0:
        return 0.0
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return math.sqrt(variance) / mean


def mean(values: Sequence[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


@dataclass
class Cdf:
    """An empirical cumulative distribution over sample values.

    ``points()`` yields (value, cumulative_frequency) pairs suitable for
    plotting exactly the curves of Figs. 10, 12, and 15.
    """

    samples: List[float]

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "Cdf":
        return cls(samples=sorted(samples))

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
        return lo / len(self.samples) if self.samples else 0.0

    def quantile(self, q: float) -> float:
        """The q-quantile (0 <= q <= 1) of the samples."""
        if not self.samples:
            raise ValueError("quantile of empty CDF")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0,1]: {q}")
        idx = min(len(self.samples) - 1, max(0, math.ceil(q * len(self.samples)) - 1))
        return self.samples[idx]

    @property
    def cov(self) -> float:
        return coefficient_of_variation(self.samples)
