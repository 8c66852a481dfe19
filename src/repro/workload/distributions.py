"""Statistical distributions underlying the synthetic corpus.

Calibration targets come from the paper (section 5) and the authors' file-
system measurement studies [8, 13]:

- File sizes are approximately lognormal with a median of a few kilobytes
  and a mean near 65 KB (685 GB / 10.5M files), i.e. a heavy upper tail.
- Cross-machine duplication is highly skewed: most duplicated contents exist
  on a handful of machines, while operating-system and application files
  appear on nearly every machine.  We model group copy-counts with a
  bounded Zipf distribution plus an explicit "system content" class that is
  present on all machines.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import List


def lognormal_size(
    rng: random.Random,
    median: float,
    sigma: float,
    min_size: int = 1,
    max_size: int = 1 << 31,
) -> int:
    """A file size drawn from a clamped lognormal distribution.

    *median* is the distribution median (e**mu); *sigma* is the shape in
    ln-space.  The mean is ``median * exp(sigma**2 / 2)``.
    """
    if median <= 0 or sigma < 0:
        raise ValueError(f"median must be positive and sigma non-negative")
    size = rng.lognormvariate(math.log(median), sigma)
    return max(min_size, min(max_size, int(round(size))))


class BoundedZipf:
    """Zipf-distributed integers on [lo, hi]: P(k) proportional to k**-alpha.

    Sampling is inverse-CDF over precomputed cumulative weights, O(log n)
    per draw.
    """

    def __init__(self, lo: int, hi: int, alpha: float):
        if lo < 1 or hi < lo:
            raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
        if alpha <= 0:
            raise ValueError(f"alpha must be positive: {alpha}")
        self.lo = lo
        self.hi = hi
        self.alpha = alpha
        self._cumulative: List[float] = []
        total = 0.0
        for k in range(lo, hi + 1):
            total += k**-alpha
            self._cumulative.append(total)
        self._total = total

    def sample(self, rng: random.Random) -> int:
        u = rng.random() * self._total
        idx = bisect.bisect_left(self._cumulative, u)
        return self.lo + min(idx, len(self._cumulative) - 1)


def poisson_count(rng: random.Random, rate: float) -> int:
    """A Poisson-distributed count with mean *rate* (arrivals per window).

    Knuth's product-of-uniforms method, O(rate) per draw; rates above the
    exp() underflow range are split additively (Poisson(a+b) is the sum of
    independent Poisson(a) and Poisson(b)).
    """
    if rate < 0:
        raise ValueError(f"rate must be non-negative: {rate}")
    count = 0
    while rate > 500:
        count += _poisson_knuth(rng, 500.0)
        rate -= 500.0
    return count + _poisson_knuth(rng, rate)


def _poisson_knuth(rng: random.Random, rate: float) -> int:
    if rate == 0:
        return 0
    limit = math.exp(-rate)
    count = 0
    product = rng.random()
    while product > limit:
        count += 1
        product *= rng.random()
    return count


def machine_file_count(
    rng: random.Random, mean_files: float, spread_sigma: float = 0.5
) -> int:
    """Per-machine file count: lognormal spread around the mean.

    Desktop file systems vary widely in size [13]; a lognormal multiplier
    with sigma ~0.5 reproduces that variation without extreme outliers.
    """
    if mean_files <= 0:
        raise ValueError(f"mean file count must be positive: {mean_files}")
    # E[lognormal(mu, sigma)] = exp(mu + sigma^2/2) = 1 when mu = -sigma^2/2.
    multiplier = rng.lognormvariate(-spread_sigma**2 / 2, spread_sigma)
    return max(1, int(round(mean_files * multiplier)))
