"""Order statistics for benchmark samples (standard library only).

The benchmark reports a timing as its median, the highest percentile
that still has at least ten samples beyond it, and the sample count.
"""

from __future__ import annotations

import statistics

# percentiles tried, highest first, when picking the reported tail
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """Highest percentile with at least TAIL_MIN_BEYOND samples above it."""
    for p in TAIL_PERCENTILES:
        # rounded: 100 * (1 - 0.9) is 9.999999999999998 in binary floating point
        if round(n * (100.0 - p), 6) >= 100 * TAIL_MIN_BEYOND:
            return p
    return None


def summarize(values) -> dict:
    """Median, reported tail percentile and sample count of a sample."""
    values = list(values)
    out = {"n": len(values), "p50": median(values)}
    p = tail_percentile(len(values))
    if p is not None:
        out["tail_p"] = p
        out["tail"] = percentile(values, p)
    return out
