"""Order statistics used by the benchmark report."""

from __future__ import annotations

import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> float:
    """How many of n samples lie above the q-th percentile."""
    return n * (100.0 - q) / 100.0


def percentile(values, q: float) -> float:
    """The q-th percentile (linear interpolation between closest ranks).

    Raises ValueError when fewer than MIN_BEYOND samples lie beyond it, so a
    tail figure is never read off too few samples.
    """
    n = len(values)
    if samples_beyond(n, q) < MIN_BEYOND:
        raise ValueError(f"p{q:g} needs {MIN_BEYOND} samples beyond it; {n} samples give "
                         f"{samples_beyond(n, q):g}")
    ordered = sorted(values)
    pos = (n - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def min_samples(q: float) -> int:
    """Smallest sample count for which the q-th percentile may be reported."""
    n = 1
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def median(values) -> float:
    return statistics.median(values)

