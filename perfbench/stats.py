"""Statistics the benchmark reports: medians, tail percentiles, failures."""

import math

# Tail percentiles tried from the highest down; see tail().
TAIL_PERCENTILES = (99, 90, 75)
# A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile_rank(n, pct):
    """1-based nearest rank of the pct-th percentile among n samples."""
    return max(1, math.ceil(pct / 100 * n))


def percentile(values, pct):
    """Nearest-rank percentile: the sample at rank ceil(pct/100 * n)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[percentile_rank(len(ordered), pct) - 1]


def samples_beyond(n, pct):
    return n - percentile_rank(n, pct)


def tail(values):
    """The highest percentile with enough samples beyond it, as (pct, value).

    Falls back to the median, reported as percentile 50, when even p75 has
    fewer than MIN_SAMPLES_BEYOND samples beyond it.
    """
    for pct in TAIL_PERCENTILES:
        if samples_beyond(len(values), pct) >= MIN_SAMPLES_BEYOND:
            return pct, percentile(values, pct)
    return 50, median(values)


def quarter_medians(values):
    """Medians of the first and the last quarter of values, in run order."""
    if not values:
        raise ValueError("quarters of no samples")
    q = max(1, len(values) // 4)
    return median(values[:q]), median(values[-q:])


def failed_ratio(attempted, failed):
    """Failed units over attempted units; a stalled unit counts as both."""
    if attempted < 1:
        raise ValueError("no units attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted
