"""Percentiles with sample support, failure accounting and span self time.

Kept apart from run.py so test_stats.py can check them without a build.
"""

import math
from collections import Counter

# A percentile is reported only when at least this many samples lie
# beyond it; otherwise it is "unsupported" and printed with its count.
MIN_BEYOND = 10

# Percentiles tried, highest first, when looking for the tail to report.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, p):
    """Nearest-rank p-th percentile of values (0 < p <= 100).

    Returns (value, beyond): beyond is the number of samples strictly
    after the rank, the support the percentile has.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("percentile out of range: %r" % p)
    ordered = sorted(values)
    # Round first: 99.9 / 100 * 10000 is 9990.000000000002 in binary.
    rank = max(1, math.ceil(round(p / 100.0 * len(ordered), 9)))
    return ordered[rank - 1], len(ordered) - rank


def supported(values, p):
    """True when the p-th percentile has MIN_BEYOND samples beyond it."""
    if not values:
        return False
    return percentile(values, p)[1] >= MIN_BEYOND


def median(values):
    """Median of values (the mean of the two middle ones for even n)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def highest_tail(values, ladder=TAIL_LADDER):
    """Highest percentile of ladder that is supported, or None."""
    for p in ladder:
        if supported(values, p):
            return p
    return None


def with_failures(latencies, failed):
    """Latencies with each failed or refused request as an infinite one.

    A request that failed missed any latency limit, so it must push a
    percentile up, never vanish from the sample.
    """
    return list(latencies) + [math.inf] * failed


class Stat:
    """One reported timing: a value with its sample count, or unsupported.

    p == 50 is the median, reported whenever there is a sample; a tail
    (p > 50) is reported only when MIN_BEYOND samples lie beyond it.
    """

    def __init__(self, name, unit, values, p):
        self.name = name
        self.unit = unit
        self.count = len(values)
        self.p = p
        self.value = None
        if values and (p == 50.0 or supported(values, p)):
            self.value = percentile(values, p)[0] if p != 50.0 else median(values)

    def text(self):
        if self.value is None:
            return "unsupported (n=%d, p%g needs %d beyond)" % (
                self.count, self.p, MIN_BEYOND)
        if not math.isfinite(self.value):
            return "missed: failures reach p%g (n=%d)" % (self.p, self.count)
        return "%.6g %s (p%g, n=%d)" % (self.value, self.unit, self.p,
                                        self.count)


class Ledger:
    """Attempted, ok and each error code, per phase.

    Status "ok" is success; every other status (an error code from the
    server, "transport", "wrong_answer", "not_sent") is a failure.
    """

    def __init__(self):
        self.phases = {}

    def record(self, phase, status, count=1):
        self.phases.setdefault(phase, Counter())[status] += count

    def attempted(self, phase=None):
        return sum(sum(c.values()) for c in self._select(phase))

    def ok(self, phase=None):
        return sum(c["ok"] for c in self._select(phase))

    def failed(self, phase=None):
        return self.attempted(phase) - self.ok(phase)

    def failed_share(self, phase=None):
        attempted = self.attempted(phase)
        return self.failed(phase) / attempted if attempted else 0.0

    def as_dict(self):
        return {phase: dict(c) for phase, c in self.phases.items()}

    def _select(self, phase):
        if phase is None:
            return list(self.phases.values())
        return [self.phases.get(phase, Counter())]


def self_times(spans):
    """Self time per layer from spans (name, parent, start, end).

    parent is an index into spans or -1. A span's self time is its
    duration minus the part of it its children cover; a layer is the
    name up to the first '.'. Returns {layer: self time}.
    """
    children = {}
    for i, span in enumerate(spans):
        children.setdefault(span[1], []).append(i)
    result = Counter()
    for i, (name, _parent, start, end) in enumerate(spans):
        covered = 0
        cursor = start
        for j in sorted(children.get(i, []), key=lambda k: spans[k][2]):
            lo = max(spans[j][2], cursor)
            hi = min(spans[j][3], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[name.split(".", 1)[0]] += (end - start) - covered
    return dict(result)
