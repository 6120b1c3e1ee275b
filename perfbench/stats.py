"""Arithmetic the benchmark reports with: span self time, medians and the
tail percentile. Pure functions, no hanst imports."""

from __future__ import annotations

import statistics

# a span is (name, start, end, parent index or -1); see trace.Probe
Span = tuple[str, float, float, int]

TAIL_BEYOND = 10


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover.

    Children are clipped to their parent's interval and overlapping children
    are counted once, so self time is never negative.
    """
    children: list[list[int]] = [[] for _ in spans]
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
    out = []
    for (_, start, end, _), kids in zip(spans, children):
        covered = 0.0
        reach = start
        for kid in sorted(kids, key=lambda k: spans[k][1]):
            lo = max(spans[kid][1], reach)
            hi = min(spans[kid][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for (name, _, _, _), own in zip(spans, self_times(spans)):
        totals[name] = totals.get(name, 0.0) + own
    return totals


def root_time(spans: list[Span]) -> float:
    """Total duration of spans without a parent."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)


def median(values) -> float:
    return float(statistics.median(values))


def tail(samples: list[float], beyond: int = TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, sample count), or None when that percentile
    would not lie above the median (at most 2 * beyond samples).
    """
    n = len(samples)
    if n <= 2 * beyond:
        return None
    ordered = sorted(samples)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n

