"""Percentiles, span self-times and failure accounting.

Everything here is pure arithmetic over recorded numbers, so the
benchmark's own tests pin it without a server.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class Metric:
    """One reported number with the facts needed to read it.

    ``stat`` names the statistic (``p50``, ``p99``, ``ratio``, ...) and
    ``samples`` how many observations it was computed from.
    """

    value: float
    unit: str
    samples: int
    stat: str

    def describe(self, name: str) -> str:
        text = f"{name} = {self.value:.6g} {self.unit} ({self.stat} of {self.samples} samples"
        if self.stat.startswith("p") and self.stat[1:].isdigit():
            text += f", {samples_beyond(self.samples, float(self.stat[1:]))} beyond"
        return text + ")"


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0-100), linearly interpolated.

    Raises
    ------
    ValueError
        If *values* is empty or *q* is outside [0, 100].
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if len(values) == 0:
        raise ValueError("percentile of no samples")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples lie strictly above the *q*-th percentile."""
    return int(math.floor(n * (1.0 - q / 100.0) + 1e-9))


def timing(values_s: Sequence[float], q: float) -> Metric:
    """The *q*-th percentile of durations in seconds, reported in ms."""
    return Metric(percentile(values_s, q) * 1e3, "ms", len(values_s), f"p{q:g}")


def median_metric(values: Sequence[float], unit: str, scale: float = 1.0) -> Metric:
    """Median of *values* times *scale*; 0 with no samples (layer absent)."""
    if len(values) == 0:
        return Metric(0.0, unit, 0, "median")
    return Metric(percentile(values, 50.0) * scale, unit, len(values), "median")


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def clip(interval: tuple[float, float], bounds: tuple[float, float]) -> tuple[float, float]:
    """*interval* clipped to *bounds* (empty intervals have end <= start)."""
    return max(interval[0], bounds[0]), min(interval[1], bounds[1])


def self_times(spans: Sequence) -> dict[int, float]:
    """Each span's own time: its duration minus what its children cover.

    *spans* carry ``sid``, ``parent``, ``start`` and ``end``; children
    running in parallel are counted once (their union is subtracted).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        bounds = (span.start, span.end)
        covered = union_length(
            clip(child, bounds) for child in children.get(span.sid, ())
        )
        result[span.sid] = (span.end - span.start) - covered
    return result


def unattributed_fraction(root, stages: Sequence) -> float:
    """Share of *root*'s duration that no stage span accounts for.

    ``1 - |union of stage intervals within root| / root duration``.  When
    stages nest without running in parallel the union equals the sum of
    their self-times, so this is ``1 - sum(self-times) / end to end``;
    the union keeps parallel stages (per-shard exchanges) from counting
    twice.
    """
    duration = root.end - root.start
    if duration <= 0.0:
        raise ValueError("root span has no duration")
    bounds = (root.start, root.end)
    covered = union_length(clip((span.start, span.end), bounds) for span in stages)
    return 1.0 - covered / duration


# --------------------------------------------------------------------- #
# failures
# --------------------------------------------------------------------- #


@dataclass
class Tally:
    """Attempted operations and the ways they failed.

    Every operation is recorded exactly once: as a success, as an error
    (typed error response, HTTP 4xx/5xx, timeout, torn socket) or as a
    mismatch (an answer that differs from the in-process reference).
    """

    attempted: int = 0
    errors: int = 0
    mismatches: int = 0
    kinds: dict[str, int] = field(default_factory=dict)

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def error(self, kind: str, count: int = 1) -> None:
        self.attempted += count
        self.errors += count
        self.kinds[kind] = self.kinds.get(kind, 0) + count

    def mismatch(self, kind: str = "mismatch", count: int = 1) -> None:
        self.attempted += count
        self.mismatches += count
        self.kinds[kind] = self.kinds.get(kind, 0) + count

    @property
    def failed(self) -> int:
        return self.errors + self.mismatches

    @property
    def ok_fraction(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0
