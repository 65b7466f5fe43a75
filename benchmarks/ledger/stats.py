"""Estimators and the attempted/failed tally shared by the workloads."""

from __future__ import annotations

import statistics
from typing import List, Sequence


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def best(values: Sequence[float]) -> float:
    """The fastest repetition of identical work.

    Host noise on a shared two-core sandbox is one-sided (slow bursts
    lasting seconds, nothing speeds a call up), so the minimum over the
    repetitions in a window repeats better than their median; the
    measurements are in the README under "Estimator".  The median is
    still printed beside it.
    """
    return float(min(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
    return float(ordered[rank])


class Tally:
    """Operations attempted and failed; verification records here
    instead of raising, so one bad answer costs one failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def record(self, ok: bool, message: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(message)
