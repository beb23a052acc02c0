"""Small statistics helpers shared by the runner and the two-set report.

Kept free of numpy and of the program under test so the helpers can be
tested (and the two-set report run) without building anything.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

#: A tail percentile is reported only when at least this many samples
#: lie strictly above it (choosing-metrics: "the highest percentile that
#: has at least ten samples beyond it").
MIN_TAIL_SAMPLES = 10


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default rule), q in [0, 100]."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return float(ordered[lo])
    frac = pos - lo
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * frac)


def tail_percentile(
    samples: list[float], q: float, min_tail: int = MIN_TAIL_SAMPLES
) -> float | None:
    """The *q*-th percentile, or ``None`` when fewer than *min_tail*
    samples lie strictly above it."""
    if not samples:
        return None
    value = percentile(samples, q)
    beyond = sum(1 for s in samples if s > value)
    return value if beyond >= min_tail else None


def min_samples_for_tail(q: float, min_tail: int = MIN_TAIL_SAMPLES) -> int:
    """Smallest sample count whose *q*-th percentile can have *min_tail*
    distinct samples above it."""
    return math.ceil(round(min_tail * 100.0 / (100.0 - q), 9))


@dataclass
class ErrorTally:
    """Failed operations over attempted ones.

    An operation is one engine call or one HTTP request.  It fails when
    it raises, answers with a non-2xx status, or is the last operation
    of a session that ended without a ``search_result``.  Sessions cut
    by the end of the measuring window are neither failures nor
    attempts beyond the operations they already made.
    """

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def session_without_result(self, reason: str) -> None:
        """Charge a session that ended without a result to its last
        operation, which was counted as attempted already."""
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    @property
    def rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def quartile_spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / |median|)`` as the acceptance rule
    computes it, with ``statistics.quantiles(values, n=4)``."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else math.inf
    return med, q1, q3, spread


def worsening(first: float, second: float, better: str) -> float:
    """By what share of *first* the value *second* is worse (<= 0: not worse)."""
    if first == 0:
        return 0.0 if second == first else math.inf
    delta = (second - first) if better == "lower" else (first - second)
    return delta / abs(first)
