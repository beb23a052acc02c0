"""Process-wide metrics registry: counters, gauges, histograms.

A minimal, dependency-free metrics substrate following the Prometheus
naming idiom (dotted here instead of underscored): monotonically
increasing :class:`Counter` values, instantaneous :class:`Gauge`
readings, and fixed-bucket cumulative :class:`Histogram` distributions.

Conventions used across the code base
-------------------------------------
* ``search.runs``, ``search.major_iterations``,
  ``search.minor_iterations``, ``search.accepted_views``,
  ``search.pruned_points`` — interactive-loop counters.
* ``projection.refinements`` — projection-search restarts executed.
* ``kde.grid.eval_seconds`` — histogram of KDE grid evaluation times.
* ``connectivity.merge_tree.cells`` — histogram of merge-tree grid sizes.
* ``data.load.rows`` — counter of data rows materialized by loaders.

All registry operations are thread-safe and ``reset()`` restores a
clean slate for tests.  Timing histograms are only populated while a
tracer is active (see :mod:`repro.obs.trace`) so the disabled path
never reads a clock; pure event counters are always live — one lock-free
integer add on a preexisting instrument.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Any, Iterable, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "counter_values",
    "estimate_quantile",
    "METRICS_SCHEMA_VERSION",
    "DEFAULT_SECONDS_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
]

#: Schema version of the ``metrics.json`` dump written by
#: :meth:`MetricsRegistry.to_dict` / ``repro.obs.openmetrics``.
METRICS_SCHEMA_VERSION = 1

#: Latency buckets (seconds): 100 µs .. 30 s, roughly log-spaced.
DEFAULT_SECONDS_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    30.0,
)

#: Size buckets (counts of cells / points / rows), log-spaced.
DEFAULT_SIZE_BUCKETS: tuple[float, ...] = (
    1,
    2,
    5,
    10,
    20,
    50,
    100,
    200,
    500,
    1000,
    2000,
    5000,
    10000,
)


def estimate_quantile(
    buckets: Sequence[float],
    counts: Sequence[int],
    total: int,
    minimum: float,
    maximum: float,
    q: float,
) -> float:
    """Estimate the *q*-quantile of a bucketed distribution.

    Works on the raw state of a :class:`Histogram` (or a serialized
    snapshot of one): ascending bucket upper bounds, per-bucket (non-
    cumulative) counts with the ``+inf`` overflow last, the observation
    count, and the exact observed extremes.

    The estimator locates the bucket whose cumulative count covers the
    target rank ``q * total`` and **interpolates linearly** inside it,
    assuming observations are uniformly spread within the bucket.  The
    bucket edges are sharpened with the tracked extremes: the first
    populated bucket's lower edge is the observed minimum and the
    overflow bucket's upper edge is the observed maximum, so the
    estimate is always finite (``inf`` overflow included) and always in
    ``[minimum, maximum]``.

    Error bound
    -----------
    The estimate differs from the exact sample quantile by at most the
    width of the (extreme-sharpened) bucket containing that quantile;
    ``q=0`` and ``q=1`` return the exact minimum / maximum.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    if total <= 0:
        return math.nan
    if q == 0.0:
        return float(minimum)
    if q == 1.0:
        return float(maximum)
    target = q * total
    cumulative = 0
    n_bounds = len(buckets)
    for index, bucket_count in enumerate(counts):
        if bucket_count == 0:
            continue
        before = cumulative
        cumulative += bucket_count
        if cumulative < target:
            continue
        lower = minimum if index == 0 else float(buckets[index - 1])
        upper = maximum if index == n_bounds else float(buckets[index])
        # Sharpen nominal edges with the exact extremes (also absorbs
        # user-supplied infinite bucket bounds).
        lower = max(lower, minimum)
        upper = min(upper, maximum)
        if not math.isfinite(lower):
            lower = minimum
        if not math.isfinite(upper):
            upper = maximum
        if upper < lower:
            upper = lower
        fraction = (target - before) / bucket_count
        value = lower + fraction * (upper - lower)
        return float(min(max(value, minimum), maximum))
    return float(maximum)  # pragma: no cover - cumulative >= target above


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current cumulative count."""
        return self._value

    def snapshot(self) -> dict[str, Any]:
        """JSON-compatible state dump."""
        return {"type": "counter", "value": self._value}

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Gauge:
    """An instantaneous value that can go up and down."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the gauge reading."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge by *amount* (may be negative)."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Adjust the gauge down by *amount*."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        """Current reading."""
        return self._value

    def snapshot(self) -> dict[str, Any]:
        """JSON-compatible state dump."""
        return {"type": "gauge", "value": self._value}

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram:
    """Fixed-bucket distribution with cumulative "less-or-equal" buckets.

    ``buckets`` are ascending upper bounds; an implicit ``+inf``
    overflow bucket always exists.  ``counts[i]`` is the number of
    observations ``<= buckets[i]`` *non-cumulatively per bucket*
    (i.e. observations in ``(buckets[i-1], buckets[i]]``), matching
    what an exporter needs to print a bar per bucket; cumulative
    counts are derived on demand.
    """

    __slots__ = ("name", "_buckets", "_counts", "_sum", "_count", "_min", "_max", "_lock")

    def __init__(self, name: str, buckets: Iterable[float] = DEFAULT_SECONDS_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError("bucket bounds must be ascending")
        if len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be distinct")
        if any(math.isnan(b) for b in bounds):
            raise ValueError("bucket bounds must not be NaN")
        self.name = name
        self._buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # + overflow
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        v = float(value)
        index = bisect.bisect_left(self._buckets, v)
        with self._lock:
            self._counts[index] += 1
            self._sum += v
            self._count += 1
            if v < self._min:
                self._min = v
            if v > self._max:
                self._max = v

    # -- read side -----------------------------------------------------
    @property
    def buckets(self) -> tuple[float, ...]:
        """Ascending bucket upper bounds (excluding the +inf overflow)."""
        return self._buckets

    @property
    def counts(self) -> tuple[int, ...]:
        """Per-bucket observation counts; last entry is the overflow."""
        return tuple(self._counts)

    @property
    def count(self) -> int:
        """Total number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    @property
    def mean(self) -> float:
        """Mean observation (0.0 when empty)."""
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        """Smallest observation (``inf`` when empty)."""
        return self._min

    @property
    def max(self) -> float:
        """Largest observation (``-inf`` when empty)."""
        return self._max

    def cumulative_counts(self) -> tuple[int, ...]:
        """Prometheus-style cumulative ``<=`` counts, overflow last."""
        total = 0
        out = []
        for c in self._counts:
            total += c
            out.append(total)
        return tuple(out)

    def quantile(self, q: float) -> float:
        """Linear-interpolation quantile estimate from the buckets.

        Delegates to :func:`estimate_quantile` on a consistent snapshot
        of the histogram state: the target rank's bucket is found in the
        cumulative distribution and the value interpolated linearly
        within it, with the first populated bucket's lower edge and the
        ``+inf`` overflow bucket's upper edge sharpened to the exact
        observed minimum / maximum (so the estimate is always finite).

        The estimate is exact for ``q in {0, 1}`` and otherwise off by
        at most the width of the bucket containing the true sample
        quantile — pick bucket bounds accordingly.  Returns ``nan`` for
        an empty histogram; raises ``ValueError`` outside ``[0, 1]``.
        """
        with self._lock:
            counts = tuple(self._counts)
            total = self._count
            lo, hi = self._min, self._max
        return estimate_quantile(self._buckets, counts, total, lo, hi, q)

    def snapshot(self) -> dict[str, Any]:
        """JSON-compatible state dump."""
        return {
            "type": "histogram",
            "buckets": list(self._buckets),
            "counts": list(self._counts),
            "count": self._count,
            "sum": self._sum,
            "min": None if self._count == 0 else self._min,
            "max": None if self._count == 0 else self._max,
        }

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self._buckets) + 1)
            self._sum = 0.0
            self._count = 0
            self._min = math.inf
            self._max = -math.inf


class MetricsRegistry:
    """Thread-safe name -> instrument registry.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: repeated
    calls with the same name return the same instrument; asking for an
    existing name with a different type raises ``ValueError``.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, factory, kind) -> Any:
        instrument = self._instruments.get(name)
        if instrument is not None:
            if not isinstance(instrument, kind):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}"
                )
            return instrument
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        """Get or create a counter."""
        return self._get_or_create(name, lambda: Counter(name), Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create(name, lambda: Gauge(name), Gauge)

    def histogram(
        self, name: str, buckets: Iterable[float] = DEFAULT_SECONDS_BUCKETS
    ) -> Histogram:
        """Get or create a fixed-bucket histogram.

        *buckets* only applies on first creation; later calls return
        the existing instrument unchanged.
        """
        return self._get_or_create(name, lambda: Histogram(name, buckets), Histogram)

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        """Look up an instrument without creating it."""
        return self._instruments.get(name)

    def names(self) -> list[str]:
        """Sorted names of all registered instruments."""
        return sorted(self._instruments)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """JSON-compatible dump of every instrument, sorted by name."""
        return {name: self._instruments[name].snapshot() for name in self.names()}

    def to_dict(self) -> dict[str, Any]:
        """Schema-versioned JSON document of the whole registry.

        This is the ``metrics.json`` payload written by the CLI's
        ``--metrics-out`` flag and served by the session service's
        ``GET /metrics.json``.
        """
        return {
            "format": "repro.metrics",
            "schema_version": METRICS_SCHEMA_VERSION,
            "metrics": self.snapshot(),
        }

    def reset(self) -> None:
        """Zero every instrument (instruments stay registered)."""
        for instrument in list(self._instruments.values()):
            instrument._reset()

    def clear(self) -> None:
        """Drop every instrument entirely."""
        with self._lock:
            self._instruments.clear()


#: The process-wide default registry used by the library's
#: instrumentation call sites.
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    """Get or create a counter on the default registry."""
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    """Get or create a gauge on the default registry."""
    return REGISTRY.gauge(name)


def histogram(name: str, buckets: Iterable[float] = DEFAULT_SECONDS_BUCKETS) -> Histogram:
    """Get or create a histogram on the default registry."""
    return REGISTRY.histogram(name, buckets)


def counter_values() -> dict[str, float]:
    """Current values of every counter on the default registry.

    Benchmarks and tests diff two readings to count the work done by
    one run.
    """
    return {
        name: instrument.value
        for name, instrument in [
            (n, REGISTRY.get(n)) for n in REGISTRY.names()
        ]
        if isinstance(instrument, Counter)
    }
