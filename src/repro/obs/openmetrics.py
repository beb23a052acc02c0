"""OpenMetrics / Prometheus text exposition of the metrics registry.

Renders every instrument of a :class:`~repro.obs.metrics.MetricsRegistry`
in the Prometheus text format (OpenMetrics dialect): counters with a
``_total`` suffix, gauges verbatim, histograms with cumulative
``_bucket{le="..."}`` series plus ``_sum`` / ``_count``, and — because
fixed-bucket histograms lose the raw observations — an auxiliary
``<name>_quantile{q="..."}`` gauge family estimated with
:meth:`~repro.obs.metrics.Histogram.quantile` (linear interpolation
within buckets; see its documented error bounds).

Three consumption paths:

* :func:`write_metrics` — one-shot file export, wired to the CLI's
  ``--metrics-out`` flag (``.prom``/``.txt``/``.openmetrics`` suffixes
  write the text format, anything else the schema-versioned
  ``metrics.json``);
* :func:`render_live_openmetrics` — the scrape body of the session
  service's ``GET /metrics`` (``python -m repro serve``);
* :func:`render_metrics_digest` — the compact human summary
  (cache hit rate, per-phase p50/p95) printed at the end of
  ``python -m repro batch``.

Everything renders from the registry's JSON ``snapshot()`` payload, so
a ``metrics.json`` written by one process can be re-rendered verbatim
by another (:func:`render_openmetrics_snapshot`).
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any, Iterable

from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY, MetricsRegistry, estimate_quantile
from repro.obs.registry import SESSIONS

__all__ = [
    "render_openmetrics",
    "render_openmetrics_snapshot",
    "render_live_openmetrics",
    "write_metrics",
    "render_metrics_digest",
    "DEFAULT_PREFIX",
    "DEFAULT_QUANTILES",
    "OPENMETRICS_CONTENT_TYPE",
]

_log = get_logger("obs")

#: Namespace prefix applied to every exposed metric name.
DEFAULT_PREFIX = "repro_"

#: Quantiles exposed per histogram (and shown in the CLI digest).
DEFAULT_QUANTILES: tuple[float, ...] = (0.5, 0.9, 0.95, 0.99)

#: Content type advertised by the session service's ``/metrics``.
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_LEADING_DIGIT = re.compile(r"^[0-9]")


def _metric_name(name: str, prefix: str) -> str:
    """Sanitize a dotted instrument name into a Prometheus metric name."""
    sanitized = _INVALID_CHARS.sub("_", name)
    if not prefix and _LEADING_DIGIT.match(sanitized):
        sanitized = f"_{sanitized}"
    return f"{prefix}{sanitized}"


def _format_value(value: float) -> str:
    """Prometheus-format one sample value (``+Inf`` spelling included)."""
    v = float(value)
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    if math.isnan(v):
        return "NaN"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _format_bound(bound: float) -> str:
    """``le`` label value for a bucket upper bound."""
    return "+Inf" if math.isinf(bound) else repr(float(bound))


def _label_str(key: str, value: str) -> str:
    """Render the one rendering-only label (``le`` for buckets, ``q``
    for quantile gauges) as ``{key="value"}``."""
    return f'{{{key}="{value}"}}'


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_openmetrics_snapshot(
    snapshot: dict[str, dict[str, Any]],
    *,
    prefix: str = DEFAULT_PREFIX,
    quantiles: Iterable[float] = DEFAULT_QUANTILES,
) -> str:
    """Render a ``MetricsRegistry.snapshot()`` payload as OpenMetrics text.

    Rendering from the JSON snapshot (rather than live instruments)
    means a ``metrics.json`` file written by a finished batch run can be
    re-rendered unchanged; no per-session series are appended, because
    that run's sessions are gone.  Each instrument is one metric family
    with one unlabeled series.
    Unknown instrument types are skipped with a warning rather than
    poisoning the scrape.
    """
    lines: list[str] = []
    for name in sorted(snapshot):
        state = snapshot[name]
        kind = state.get("type")
        metric = _metric_name(name, prefix)
        if kind == "counter":
            lines.append(f"# HELP {metric} repro counter {name}")
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric}_total {_format_value(state['value'])}")
        elif kind == "gauge":
            lines.append(f"# HELP {metric} repro gauge {name}")
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_format_value(state['value'])}")
        elif kind == "histogram":
            lines.append(f"# HELP {metric} repro histogram {name}")
            lines.append(f"# TYPE {metric} histogram")
            buckets = [float(b) for b in state["buckets"]]
            counts = [int(c) for c in state["counts"]]
            total = int(state["count"])
            cumulative = 0
            for bound, count in zip(buckets, counts):
                cumulative += count
                lines.append(
                    f"{metric}_bucket{_label_str('le', _format_bound(bound))} "
                    f"{cumulative}"
                )
            cumulative += (
                counts[len(buckets)] if len(counts) > len(buckets) else 0
            )
            lines.append(f"{metric}_bucket{_label_str('le', '+Inf')} {cumulative}")
            lines.append(f"{metric}_sum {_format_value(float(state['sum']))}")
            lines.append(f"{metric}_count {total}")
            if total > 0 and quantiles:
                # The estimated-quantile gauges are their own metric
                # family, rendered right after the histogram.
                lines.append(
                    f"# HELP {metric}_quantile estimated quantiles of "
                    f"{name} (linear interpolation within buckets)"
                )
                lines.append(f"# TYPE {metric}_quantile gauge")
                minimum = state.get("min")
                maximum = state.get("max")
                for q in quantiles:
                    estimate = estimate_quantile(
                        buckets,
                        counts,
                        total,
                        float(minimum) if minimum is not None else math.inf,
                        float(maximum) if maximum is not None else -math.inf,
                        float(q),
                    )
                    lines.append(
                        f"{metric}_quantile"
                        f"{_label_str('q', _format_value(float(q)))}"
                        f" {_format_value(estimate)}"
                    )
        else:
            _log.warning(
                "skipping metric %r with unknown type %r in exposition",
                name,
                kind,
            )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def render_openmetrics(
    registry: MetricsRegistry | None = None,
    *,
    prefix: str = DEFAULT_PREFIX,
    quantiles: Iterable[float] = DEFAULT_QUANTILES,
) -> str:
    """Render a registry (default: the process registry) as OpenMetrics."""
    reg = registry if registry is not None else REGISTRY
    return render_openmetrics_snapshot(
        reg.snapshot(), prefix=prefix, quantiles=quantiles
    )


def render_live_openmetrics(
    registry: MetricsRegistry | None = None,
    *,
    prefix: str = DEFAULT_PREFIX,
) -> str:
    """Render the live registry with per-session series appended.

    The per-session labeled gauge series from
    :data:`~repro.obs.registry.SESSIONS` are spliced in before the
    ``# EOF`` terminator — the exposition the session service's
    ``/metrics`` serves.
    """
    text = render_openmetrics(registry, prefix=prefix)
    session_lines = SESSIONS.openmetrics_lines(prefix=prefix)
    if not session_lines:
        return text
    eof = "# EOF\n"
    assert text.endswith(eof)
    return text[: -len(eof)] + "\n".join(session_lines) + "\n" + eof


#: File suffixes that select the text exposition format.
_TEXT_SUFFIXES = {".prom", ".txt", ".openmetrics"}


def write_metrics(
    path: str | Path, registry: MetricsRegistry | None = None
) -> Path:
    """Write the registry to *path*; the suffix picks the format.

    ``.prom`` / ``.txt`` / ``.openmetrics`` write the Prometheus text
    format; any other suffix (conventionally ``.json``) writes the
    schema-versioned JSON document from
    :meth:`~repro.obs.metrics.MetricsRegistry.to_dict`.
    """
    reg = registry if registry is not None else REGISTRY
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix.lower() in _TEXT_SUFFIXES:
        path.write_text(render_openmetrics(reg))
    else:
        path.write_text(json.dumps(reg.to_dict(), indent=2, sort_keys=True))
    return path


# ----------------------------------------------------------------------
# End-of-run digest
# ----------------------------------------------------------------------
def _counter_value(snapshot: dict[str, dict[str, Any]], name: str) -> float:
    state = snapshot.get(name)
    if state is None or state.get("type") != "counter":
        return 0.0
    return float(state["value"])


def render_metrics_digest(
    registry: MetricsRegistry | None = None,
    *,
    quantiles: tuple[float, float] = (0.5, 0.95),
) -> str:
    """Compact human-readable end-of-run metrics summary.

    One line for the KDE grid-cache hit rate and one line per populated
    histogram with its count and interpolated percentiles
    (seconds-valued histograms are shown in milliseconds).  Timing
    histograms only fill under ``--trace``; empty instruments are
    omitted.
    """
    reg = registry if registry is not None else REGISTRY
    snapshot = reg.snapshot()
    lo_q, hi_q = quantiles
    lines = ["metrics digest:"]
    hits = _counter_value(snapshot, "kde.cache.hit")
    misses = _counter_value(snapshot, "kde.cache.miss")
    lookups = hits + misses
    if lookups:
        lines.append(
            f"  kde grid cache: {int(hits)} hits / {int(misses)} misses "
            f"(hit rate {hits / lookups:.1%})"
        )
    for name in sorted(snapshot):
        state = snapshot[name]
        if state.get("type") != "histogram" or not state["count"]:
            continue
        buckets = [float(b) for b in state["buckets"]]
        counts = [int(c) for c in state["counts"]]
        total = int(state["count"])
        minimum = float(state["min"])
        maximum = float(state["max"])
        lo = estimate_quantile(buckets, counts, total, minimum, maximum, lo_q)
        hi = estimate_quantile(buckets, counts, total, minimum, maximum, hi_q)
        if "seconds" in name:
            values = (
                f"p{int(lo_q * 100)}={lo * 1e3:.2f} ms  "
                f"p{int(hi_q * 100)}={hi * 1e3:.2f} ms"
            )
        else:
            values = f"p{int(lo_q * 100)}={lo:.1f}  p{int(hi_q * 100)}={hi:.1f}"
        lines.append(f"  {name}: n={total}  {values}")
    if len(lines) == 1:
        lines.append("  (no instruments populated)")
    return "\n".join(lines)
