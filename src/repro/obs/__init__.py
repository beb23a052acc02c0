"""repro.obs — zero-dependency observability for the search pipeline.

Eight modules:

* :mod:`repro.obs.trace` — span-based tracer with a context-manager /
  decorator API, nested spans, wall + CPU time, per-span attributes,
  and a module-level no-op fast path when disabled.
* :mod:`repro.obs.metrics` — process-wide registry of counters,
  gauges, and fixed-bucket histograms; thread-safe and resettable.
* :mod:`repro.obs.export` — JSON / Chrome-tracing / ASCII-flame
  exporters for completed traces.
* :mod:`repro.obs.logging` — the ``repro.*`` structured logger
  hierarchy (NullHandler by default; the CLI's ``-v`` flags opt in).
* :mod:`repro.obs.openmetrics` — Prometheus/OpenMetrics text
  exposition (served by the session service's ``/metrics``),
  ``metrics.json`` writer and end-of-run digest.
* :mod:`repro.obs.journal` — the session flight recorder: an
  append-only, hash-chained JSONL journal of engine transitions.
* :mod:`repro.obs.replay` — deterministic replay/diff and timeline
  inspection of recorded journals.
* :mod:`repro.obs.registry` — the process-wide
  :class:`~repro.obs.registry.SessionRegistry` of live / suspended /
  finished engine sessions.

Quick start::

    from repro.obs import span, start_trace, finish_trace, ascii_flame

    start_trace(workload="demo")
    with span("search.run", n=2000):
        ...
    report = finish_trace()
    print(ascii_flame(report))
"""

from repro.obs.export import (
    ascii_flame,
    dict_to_trace,
    load_trace,
    save_chrome_trace,
    save_trace,
    span_from_dict,
    span_to_dict,
    to_chrome_trace,
    trace_to_dict,
)
from repro.obs.journal import (
    JOURNAL_FORMAT,
    JOURNAL_SCHEMA_VERSION,
    JournalRecord,
    SessionJournal,
    journal_summary,
    read_journal,
)
from repro.obs.logging import AccessLogWriter, configure_logging, get_logger
from repro.obs.metrics import (
    DEFAULT_SECONDS_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    METRICS_SCHEMA_VERSION,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    estimate_quantile,
    gauge,
    histogram,
)
from repro.obs.openmetrics import (
    render_metrics_digest,
    render_openmetrics,
    write_metrics,
)
from repro.obs.registry import SESSIONS, SessionInfo, SessionRegistry
from repro.obs.replay import (
    Divergence,
    ReplayReport,
    inspect_journal,
    replay_journal,
)
from repro.obs.trace import (
    Span,
    TraceReport,
    Tracer,
    current_tracer,
    finish_trace,
    span,
    start_trace,
    traced,
    tracing_enabled,
)

__all__ = [
    # trace
    "Span",
    "Tracer",
    "TraceReport",
    "span",
    "traced",
    "start_trace",
    "finish_trace",
    "current_tracer",
    "tracing_enabled",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "DEFAULT_SECONDS_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "METRICS_SCHEMA_VERSION",
    "estimate_quantile",
    # export
    "trace_to_dict",
    "dict_to_trace",
    "span_to_dict",
    "span_from_dict",
    "save_trace",
    "load_trace",
    "to_chrome_trace",
    "save_chrome_trace",
    "ascii_flame",
    # openmetrics
    "render_openmetrics",
    "render_metrics_digest",
    "write_metrics",
    # logging
    "get_logger",
    "configure_logging",
    "AccessLogWriter",
    # journal (session flight recorder)
    "SessionJournal",
    "JournalRecord",
    "read_journal",
    "journal_summary",
    "JOURNAL_FORMAT",
    "JOURNAL_SCHEMA_VERSION",
    # replay
    "replay_journal",
    "inspect_journal",
    "ReplayReport",
    "Divergence",
    # session registry
    "SESSIONS",
    "SessionRegistry",
    "SessionInfo",
]
