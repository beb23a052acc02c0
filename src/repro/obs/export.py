"""Trace exporters: JSON, Chrome tracing, ASCII flame summary.

Three renderings of a completed :class:`~repro.obs.trace.TraceReport`:

* :func:`trace_to_dict` / :func:`dict_to_trace` — lossless JSON-
  compatible round trip (``load(dump(t)) == dump(t)``), the archival
  format written by ``python -m repro --trace-out``.
* :func:`to_chrome_trace` — the Chrome ``chrome://tracing`` /
  Perfetto "trace event" format (complete ``"X"`` events with
  microsecond timestamps), for visual flame-graph inspection.
* :func:`ascii_flame` — a human-readable indented summary with
  per-span duration bars, printed by the CLI when ``--trace`` is given
  without an output path.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from repro.obs.trace import Span, TraceReport

__all__ = [
    "trace_to_dict",
    "dict_to_trace",
    "span_to_dict",
    "span_from_dict",
    "save_trace",
    "load_trace",
    "to_chrome_trace",
    "save_chrome_trace",
    "ascii_flame",
]

#: Schema version of the JSON trace format.  Version 2 archives carry
#: a per-span ``lane`` field that version 3 dropped; archives of every
#: version load, and the field is ignored.
TRACE_SCHEMA_VERSION = 3


# ----------------------------------------------------------------------
# JSON round trip
# ----------------------------------------------------------------------
def span_to_dict(span: Span) -> dict[str, Any]:
    """Serialize one span tree to a JSON-compatible dictionary."""
    return {
        "name": span.name,
        "start_wall": span.start_wall,
        "end_wall": span.end_wall,
        "start_cpu": span.start_cpu,
        "end_cpu": span.end_cpu,
        "thread_id": span.thread_id,
        "attributes": dict(span.attributes),
        "children": [span_to_dict(child) for child in span.children],
    }


def span_from_dict(payload: dict[str, Any]) -> Span:
    """Rebuild a span tree from :func:`span_to_dict` output."""
    return Span(
        name=payload["name"],
        start_wall=payload["start_wall"],
        end_wall=payload["end_wall"],
        start_cpu=payload["start_cpu"],
        end_cpu=payload["end_cpu"],
        thread_id=payload.get("thread_id", 0),
        attributes=dict(payload.get("attributes", {})),
        children=[span_from_dict(child) for child in payload.get("children", [])],
    )


def trace_to_dict(report: TraceReport) -> dict[str, Any]:
    """Render a trace as a JSON-compatible dictionary."""
    return {
        "schema_version": TRACE_SCHEMA_VERSION,
        "metadata": dict(report.metadata),
        "total_wall": report.total_wall,
        "roots": [span_to_dict(root) for root in report.roots],
    }


def dict_to_trace(payload: dict[str, Any]) -> TraceReport:
    """Rebuild a :class:`TraceReport` from :func:`trace_to_dict` output."""
    return TraceReport(
        roots=tuple(span_from_dict(root) for root in payload.get("roots", [])),
        metadata=dict(payload.get("metadata", {})),
    )


def save_trace(report: TraceReport, path: str | Path) -> Path:
    """Write the JSON trace format; returns the written path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace_to_dict(report), indent=2, sort_keys=True))
    return path


def load_trace(path: str | Path) -> TraceReport:
    """Read back a JSON trace archive."""
    return dict_to_trace(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# Chrome trace event format
# ----------------------------------------------------------------------
def _json_safe(value: Any) -> Any:
    """Make one attribute value strict-JSON serializable.

    Non-finite floats (``nan`` / ``inf``) are not valid JSON; Chrome's
    trace viewer rejects files containing them.  They are rendered as
    strings instead; containers are sanitized recursively.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def to_chrome_trace(report: TraceReport) -> dict[str, Any]:
    """Render the trace in Chrome's trace-event JSON format.

    Each span becomes one complete event (``"ph": "X"``) with
    microsecond ``ts`` / ``dur`` relative to the earliest span start,
    so the file loads directly into ``chrome://tracing`` or
    https://ui.perfetto.dev.

    Every event carries ``pid`` 0 and the opening thread as ``tid``.
    Span attributes are sanitized for strict JSON (non-finite floats
    become strings).
    """
    spans = list(report.iter_spans())
    origin = min((s.start_wall for s in spans), default=0.0)
    events = [
        {
            "name": s.name,
            "ph": "X",
            "ts": (s.start_wall - origin) * 1e6,
            "dur": s.wall * 1e6,
            "pid": 0,
            "tid": s.thread_id,
            "cat": s.name.split(".", 1)[0],
            "args": {k: _json_safe(v) for k, v in s.attributes.items()},
        }
        for s in spans
    ]
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": _json_safe(dict(report.metadata)),
    }


def save_chrome_trace(report: TraceReport, path: str | Path) -> Path:
    """Write the Chrome trace-event format; returns the written path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # allow_nan=False locks the strict-JSON guarantee: the sanitizer in
    # to_chrome_trace must have handled every non-finite value.
    path.write_text(json.dumps(to_chrome_trace(report), allow_nan=False))
    return path


# ----------------------------------------------------------------------
# ASCII flame summary
# ----------------------------------------------------------------------
def _flame_lines(
    span: Span,
    total: float,
    depth: int,
    lines: list[str],
    *,
    bar_width: int,
    max_depth: int,
) -> None:
    fraction = span.wall / total if total > 0 else 0.0
    bar = "#" * max(1, round(fraction * bar_width)) if span.wall > 0 else ""
    indent = "  " * depth
    attrs = ""
    if span.attributes:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(span.attributes.items()))
        attrs = f"  [{inner}]"
    lines.append(
        f"{indent}{span.name:<{max(1, 36 - 2 * depth)}} "
        f"{span.wall * 1e3:9.2f} ms {fraction:6.1%}  {bar}{attrs}"
    )
    if depth + 1 >= max_depth:
        return
    for child in span.children:
        _flame_lines(
            child, total, depth + 1, lines, bar_width=bar_width, max_depth=max_depth
        )


def ascii_flame(
    report: TraceReport, *, bar_width: int = 30, max_depth: int = 12
) -> str:
    """Human-readable indented flame summary of a trace.

    Each line shows a span's name, wall time, share of the trace
    total, and a proportional ``#`` bar; children are indented under
    their parent.  A per-name aggregate table follows the tree.
    """
    total = report.total_wall
    lines: list[str] = [
        f"trace total {total * 1e3:.2f} ms "
        f"({sum(1 for _ in report.iter_spans())} spans)"
    ]
    for root in report.roots:
        _flame_lines(
            root, total, 0, lines, bar_width=bar_width, max_depth=max_depth
        )
    agg = report.aggregate()
    if agg:
        lines.append("")
        lines.append(
            f"{'span name':<36} {'count':>6} {'total ms':>10} "
            f"{'mean ms':>10} {'self ms':>10}"
        )
        for name, entry in sorted(
            agg.items(), key=lambda item: -item[1]["wall_total"]
        ):
            lines.append(
                f"{name:<36} {int(entry['count']):>6} "
                f"{entry['wall_total'] * 1e3:>10.2f} "
                f"{entry['wall_mean'] * 1e3:>10.2f} "
                f"{entry['self_wall_total'] * 1e3:>10.2f}"
            )
    return "\n".join(lines)
