"""Spans recorded from outside the program, around calls into its layers.

The benchmark does not use the program's own tracer: it replaces public
functions and methods of ``repro`` with thin wrappers that record one
span per call (name, start, end, parent, key).  Spans are kept in memory
and written out when the process ends.  A span's *self time* is its
duration minus the part of its interval that its child spans cover, so
time no wrapped child explains stays visible at the layer that owns it.

Recording is switched per asyncio task (or thread) through a context
variable, so one process can alternate traced and untraced sessions and
price the wrappers themselves (``trace.overhead_share``).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator

from perfstats import percentile

_CURRENT: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)
_ACTIVE: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "perfbench_active", default=False
)


def set_active(on: bool) -> contextvars.Token:
    """Record spans in the current task/thread from now on (or stop)."""
    return _ACTIVE.set(bool(on))


def reset_active(token: contextvars.Token) -> None:
    _ACTIVE.reset(token)


def is_active() -> bool:
    return _ACTIVE.get()


def session_traced(session_id: str) -> bool:
    """Which service sessions a traced run records: the server launcher
    and the client agree on this without talking to each other."""
    return int(session_id[-1], 16) % 2 == 0


class SpanRecorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self, process: str) -> None:
        self.process = process
        self.spans: list[dict[str, Any]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    @contextlib.contextmanager
    def span(
        self, name: str, key: str | None = None, **attrs: Any
    ) -> Iterator[dict[str, Any] | None]:
        """Record one span when recording is on; a no-op otherwise."""
        if not _ACTIVE.get():
            yield None
            return
        parent = _CURRENT.get()
        record: dict[str, Any] = {
            "id": len(self.spans),
            "parent": parent["id"] if parent is not None else None,
            "name": name,
            "key": key if key is not None else (parent["key"] if parent else None),
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        token = _CURRENT.set(record)
        try:
            yield record
        except BaseException:
            record["attrs"]["error"] = True
            raise
        finally:
            record["end"] = time.perf_counter()
            _CURRENT.reset(token)

    # -- patching ---------------------------------------------------------
    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        result_bytes: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        Plain functions, methods, classmethods and coroutine functions
        are supported.  ``result_bytes`` stores ``len(result)`` in the
        span (checkpoint sizes).
        """
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self._wrap(raw.__func__, name, result_bytes))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(raw.__func__, name, result_bytes))
        else:
            wrapped = self._wrap(raw, name, result_bytes)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _wrap(self, fn: Callable, name: str, result_bytes: bool) -> Callable:
        recorder = self
        if inspect.iscoroutinefunction(fn):

            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                if not _ACTIVE.get():
                    return await fn(*args, **kwargs)
                with recorder.span(name):
                    return await fn(*args, **kwargs)

            return functools.wraps(fn)(async_wrapper)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _ACTIVE.get():
                return fn(*args, **kwargs)
            with recorder.span(name) as record:
                result = fn(*args, **kwargs)
                if result_bytes:
                    record["attrs"]["bytes"] = len(result)
                return result

        return functools.wraps(fn)(wrapper)

    # -- output -------------------------------------------------------------
    def dump(self, path: str | Path) -> None:
        """Write the closed spans as JSON."""
        closed = [s for s in self.spans if s["end"] is not None]
        Path(path).write_text(
            json.dumps({"process": self.process, "spans": closed})
        )


def load_spans(path: str | Path) -> list[dict[str, Any]]:
    return json.loads(Path(path).read_text())["spans"]


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------
def covered_time(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of *intervals* clipped to ``[start, end]``.

    Children of one span may overlap (asyncio tasks sharing a loop), so
    they are merged before summing rather than simply added.
    """
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cur_a: float | None = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[dict[str, Any]]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - covered_time(s["start"], s["end"], children.get(s["id"], []))
        for s in spans
    }


def root_of(spans: list[dict[str, Any]]) -> dict[int, dict[str, Any]]:
    """Span id -> the root span of its tree."""
    by_id = {s["id"]: s for s in spans}
    roots: dict[int, dict[str, Any]] = {}
    for s in spans:
        cur = s
        while cur["parent"] is not None and cur["parent"] in by_id:
            cur = by_id[cur["parent"]]
        roots[s["id"]] = cur
    return roots


def layer_table(spans: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self milliseconds, p50 duration."""
    selfs = self_times(spans)
    durations: dict[str, list[float]] = defaultdict(list)
    self_ms: dict[str, float] = defaultdict(float)
    for s in spans:
        durations[s["name"]].append((s["end"] - s["start"]) * 1e3)
        self_ms[s["name"]] += selfs[s["id"]] * 1e3
    table = {}
    for name, values in durations.items():
        table[name] = {
            "calls": len(values),
            "total_ms": sum(values),
            "self_ms": self_ms[name],
            "p50_ms": percentile(values, 50),
        }
    return table


def unexplained(
    spans: list[dict[str, Any]], root_names: set[str], threshold: float = 0.15
) -> list[dict[str, Any]]:
    """Roots (views, requests) whose self time exceeds *threshold* of
    their duration: time no wrapped layer explains."""
    selfs = self_times(spans)
    flagged = []
    for s in spans:
        if s["parent"] is None and s["name"] in root_names:
            duration = s["end"] - s["start"]
            share = selfs[s["id"]] / duration if duration > 0 else 0.0
            if share > threshold:
                flagged.append(
                    {
                        "name": s["name"],
                        "key": s["key"],
                        "ms": duration * 1e3,
                        "self_share": share,
                    }
                )
    return flagged


def format_table(title: str, table: dict[str, dict[str, float]], base_ms: float) -> str:
    """Human-readable self-time table; shares are of *base_ms*."""
    lines = [
        title,
        f"  {'layer':34s} {'calls':>7s} {'p50 ms':>9s} {'total ms':>10s} "
        f"{'self ms':>10s} {'self/base':>9s}",
    ]
    for name in sorted(table, key=lambda k: -table[k]["self_ms"]):
        row = table[name]
        share = row["self_ms"] / base_ms if base_ms else 0.0
        lines.append(
            f"  {name:34s} {row['calls']:7d} {row['p50_ms']:9.3f} "
            f"{row['total_ms']:10.1f} {row['self_ms']:10.1f} {share:9.3f}"
        )
    return "\n".join(lines)
