"""Span-based tracing for the interactive search pipeline.

The tracer records a tree of *spans* — named, timed sections of work
with key-value attributes — mirroring what production tracing systems
(OpenTelemetry, Chrome tracing) provide, with zero dependencies.

Design goals
------------
* **Near-zero cost when disabled.**  ``span(...)`` first checks a single
  module-level variable; when no tracer is active it returns a shared
  no-op singleton whose ``__enter__`` / ``__exit__`` / ``set`` do
  nothing.  No objects are allocated, no clocks are read.
* **Nesting.**  Spans started while another span is open become its
  children, producing a call-tree that exporters can render as a flame
  graph.
* **Thread safety.**  The span stack is thread-local; spans opened on a
  worker thread become roots of that thread's subtree.  Root collection
  is lock-protected.

Usage::

    from repro.obs import span, start_trace, finish_trace

    start_trace()
    with span("kde.grid", n=live_count) as s:
        ...
        s.set(cells=grid.cell_count)
    report = finish_trace()
    print(report.total_wall)
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, TypeVar

__all__ = [
    "Span",
    "Tracer",
    "TraceReport",
    "span",
    "traced",
    "start_trace",
    "finish_trace",
    "current_tracer",
    "tracing_enabled",
]

F = TypeVar("F", bound=Callable[..., Any])


@dataclass
class Span:
    """One named, timed section of work.

    Attributes
    ----------
    name:
        Dotted span name (``"search.major"``, ``"kde.grid"``, ...).
    start_wall, end_wall:
        ``time.perf_counter()`` readings at entry / exit.
    start_cpu, end_cpu:
        ``time.process_time()`` readings at entry / exit.
    attributes:
        Free-form key-value payload (kept JSON-compatible by callers).
    children:
        Nested spans, in start order.
    thread_id:
        ``threading.get_ident()`` of the opening thread.
    """

    name: str
    start_wall: float = 0.0
    end_wall: float = 0.0
    start_cpu: float = 0.0
    end_cpu: float = 0.0
    attributes: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    thread_id: int = 0

    @property
    def wall(self) -> float:
        """Wall-clock duration in seconds."""
        return self.end_wall - self.start_wall

    @property
    def cpu(self) -> float:
        """CPU-clock duration in seconds."""
        return self.end_cpu - self.start_cpu

    @property
    def self_wall(self) -> float:
        """Wall time not covered by direct children."""
        return self.wall - sum(child.wall for child in self.children)

    def set(self, **attributes: Any) -> "Span":
        """Attach (or overwrite) key-value attributes; returns self."""
        self.attributes.update(attributes)
        return self

    def iter_spans(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and all descendants."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def find(self, name: str) -> list["Span"]:
        """All descendant spans (including self) with the given name."""
        return [s for s in self.iter_spans() if s.name == name]


class _NullSpan:
    """Shared no-op stand-in returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **attributes: Any) -> "_NullSpan":
        return self


#: The singleton no-op span (module-level so the disabled path allocates
#: nothing).
NULL_SPAN = _NullSpan()


@dataclass(frozen=True)
class TraceReport:
    """An immutable, completed trace.

    Attributes
    ----------
    roots:
        Top-level spans in start order (one per top-level ``with span``
        block; worker threads contribute their own roots).
    metadata:
        Free-form trace-level payload (workload name, config, ...).
    """

    roots: tuple[Span, ...]
    metadata: dict[str, Any] = field(default_factory=dict, hash=False)

    @property
    def total_wall(self) -> float:
        """Sum of root span wall durations."""
        return sum(root.wall for root in self.roots)

    def iter_spans(self) -> Iterator[Span]:
        """Depth-first iteration over every span in the trace."""
        for root in self.roots:
            yield from root.iter_spans()

    def find(self, name: str) -> list[Span]:
        """Every span with the given name, depth-first order."""
        return [s for s in self.iter_spans() if s.name == name]

    def span_names(self) -> list[str]:
        """Distinct span names, in first-seen order."""
        seen: dict[str, None] = {}
        for s in self.iter_spans():
            seen.setdefault(s.name, None)
        return list(seen)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per-name aggregate: count, total/mean wall, total cpu, self wall.

        The basis of per-phase breakdown tables in the benchmark
        harness.
        """
        agg: dict[str, dict[str, float]] = {}
        for s in self.iter_spans():
            entry = agg.setdefault(
                s.name,
                {
                    "count": 0.0,
                    "wall_total": 0.0,
                    "cpu_total": 0.0,
                    "self_wall_total": 0.0,
                },
            )
            entry["count"] += 1
            entry["wall_total"] += s.wall
            entry["cpu_total"] += s.cpu
            entry["self_wall_total"] += s.self_wall
        for entry in agg.values():
            entry["wall_mean"] = entry["wall_total"] / entry["count"]
        return agg


class _SpanContext:
    """Context manager produced by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span_obj: Span) -> None:
        self._tracer = tracer
        self._span = span_obj

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        self._span.start_wall = time.perf_counter()
        self._span.start_cpu = time.process_time()
        return self._span

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self._span.end_cpu = time.process_time()
        self._span.end_wall = time.perf_counter()
        if exc_type is not None:
            self._span.attributes.setdefault(
                "error", getattr(exc_type, "__name__", str(exc_type))
            )
        self._tracer._pop(self._span)
        return None


class Tracer:
    """Collects a tree of spans for one traced workload.

    A tracer becomes *active* (receives the module-level ``span(...)``
    calls) via :func:`start_trace` or :meth:`activate`; collection is
    complete after :meth:`report`.
    """

    def __init__(self, **metadata: Any) -> None:
        self._roots: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._metadata = dict(metadata)

    # -- span stack ----------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, span_obj: Span) -> None:
        stack = self._stack()
        span_obj.thread_id = threading.get_ident()
        if stack:
            stack[-1].children.append(span_obj)
        else:
            with self._lock:
                self._roots.append(span_obj)
        stack.append(span_obj)

    def _pop(self, span_obj: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span_obj:
            stack.pop()
        elif span_obj in stack:  # pragma: no cover - defensive
            stack.remove(span_obj)

    # -- public API ----------------------------------------------------
    def span(self, name: str, **attributes: Any) -> _SpanContext:
        """Open a child span of the current span (or a new root)."""
        return _SpanContext(self, Span(name=name, attributes=attributes))

    def report(self, **metadata: Any) -> TraceReport:
        """Freeze the collected spans into a :class:`TraceReport`."""
        with self._lock:
            roots = tuple(self._roots)
        meta = dict(self._metadata)
        meta.update(metadata)
        return TraceReport(roots=roots, metadata=meta)

    def activate(self) -> "_ActivationContext":
        """Context manager installing this tracer as the active one."""
        return _ActivationContext(self)


class _ActivationContext:
    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._previous: Tracer | None = None

    def __enter__(self) -> Tracer:
        global _ACTIVE_TRACER
        self._previous = _ACTIVE_TRACER
        _ACTIVE_TRACER = self._tracer
        return self._tracer

    def __exit__(self, *exc: object) -> None:
        global _ACTIVE_TRACER
        _ACTIVE_TRACER = self._previous
        return None


# ----------------------------------------------------------------------
# Module-level active tracer and fast-path helpers.
# ----------------------------------------------------------------------
_ACTIVE_TRACER: Tracer | None = None


def span(name: str, **attributes: Any):
    """Open a span on the active tracer, or a shared no-op when disabled.

    This is *the* instrumentation entry point used across the library::

        with span("connectivity.merge_tree.build", cells=n) as s:
            ...
            s.set(merges=merge_count)

    When no tracer is active the call returns a module-level singleton
    whose enter/exit are empty — the disabled cost is one global load,
    one comparison, and (when keyword attributes are passed) one dict
    build.  Hot loops should therefore pass attributes via ``s.set``
    inside the span rather than as call keywords when they only matter
    under tracing.
    """
    tracer = _ACTIVE_TRACER
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attributes)


def tracing_enabled() -> bool:
    """Whether a tracer is currently active."""
    return _ACTIVE_TRACER is not None


def current_tracer() -> Tracer | None:
    """The active tracer, if any."""
    return _ACTIVE_TRACER


def start_trace(**metadata: Any) -> Tracer:
    """Install a fresh active tracer (replacing any current one)."""
    global _ACTIVE_TRACER
    tracer = Tracer(**metadata)
    _ACTIVE_TRACER = tracer
    return tracer


def finish_trace(**metadata: Any) -> TraceReport | None:
    """Deactivate the active tracer and return its report (or ``None``)."""
    global _ACTIVE_TRACER
    tracer = _ACTIVE_TRACER
    _ACTIVE_TRACER = None
    if tracer is None:
        return None
    return tracer.report(**metadata)


def traced(name: str | None = None, **attributes: Any) -> Callable[[F], F]:
    """Decorator wrapping a function body in a span.

    ``name`` defaults to ``module.qualname`` of the wrapped function.
    The disabled-path overhead is the same single global check as
    :func:`span`.
    """

    def decorate(func: F) -> F:
        span_name = name or f"{func.__module__}.{func.__qualname__}"

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer = _ACTIVE_TRACER
            if tracer is None:
                return func(*args, **kwargs)
            with tracer.span(span_name, **attributes):
                return func(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate
