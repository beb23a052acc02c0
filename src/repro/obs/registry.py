"""Process-wide registry of interactive search sessions.

The future session service (ROADMAP item 1) holds thousands of live
and suspended engines at once; operating that fleet needs an answer to
"what sessions exist, how far along are they, and when did each last
move?" without touching engine internals.  :data:`SESSIONS` is that
answer: every :class:`~repro.core.engine.SearchEngine` registers
itself on ``start()`` (and on checkpoint resume) and reports each
transition, so the registry can expose

* aggregate gauges (``sessions.live`` / ``sessions.suspended`` plus a
  cumulative ``sessions.finished`` counter) through the ordinary
  metrics registry, and
* per-session labeled gauge series (steps, views, age, idle time)
  appended to the OpenMetrics exposition, plus the JSON detail behind
  the session service's ``GET /sessions``.

Bookkeeping is a few dictionary writes and one monotonic clock read
per engine transition — cheap enough to stay always-on, like the
engine's counters.  Finished sessions are retained up to a bounded
history (:data:`DEFAULT_MAX_FINISHED`) so long batch runs cannot grow
the registry without bound.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.obs.metrics import counter, gauge

__all__ = [
    "SessionInfo",
    "SessionRegistry",
    "SESSIONS",
    "DEFAULT_MAX_FINISHED",
]

#: Finished sessions kept for inspection before being evicted (FIFO).
DEFAULT_MAX_FINISHED = 256

_LIVE = gauge("sessions.live")
_SUSPENDED = gauge("sessions.suspended")
_FINISHED = counter("sessions.finished")
_FAILED = counter("sessions.failed")

#: Terminal states — no further transitions are accepted.
_TERMINAL = ("finished", "failed")


@dataclass
class SessionInfo:
    """Mutable bookkeeping entry for one engine session."""

    session_id: str
    dataset: str
    n_points: int
    dim: int
    state: str  # "live" | "suspended" | "finished" | "failed"
    created: float  # monotonic
    created_unix: float
    last_transition: float = 0.0  # monotonic
    steps: int = 0
    views: int = 0
    resumed: bool = False
    reason: str | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    def snapshot(self, now: float) -> dict[str, Any]:
        """JSON-compatible view with derived age/idle seconds."""
        return {
            "session_id": self.session_id,
            "dataset": self.dataset,
            "n_points": self.n_points,
            "dim": self.dim,
            "state": self.state,
            "created_unix": self.created_unix,
            "age_seconds": max(0.0, now - self.created),
            "idle_seconds": max(0.0, now - self.last_transition),
            "steps": self.steps,
            "views": self.views,
            "resumed": self.resumed,
            "reason": self.reason,
        }


class SessionRegistry:
    """Thread-safe tracker of live/suspended/finished engine sessions.

    All mutating methods tolerate unknown session ids (a no-op): an
    engine may outlive a :meth:`reset` issued by test fixtures, and its
    late transition reports must not raise.
    """

    def __init__(self, *, max_finished: int = DEFAULT_MAX_FINISHED) -> None:
        self._lock = threading.Lock()
        self._sessions: dict[str, SessionInfo] = {}
        self._finished_order: list[str] = []
        self._max_finished = max_finished
        self._ids = itertools.count(1)

    # -- engine-facing transitions --------------------------------------
    def register(
        self,
        *,
        dataset: str,
        n_points: int,
        dim: int,
        resumed: bool = False,
    ) -> str:
        """Track a new session; returns its id (``s<number>``)."""
        now = time.monotonic()
        with self._lock:
            session_id = f"s{next(self._ids):06d}"
            self._sessions[session_id] = SessionInfo(
                session_id=session_id,
                dataset=dataset,
                n_points=int(n_points),
                dim=int(dim),
                state="live",
                created=now,
                created_unix=time.time(),
                last_transition=now,
                resumed=resumed,
            )
            self._refresh_gauges_locked()
        return session_id

    def note_view(self, session_id: str, *, step: int) -> None:
        """A view was emitted (the engine suspended awaiting a decision)."""
        with self._lock:
            info = self._sessions.get(session_id)
            if info is None or info.state in _TERMINAL:
                return
            info.views += 1
            info.steps = max(info.steps, int(step))
            info.state = "live"
            info.last_transition = time.monotonic()
            self._refresh_gauges_locked()

    def note_decision(self, session_id: str) -> None:
        """A decision was submitted (the engine is advancing)."""
        with self._lock:
            info = self._sessions.get(session_id)
            if info is None or info.state in _TERMINAL:
                return
            info.last_transition = time.monotonic()

    def suspend(self, session_id: str) -> None:
        """The session was checkpointed / abandoned while unfinished."""
        with self._lock:
            info = self._sessions.get(session_id)
            if info is None or info.state in _TERMINAL:
                return
            info.state = "suspended"
            info.last_transition = time.monotonic()
            self._refresh_gauges_locked()

    def finish(self, session_id: str, *, reason: str) -> None:
        """The session produced its terminal result."""
        with self._lock:
            info = self._sessions.get(session_id)
            if info is None or info.state in _TERMINAL:
                return
            info.state = "finished"
            info.reason = reason
            info.last_transition = time.monotonic()
            self._finished_order.append(session_id)
            _FINISHED.inc()
            while len(self._finished_order) > self._max_finished:
                evicted = self._finished_order.pop(0)
                self._sessions.pop(evicted, None)
            self._refresh_gauges_locked()

    def fail(self, session_id: str, *, reason: str) -> None:
        """The session was lost (corrupt checkpoint, dead store, ...).

        ``failed`` is terminal like ``finished`` and shares its bounded
        retention history; the cumulative total is the
        ``sessions.failed`` counter.
        """
        with self._lock:
            info = self._sessions.get(session_id)
            if info is None or info.state in _TERMINAL:
                return
            info.state = "failed"
            info.reason = reason
            info.last_transition = time.monotonic()
            self._finished_order.append(session_id)
            _FAILED.inc()
            while len(self._finished_order) > self._max_finished:
                evicted = self._finished_order.pop(0)
                self._sessions.pop(evicted, None)
            self._refresh_gauges_locked()

    def forget(self, session_id: str) -> None:
        """Drop a session entirely (no counter is incremented).

        The session service resumes each suspended engine under a fresh
        registry id per request; forgetting the superseded id keeps the
        registry (and the per-session metric series) from accumulating
        one dead entry per decision.
        """
        with self._lock:
            if self._sessions.pop(session_id, None) is None:
                return
            try:
                self._finished_order.remove(session_id)
            except ValueError:
                pass
            self._refresh_gauges_locked()

    # -- introspection --------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Current ``{"live": ..., "suspended": ..., "finished": ...,
        "failed": ...}``.

        ``finished``/``failed`` count the *retained* history (bounded
        by ``max_finished``); the cumulative totals are the
        ``sessions.finished`` / ``sessions.failed`` counters.
        """
        with self._lock:
            return self._counts_locked()

    def snapshot(self) -> list[dict[str, Any]]:
        """Per-session detail, newest first (the ``/sessions`` payload)."""
        now = time.monotonic()
        with self._lock:
            infos = sorted(
                self._sessions.values(), key=lambda i: i.created, reverse=True
            )
            return [info.snapshot(now) for info in infos]

    def openmetrics_lines(self, *, prefix: str = "repro_") -> list[str]:
        """Per-session labeled gauge series for the text exposition.

        Only unfinished (live/suspended) sessions are exported as
        labeled series — finished sessions would accumulate dead label
        sets in a scraper; their detail stays on ``/sessions``.
        """
        now = time.monotonic()
        with self._lock:
            active = [
                info
                for info in sorted(
                    self._sessions.values(), key=lambda i: i.session_id
                )
                if info.state not in _TERMINAL
            ]
        if not active:
            return []
        lines: list[str] = []
        series = (
            ("session_steps", "decision steps completed", lambda i: i.steps),
            ("session_views", "views shown", lambda i: i.views),
            (
                "session_age_seconds",
                "seconds since session start",
                lambda i: max(0.0, now - i.created),
            ),
            (
                "session_idle_seconds",
                "seconds since last transition",
                lambda i: max(0.0, now - i.last_transition),
            ),
        )
        for name, help_text, value_of in series:
            metric = f"{prefix}{name}"
            lines.append(f"# HELP {metric} repro per-session {help_text}")
            lines.append(f"# TYPE {metric} gauge")
            for info in active:
                value = value_of(info)
                rendered = (
                    str(int(value)) if value == int(value) else repr(float(value))
                )
                lines.append(
                    f'{metric}{{session="{info.session_id}",'
                    f'state="{info.state}"}} {rendered}'
                )
        return lines

    def reset(self) -> None:
        """Forget every session (test isolation)."""
        with self._lock:
            self._sessions.clear()
            self._finished_order.clear()
            self._refresh_gauges_locked()

    # -- internals ------------------------------------------------------
    def _counts_locked(self) -> dict[str, int]:
        counts = {"live": 0, "suspended": 0, "finished": 0, "failed": 0}
        for info in self._sessions.values():
            counts[info.state] += 1
        return counts

    def _refresh_gauges_locked(self) -> None:
        counts = self._counts_locked()
        _LIVE.set(counts["live"])
        _SUSPENDED.set(counts["suspended"])


#: The process-wide session registry every engine reports to.
SESSIONS = SessionRegistry()
