"""The asyncio session service: interactive search over HTTP.

This is ROADMAP item 1 made concrete: every piece the previous PRs
built for it — the sans-io :class:`~repro.core.engine.SearchEngine`,
lossless checkpoints, the :data:`~repro.obs.registry.SESSIONS`
registry, OpenMetrics rendering, session journals — composes here
into a server that holds *thousands* of concurrent interactive
searches on one box.

Between requests a session is durably its checkpoint bytes in a
:class:`~repro.service.store.SessionStore`: each ``POST
/sessions/{id}/decision`` resumes the engine, applies the decision,
writes a new checkpoint, and suspends the engine again.  The server
can therefore be killed between any two requests and every session
survives.  While a checkpoint is hot the store also keeps the suspended
engine next to it, so a hot decision wakes that engine in place (no
checkpoint decode, no state rebuild, no view recompute) and costs one
engine step; spilled, recovered or restarted sessions, and any session
after a failed request, resume cold from the bytes and recompute the
view byte-identically.

Endpoints (see ``docs/SERVICE.md`` for the full reference)::

    POST   /sessions                create -> id + first view event
    GET    /sessions                list sessions
    GET    /sessions/{id}           introspection snapshot
    POST   /sessions/{id}/decision  submit tau/accept -> next event
    DELETE /sessions/{id}           abandon
    GET    /metrics                 OpenMetrics text exposition
    GET    /metrics.json            metrics JSON document
    GET    /healthz                 liveness + occupancy

Handlers contain **no awaits** around engine work: the event loop
serializes requests, so each session transition is atomic without
locks.  Engine work is CPU-bound pure Python/numpy; for multi-core
deployments run one process per core behind a TCP balancer — sessions
migrate freely wherever the store is shared (spill directory on
shared disk).
"""

from __future__ import annotations

import asyncio
import threading
import time
import uuid
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.config import SearchConfig
from repro.core.engine import (
    DatasetPrecomputation,
    SearchEngine,
    SearchResult,
    ViewRequest,
)
from repro.core.serialization import (
    checkpoint_config,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    dataset_fingerprint,
    resume_engine,
)
from repro.data.dataset import Dataset
from repro.exceptions import (
    CheckpointError,
    InteractionError,
    JournalError,
    ReproError,
    ServiceError,
)
from repro.obs.journal import SessionJournal
from repro.obs.logging import AccessLogWriter, get_logger
from repro.obs.metrics import METRICS_SCHEMA_VERSION, REGISTRY, counter, gauge, histogram
from repro.obs.openmetrics import (
    OPENMETRICS_CONTENT_TYPE,
    render_live_openmetrics,
)
from repro.obs.registry import SESSIONS
from repro.obs.trace import span
from repro.service.http import (
    HttpRequest,
    HttpResponse,
    error_response,
    json_response,
    serve_connection,
)
from repro.service.store import SessionStore, SpilloverSessionStore
from repro.service.wire import (
    config_from_payload,
    decision_from_payload,
    result_event,
    view_event,
)

__all__ = [
    "SessionService",
    "ServiceRuntime",
    "route_template",
    "DEFAULT_MAX_TERMINAL",
]

_log = get_logger("service")

#: Finished/failed session snapshots retained for introspection.
DEFAULT_MAX_TERMINAL = 4096

_REQUESTS = counter("service.requests")
_ERRORS = counter("service.errors")
_REQUEST_SECONDS = histogram("service.request.seconds")
_CREATED = counter("service.sessions.created")
_FINISHED = counter("service.sessions.finished")
_FAILED = counter("service.sessions.failed")
_DELETED = counter("service.sessions.deleted")
_RESUMES = counter("service.sessions.resumes")
_VIEW_RECOMPUTES = counter("service.view_recomputes")
_ACTIVE = gauge("service.sessions.active")


def route_template(path: str) -> tuple[str, str | None]:
    """Map a request path onto ``(route template, session id)``.

    The template (e.g. ``/sessions/{id}/decision``) is the access
    log's ``route`` field, the key per-route latency and error rates
    are computed by; the extracted session ID is its ``session`` field.
    """
    parts = [p for p in path.split("/") if p]
    if len(parts) == 1 and parts[0] in (
        "healthz",
        "metrics",
        "metrics.json",
        "datasets",
        "sessions",
    ):
        return f"/{parts[0]}", None
    if len(parts) == 2 and parts[0] == "sessions":
        return "/sessions/{id}", parts[1]
    if len(parts) == 3 and parts[0] == "sessions" and parts[2] == "decision":
        return "/sessions/{id}/decision", parts[1]
    return "(unmatched)", None


@dataclass
class ServiceSession:
    """Service-side metadata for one session (between requests the
    engine lives in the store: checkpoint bytes, plus the suspended
    engine while they are hot)."""

    session_id: str
    dataset: str
    config: SearchConfig
    include_view: bool
    status: str  # "awaiting_decision" | "finished" | "failed"
    step: int  # step of the pending view (what the next decision echoes)
    major: int
    minor: int
    live_count: int
    registry_id: str | None
    created_unix: float
    decisions: int = 0
    last_event: dict[str, Any] | None = field(default=None, repr=False)
    journal_path: str | None = None
    error: str | None = None

    def snapshot(self) -> dict[str, Any]:
        """The ``GET /sessions/{id}`` introspection payload."""
        return {
            "session": self.session_id,
            "dataset": self.dataset,
            "status": self.status,
            "step": self.step,
            "major": self.major,
            "minor": self.minor,
            "live_count": self.live_count,
            "decisions": self.decisions,
            "created_unix": self.created_unix,
            "registry_id": self.registry_id,
            "journal_path": self.journal_path,
            "error": self.error,
            "config": {
                "support": self.config.support,
                "rng_seed": self.config.rng_seed,
                "grid_resolution": self.config.grid_resolution,
                "bandwidth_scale": self.config.bandwidth_scale,
            },
        }


class SessionService:
    """Routing and session lifecycle for the asyncio HTTP service.

    Parameters
    ----------
    store:
        Checkpoint storage; defaults to an unbounded in-memory
        :class:`~repro.service.store.SpilloverSessionStore`.
    journal_dir:
        When set, every session writes a flight-recorder journal to
        ``<journal_dir>/<session_id>.jsonl`` (replayable with
        ``python -m repro replay``).
    max_terminal:
        Finished/failed metadata snapshots retained (FIFO evicted).
    access_log:
        Structured JSONL access log: a path (opened for append), an
        open text stream, or a prebuilt
        :class:`~repro.obs.logging.AccessLogWriter`.  ``None`` (the
        default) disables access logging entirely.
    """

    def __init__(
        self,
        *,
        store: SessionStore | None = None,
        journal_dir: str | Path | None = None,
        max_terminal: int = DEFAULT_MAX_TERMINAL,
        access_log: str | Path | Any | None = None,
    ) -> None:
        self._store: SessionStore = (
            store if store is not None else SpilloverSessionStore()
        )
        self._journal_dir = Path(journal_dir) if journal_dir else None
        self._max_terminal = max_terminal
        self._datasets: dict[str, tuple[Dataset, DatasetPrecomputation]] = {}
        self._fingerprints: dict[str, str] = {}  # sha256 -> dataset name
        self._sessions: dict[str, ServiceSession] = {}
        self._terminal_order: list[str] = []
        self._busy: set[str] = set()
        self._started = time.monotonic()
        self._conn_tasks: set[asyncio.Task[None]] = set()
        self._conn_writers: set[asyncio.StreamWriter] = set()
        if access_log is None or isinstance(access_log, AccessLogWriter):
            self._access_log: AccessLogWriter | None = access_log
        else:
            self._access_log = AccessLogWriter(access_log)
        self._last_created_session: str | None = None

    @property
    def access_log(self) -> AccessLogWriter | None:
        """The access-log writer (None when disabled)."""
        return self._access_log

    def close(self) -> None:
        """Release service-owned resources (currently the access log)."""
        if self._access_log is not None:
            self._access_log.close()

    # -- datasets -------------------------------------------------------
    def register_dataset(self, name: str, dataset: Dataset) -> None:
        """Publish a dataset (and its shared precomputation) by name.

        The service keeps a read-only view of the points, so the
        dataset fingerprint every request checks is hashed only once.
        """
        if name in self._datasets:
            raise ServiceError(
                409, "dataset_exists", f"dataset {name!r} already registered"
            )
        if dataset.points.flags.writeable:
            points = dataset.points.view()
            points.setflags(write=False)
            dataset = replace(dataset, points=points)
        pre = DatasetPrecomputation(dataset)
        self._datasets[name] = (dataset, pre)
        self._fingerprints[dataset_fingerprint(dataset)["sha256"]] = name
        _log.info(
            "registered dataset %r (%d points, dim %d)",
            name,
            dataset.size,
            dataset.dim,
        )

    def datasets(self) -> dict[str, dict[str, int]]:
        return {
            name: {"n_points": ds.size, "dim": ds.dim}
            for name, (ds, _) in self._datasets.items()
        }

    # -- startup recovery -----------------------------------------------
    def recover_sessions(self) -> int:
        """Readopt checkpoints already in the store (crash recovery).

        Sessions whose dataset (matched by content fingerprint) is not
        registered are marked failed rather than dropped — their
        checkpoints stay in the store for a later operator.  A
        checkpoint that cannot be read (bad bytes, a rejected config,
        malformed sections) is logged and skipped, so it never stops
        the rest of the store from being recovered.  Recovered sessions
        default to full view detail.
        """
        recovered = 0
        for session_id in self._store.ids():
            if session_id in self._sessions:
                continue
            payload = self._store.get(session_id)
            if payload is None:
                continue
            try:
                checkpoint = checkpoint_from_bytes(payload)
                config = checkpoint_config(checkpoint)
                state = checkpoint["state"]
                position = {
                    "step": int(state["step"]) + 1,
                    "major": int(state["major"]),
                    "minor": int(state["minor"]),
                    "live_count": len(state["live"]),
                }
                journal_path = checkpoint.get("journal", {}).get("path")
            except (
                CheckpointError,
                AttributeError,
                KeyError,
                TypeError,
                ValueError,
            ) as exc:
                _log.warning(
                    "stored checkpoint %s unreadable: %s", session_id, exc
                )
                continue
            name = self._fingerprints.get(
                checkpoint["dataset"].get("sha256", "")
            )
            if name is None:
                self._sessions[session_id] = ServiceSession(
                    session_id=session_id,
                    dataset=str(checkpoint["dataset"].get("name", "?")),
                    config=config,
                    include_view=True,
                    status="failed",
                    **position,
                    registry_id=None,
                    created_unix=time.time(),
                    journal_path=journal_path,
                    error="dataset not registered on this server",
                )
                self._remember_terminal(session_id)
                continue
            dataset, _ = self._datasets[name]
            registry_id = SESSIONS.register(
                dataset=dataset.name,
                n_points=dataset.size,
                dim=dataset.dim,
                resumed=True,
            )
            SESSIONS.suspend(registry_id)
            self._sessions[session_id] = ServiceSession(
                session_id=session_id,
                dataset=name,
                config=config,
                include_view=True,
                status="awaiting_decision",
                **position,
                registry_id=registry_id,
                created_unix=time.time(),
                journal_path=journal_path,
            )
            recovered += 1
        if recovered:
            _log.info("recovered %d suspended session(s) from store", recovered)
        self._refresh_active()
        return recovered

    # -- routing --------------------------------------------------------
    async def dispatch(self, request: HttpRequest) -> HttpResponse:
        """Route one request; every failure renders the error envelope.

        All failure modes are rendered *here* (rather than raised to
        the connection loop) so the request metrics and the access log
        observe every response exactly once, with the request ID
        threaded into the span, the envelope, and the log line.
        """
        _REQUESTS.inc()
        route, route_session = route_template(request.path)
        self._last_created_session = None
        error_code: str | None = None
        attrs: dict[str, Any] = {
            "method": request.method,
            "path": request.path,
            "route": route,
            "request_id": request.request_id,
        }
        if request.trace_id:
            attrs["trace_id"] = request.trace_id
        start = time.perf_counter()
        try:
            with span("service.request", **attrs):
                response = self._route(request)
        except ServiceError as exc:
            error_code = exc.code
            response = error_response(
                exc.status,
                exc.code,
                exc.message,
                request_id=request.request_id,
            )
        except ReproError as exc:
            error_code = "engine_error"
            response = error_response(
                500, "engine_error", str(exc), request_id=request.request_id
            )
        except Exception:
            _log.exception(
                "unhandled error dispatching %s %s",
                request.method,
                request.path,
            )
            error_code = "internal_error"
            response = error_response(
                500,
                "internal_error",
                "unhandled server error",
                request_id=request.request_id,
            )
        elapsed = time.perf_counter() - start
        _REQUEST_SECONDS.observe(elapsed)
        if response.status >= 400:
            _ERRORS.inc()
        self._observe_request(
            method=request.method,
            path=request.path,
            route=route,
            session_id=route_session or self._last_created_session,
            status=response.status,
            elapsed=elapsed,
            bytes_in=len(request.body),
            bytes_out=len(response.body),
            request_id=request.request_id,
            trace_id=request.trace_id,
            error_code=error_code,
        )
        return response

    def _reject(
        self, error: ServiceError, response: HttpResponse, request_id: str
    ) -> None:
        """Account a request that failed to parse like a dispatched one,
        under the route ``(unparsed)``; it never reached a handler, so
        it is logged with no method, path or latency."""
        _REQUESTS.inc()
        _ERRORS.inc()
        self._observe_request(
            method="-",
            path="-",
            route="(unparsed)",
            status=response.status,
            elapsed=0.0,
            bytes_out=len(response.body),
            request_id=request_id,
            error_code=error.code,
        )

    def _observe_request(
        self,
        *,
        method: str,
        path: str,
        route: str,
        status: int,
        elapsed: float,
        bytes_in: int = 0,
        bytes_out: int = 0,
        request_id: str = "",
        session_id: str | None = None,
        trace_id: str | None = None,
        error_code: str | None = None,
    ) -> None:
        """Write the request's access-log line (no-op when disabled).

        The line is the only per-route record of a request: route
        template, status, latency and request ID.  Kept as one
        keyword-only hook so the overhead benchmark can price it
        directly.
        """
        if self._access_log is not None:
            entry: dict[str, Any] = {
                "ts": round(time.time(), 6),
                "method": method,
                "path": path,
                "route": route,
                "status": status,
                "latency_ms": round(elapsed * 1000.0, 3),
                "bytes_in": bytes_in,
                "bytes_out": bytes_out,
                "request_id": request_id,
            }
            if session_id:
                entry["session"] = session_id
            if trace_id:
                entry["trace_id"] = trace_id
            if error_code:
                entry["error_code"] = error_code
            self._access_log.write(entry)

    def _route(self, request: HttpRequest) -> HttpResponse:
        parts = [p for p in request.path.split("/") if p]
        method = request.method
        if method == "HEAD":
            method = "GET"
        if parts == ["healthz"] and method == "GET":
            return json_response(200, self.health_payload())
        if parts == ["metrics"] and method == "GET":
            return HttpResponse(
                status=200,
                body=render_live_openmetrics().encode("utf-8"),
                content_type=OPENMETRICS_CONTENT_TYPE,
            )
        if parts == ["metrics.json"] and method == "GET":
            return json_response(200, REGISTRY.to_dict())
        if parts == ["datasets"] and method == "GET":
            return json_response(200, {"datasets": self.datasets()})
        if parts == ["sessions"]:
            if method == "POST":
                return self._create_session(request)
            if method == "GET":
                return json_response(200, self.sessions_payload())
            raise ServiceError(405, "method_not_allowed", f"{method} /sessions")
        if len(parts) == 2 and parts[0] == "sessions":
            session_id = parts[1]
            if method == "GET":
                return self._get_session(session_id)
            if method == "DELETE":
                return self._delete_session(session_id)
            raise ServiceError(
                405, "method_not_allowed", f"{method} /sessions/{{id}}"
            )
        if (
            len(parts) == 3
            and parts[0] == "sessions"
            and parts[2] == "decision"
        ):
            if method == "POST":
                return self._decide(parts[1], request)
            raise ServiceError(
                405, "method_not_allowed", "decision endpoint is POST-only"
            )
        raise ServiceError(404, "unknown_path", f"no route for {request.path}")

    # -- payload helpers ------------------------------------------------
    def health_payload(self) -> dict[str, Any]:
        by_status = {"awaiting_decision": 0, "finished": 0, "failed": 0}
        for sess in self._sessions.values():
            by_status[sess.status] = by_status.get(sess.status, 0) + 1
        return {
            "status": "ok",
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "schema_version": METRICS_SCHEMA_VERSION,
            "datasets": self.datasets(),
            "sessions": by_status,
            "registry": SESSIONS.counts(),
            "store": self._store.stats(),
        }

    def sessions_payload(self) -> dict[str, Any]:
        return {
            "sessions": [
                sess.snapshot() for sess in self._sessions.values()
            ]
        }

    # -- handlers -------------------------------------------------------
    def _create_session(self, request: HttpRequest) -> HttpResponse:
        body = request.json()
        if not isinstance(body, dict):
            raise ServiceError(400, "malformed_body", "body must be an object")
        name = body.get("dataset")
        if not isinstance(name, str):
            raise ServiceError(
                400, "malformed_body", "'dataset' must be a string"
            )
        entry = self._datasets.get(name)
        if entry is None:
            raise ServiceError(
                404,
                "unknown_dataset",
                f"dataset {name!r} is not registered "
                f"(have: {sorted(self._datasets)})",
            )
        dataset, precomputed = entry
        config = config_from_payload(body.get("config"))
        query = self._parse_query(body, dataset)
        view_mode = body.get("view", "digest")
        if view_mode not in ("digest", "full"):
            raise ServiceError(
                400, "malformed_body", "'view' must be 'digest' or 'full'"
            )
        session_id = f"sess-{uuid.uuid4().hex[:16]}"
        journal = None
        journal_path: str | None = None
        if self._journal_dir is not None:
            path = self._journal_dir / f"{session_id}.jsonl"
            journal = SessionJournal.create(
                path, provenance=body.get("provenance")
            )
            # Every record this request writes (session_start, the
            # first view, the checkpoint) joins back to it by ID.
            journal.set_context(request_id=request.request_id)
            journal_path = str(path)
        engine = SearchEngine(
            dataset,
            config,
            precomputed=precomputed,
            structural_spans=False,
            journal=journal,
        )
        with span("service.session.start", session=session_id):
            event = engine.start(query)
        sess = ServiceSession(
            session_id=session_id,
            dataset=name,
            config=config,
            include_view=view_mode == "full",
            status="awaiting_decision",
            step=0,
            major=0,
            minor=0,
            live_count=dataset.size,
            registry_id=engine.session_id,
            created_unix=time.time(),
            journal_path=journal_path,
        )
        self._sessions[session_id] = sess
        _CREATED.inc()
        self._last_created_session = session_id
        wire = self._suspend_or_finish(sess, engine, event)
        self._refresh_active()
        return json_response(201, {"session": session_id, "event": wire})

    def _get_session(self, session_id: str) -> HttpResponse:
        sess = self._session_or_404(session_id)
        payload = sess.snapshot()
        payload["event"] = sess.last_event
        payload["checkpoint_stored"] = session_id in self._store
        return json_response(200, payload)

    def _delete_session(self, session_id: str) -> HttpResponse:
        sess = self._session_or_404(session_id)
        self._store.delete(session_id)
        if sess.registry_id is not None:
            SESSIONS.forget(sess.registry_id)
        self._sessions.pop(session_id, None)
        try:
            self._terminal_order.remove(session_id)
        except ValueError:
            pass
        _DELETED.inc()
        self._refresh_active()
        return HttpResponse(status=204, body=b"")

    def _decide(self, session_id: str, request: HttpRequest) -> HttpResponse:
        sess = self._session_or_404(session_id)
        if sess.status == "finished":
            raise ServiceError(
                409,
                "already_finished",
                f"session {session_id} already produced its result",
            )
        if sess.status == "failed":
            raise ServiceError(
                410, "session_failed", sess.error or "session failed"
            )
        if session_id in self._busy:
            raise ServiceError(
                409, "busy", f"session {session_id} has a request in flight"
            )
        body = request.json()
        if not isinstance(body, dict):
            raise ServiceError(400, "malformed_body", "body must be an object")
        claimed_step = body.get("step")
        if not isinstance(claimed_step, int) or isinstance(claimed_step, bool):
            raise ServiceError(
                400, "malformed_decision", "'step' must be an integer"
            )
        if claimed_step != sess.step:
            code = (
                "already_decided" if claimed_step < sess.step else "future_step"
            )
            raise ServiceError(
                409,
                code,
                f"decision claims step {claimed_step}, session awaits "
                f"step {sess.step}",
            )
        self._busy.add(session_id)
        try:
            engine, event = self._resume(
                sess, request_id=request.request_id
            )
            try:
                _, decision = decision_from_payload(body, event.view)
                with span(
                    "service.decision", session=session_id, step=sess.step
                ):
                    outcome = engine.submit(decision)
            except BaseException as exc:
                # Re-suspend the engine so its registry entry doesn't
                # leak as live, and drop it: it may be half-way through
                # the decision, so the next request resumes cold from
                # the checkpoint bytes, which are still the last
                # suspension point.
                engine.close()
                self._close_journal(engine)
                if isinstance(exc, InteractionError):
                    raise ServiceError(
                        400, "malformed_decision", str(exc)
                    ) from exc
                raise
            sess.decisions += 1
            wire = self._suspend_or_finish(sess, engine, outcome)
            self._refresh_active()
            return json_response(200, {"session": session_id, "event": wire})
        finally:
            self._busy.discard(session_id)

    # -- session lifecycle ----------------------------------------------
    def _parse_query(self, body: dict[str, Any], dataset: Dataset) -> np.ndarray:
        query = body.get("query")
        query_index = body.get("query_index")
        if (query is None) == (query_index is None):
            raise ServiceError(
                400,
                "malformed_body",
                "provide exactly one of 'query' or 'query_index'",
            )
        if query_index is not None:
            if (
                not isinstance(query_index, int)
                or isinstance(query_index, bool)
                or not 0 <= query_index < dataset.size
            ):
                raise ServiceError(
                    400,
                    "malformed_body",
                    f"'query_index' must be an integer in [0, {dataset.size})",
                )
            return np.asarray(dataset.points[query_index], dtype=float)
        if not isinstance(query, list) or any(
            not isinstance(v, (int, float)) or isinstance(v, bool)
            for v in query
        ):
            raise ServiceError(
                400, "malformed_body", "'query' must be a list of numbers"
            )
        if len(query) != dataset.dim:
            raise ServiceError(
                400,
                "malformed_body",
                f"'query' has {len(query)} dimensions, dataset has "
                f"{dataset.dim}",
            )
        return np.asarray(query, dtype=float)

    def _session_or_404(self, session_id: str) -> ServiceSession:
        sess = self._sessions.get(session_id)
        if sess is None:
            raise ServiceError(
                404, "unknown_session", f"no session {session_id}"
            )
        return sess

    def _resume(
        self, sess: ServiceSession, *, request_id: str | None = None
    ) -> tuple[SearchEngine, ViewRequest]:
        """Wake the session's suspended engine, or rebuild it cold.

        A hot session's engine is taken out of the store and woken in
        place (:meth:`~repro.core.engine.SearchEngine.wake`): no
        checkpoint decode, no state rebuild, no view recompute.  Any
        other session (spilled, recovered, restarted, or after a failed
        request) resumes cold, and only a cold resume decodes its
        checkpoint, mapping loss or corruption to 410.
        """
        old_registry_id = sess.registry_id
        engine = self._store.take_pending(sess.session_id)
        if engine is not None:
            with span("service.session.resume", session=sess.session_id):
                event = engine.wake(journal_context={"request_id": request_id})
        else:
            engine, event = self._resume_cold(sess, request_id)
            _VIEW_RECOMPUTES.inc()
        if engine.journal is None:
            sess.journal_path = None
        if old_registry_id is not None:
            SESSIONS.forget(old_registry_id)
        sess.registry_id = engine.session_id
        _RESUMES.inc()
        return engine, event

    def _resume_cold(
        self, sess: ServiceSession, request_id: str | None
    ) -> tuple[SearchEngine, ViewRequest]:
        """Decode and validate the checkpoint bytes, then resume them."""
        payload = self._store.get(sess.session_id)
        if payload is None:
            self._fail(sess, "checkpoint_lost", "checkpoint no longer in store")
        try:
            checkpoint = checkpoint_from_bytes(payload)
        except CheckpointError as exc:
            self._fail(sess, "checkpoint_corrupt", str(exc))
        dataset, precomputed = self._datasets[sess.dataset]
        journal = None
        cursor = checkpoint.get("journal")
        if cursor is not None:
            try:
                journal = SessionJournal.resume(
                    cursor["path"], cursor["cursor"]
                )
                if request_id:
                    journal.set_context(request_id=request_id)
            except (JournalError, OSError, KeyError) as exc:
                # The journal is observability, not state: losing it
                # must not kill an otherwise-healthy session.
                _log.warning(
                    "journal resume failed for %s (%s); continuing "
                    "without journal",
                    sess.session_id,
                    exc,
                )
        try:
            with span("service.session.resume", session=sess.session_id):
                return resume_engine(
                    checkpoint,
                    dataset,
                    precomputed=precomputed,
                    structural_spans=False,
                    journal=journal,
                )
        except CheckpointError as exc:
            self._fail(sess, "checkpoint_corrupt", str(exc))

    def _suspend_or_finish(
        self,
        sess: ServiceSession,
        engine: SearchEngine,
        event: ViewRequest | SearchResult,
    ) -> dict[str, Any]:
        """Checkpoint-and-park or finalize; returns the wire event."""
        if isinstance(event, ViewRequest):
            sess.step = event.step
            sess.major = event.major_index
            sess.minor = event.minor_index
            sess.live_count = event.view.n_points
            wire = view_event(
                sess.session_id,
                event,
                engine.state,
                include_view=sess.include_view,
            )
            payload = checkpoint_to_bytes(engine)
            engine.close()  # marks the registry entry suspended
            self._close_journal(engine)
            # The bytes stay the source of truth; the engine beside them
            # only spares the next decision the decode and the resume.
            self._store.put(sess.session_id, payload, pending=engine)
            sess.last_event = wire
            return wire
        result = event
        wire = result_event(sess.session_id, result)
        sess.status = "finished"
        sess.live_count = int(result.neighbor_indices.size)
        sess.last_event = wire
        self._store.delete(sess.session_id)
        self._close_journal(engine)
        self._remember_terminal(sess.session_id)
        _FINISHED.inc()
        return wire

    def _fail(self, sess: ServiceSession, code: str, message: str) -> None:
        """Mark a session failed and raise the 410 that reports it."""
        sess.status = "failed"
        sess.error = message
        if sess.registry_id is not None:
            SESSIONS.fail(sess.registry_id, reason=code)
        self._store.delete(sess.session_id)
        self._remember_terminal(sess.session_id)
        _FAILED.inc()
        self._refresh_active()
        raise ServiceError(410, code, message)

    def _close_journal(self, engine: SearchEngine) -> None:
        if engine.journal is not None:
            engine.journal.close()

    def _remember_terminal(self, session_id: str) -> None:
        self._terminal_order.append(session_id)
        while len(self._terminal_order) > self._max_terminal:
            evicted = self._terminal_order.pop(0)
            self._sessions.pop(evicted, None)

    def _refresh_active(self) -> None:
        _ACTIVE.set(
            sum(
                1
                for sess in self._sessions.values()
                if sess.status == "awaiting_decision"
            )
        )

    # -- serving --------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        try:
            await serve_connection(
                reader, writer, self.dispatch, rejected=self._reject
            )
        finally:
            self._conn_writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)

    async def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        ready: "asyncio.Future[int] | None" = None,
        shutdown: asyncio.Event | None = None,
    ) -> None:
        """Serve until *shutdown* is set (forever when ``None``)."""
        server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        bound = server.sockets[0].getsockname()[1]
        _log.info("session service listening on http://%s:%d", host, bound)
        if ready is not None and not ready.done():
            ready.set_result(bound)
        async with server:
            if shutdown is None:
                await server.serve_forever()
            else:
                await shutdown.wait()
                # Close idle keep-alive connections so their handler
                # tasks exit on EOF instead of being cancelled by the
                # loop teardown (which logs spurious tracebacks).
                server.close()
                for writer in list(self._conn_writers):
                    writer.close()
                if self._conn_tasks:
                    await asyncio.wait(list(self._conn_tasks), timeout=5)


class ServiceRuntime:
    """Run a :class:`SessionService` on a background thread's event loop.

    Tests and the load benchmark need a real server on a real port
    while the driving code stays synchronous; this wrapper owns the
    thread, the loop, and a clean shutdown.
    """

    def __init__(
        self,
        service: SessionService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._service = service
        self._host = host
        self._requested_port = port
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown: asyncio.Event | None = None
        self._port_box: list[int] = []
        self._startup_error: list[BaseException] = []
        self._ready = threading.Event()

    @property
    def service(self) -> SessionService:
        return self._service

    @property
    def port(self) -> int:
        if not self._port_box:
            raise RuntimeError("runtime not started")
        return self._port_box[0]

    @property
    def base_url(self) -> str:
        return f"http://{self._host}:{self.port}"

    def start(self) -> "ServiceRuntime":
        def _main() -> None:
            async def _serve() -> None:
                loop = asyncio.get_running_loop()
                self._loop = loop
                self._shutdown = asyncio.Event()
                ready: asyncio.Future[int] = loop.create_future()

                async def _await_ready() -> None:
                    self._port_box.append(await ready)
                    self._ready.set()

                waiter = asyncio.ensure_future(_await_ready())
                try:
                    await self._service.serve(
                        self._host,
                        self._requested_port,
                        ready=ready,
                        shutdown=self._shutdown,
                    )
                finally:
                    waiter.cancel()

            try:
                asyncio.run(_serve())
            except BaseException as exc:  # noqa: BLE001 - reported to starter
                self._startup_error.append(exc)
                self._ready.set()

        thread = threading.Thread(
            target=_main, name="repro-session-service", daemon=True
        )
        thread.start()
        self._thread = thread
        self._ready.wait(timeout=30)
        if self._startup_error:
            raise RuntimeError(
                f"service failed to start: {self._startup_error[0]!r}"
            )
        if not self._port_box:
            raise RuntimeError("service did not report a bound port in time")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._shutdown is not None:
            loop, shutdown = self._loop, self._shutdown
            try:
                loop.call_soon_threadsafe(shutdown.set)
            except RuntimeError:  # loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def __enter__(self) -> "ServiceRuntime":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
