"""Which public calls of ``repro`` the traced run wraps, and under what name.

Span names are the layer names the per-layer metrics use.  The engine
layers are wrapped in every process that runs the engine (the runner
for in-process workloads, the server and the client for service
workloads); the service layers only in the server.
"""

from __future__ import annotations

from typing import Any

from perftrace import SpanRecorder, reset_active, session_traced, set_active


def patch_engine_layers(recorder: SpanRecorder) -> None:
    """Projection search, density profiles, exact statistics, merge trees."""
    import repro.core.engine as engine_mod
    from repro.density.merge_tree import MergeTree
    from repro.density.profiles import VisualProfile

    # The engine binds the function at import, so patch its module.
    recorder.patch(engine_mod, "find_query_centered_projection", "projections.find")
    recorder.patch(VisualProfile, "build", "density.profile_build")
    recorder.patch(VisualProfile, "exact_statistics", "density.exact_statistics")
    recorder.patch(MergeTree, "from_density", "density.merge_tree")


def patch_server_layers(recorder: SpanRecorder) -> None:
    """Everything a request passes through inside ``repro serve``."""
    import repro.core.engine as engine_mod
    import repro.core.serialization as serialization
    import repro.obs.replay as replay
    import repro.service.app as app
    from repro.service.store import SpilloverSessionStore

    patch_engine_layers(recorder)
    recorder.patch(engine_mod.SearchEngine, "submit", "engine.submit")
    # app.py imports these names directly; resume_engine and the
    # checkpoint encoder reach the fingerprint through serialization.
    recorder.patch(app, "resume_engine", "serialization.resume")
    recorder.patch(app, "dataset_fingerprint", "data.fingerprint")
    recorder.patch(serialization, "dataset_fingerprint", "data.fingerprint")
    recorder.patch(app, "checkpoint_to_bytes", "checkpoint.encode", result_bytes=True)
    recorder.patch(app, "checkpoint_from_bytes", "checkpoint.decode")
    recorder.patch(app, "view_event", "service.wire_encode")
    recorder.patch(app, "json_response", "service.wire_encode")
    recorder.patch(SpilloverSessionStore, "get", "store.get")
    recorder.patch(SpilloverSessionStore, "put", "store.put")
    # `repro serve` imports this at call time, so the patch is seen.
    recorder.patch(replay, "dataset_from_provenance", "data.load")
    _patch_dispatch(recorder, app.SessionService)


def _patch_dispatch(recorder: SpanRecorder, service_cls: Any) -> None:
    """Root span per request, keyed by ``X-Request-Id``.

    Decision requests are recorded for the sessions
    :func:`perftrace.session_traced` selects, so the untraced half of a
    traced run prices the wrappers; session creation is always recorded.
    """
    raw = service_cls.dispatch

    async def dispatch(self: Any, request: Any) -> Any:
        parts = [p for p in request.path.split("/") if p]
        session = None
        if request.method == "POST" and parts == ["sessions"]:
            route, traced = "create", True
        elif len(parts) == 3 and parts[0] == "sessions" and parts[2] == "decision":
            route, session = "decision", parts[1]
            traced = session_traced(session)
        else:
            route, traced = "other", False
        token = set_active(traced)
        try:
            with recorder.span(
                "service.dispatch", key=request.request_id, route=route, session=session
            ) as record:
                response = await raw(self, request)
                if record is not None:
                    record["attrs"]["status"] = response.status
                    record["attrs"]["bytes"] = len(response.body)
                return response
        finally:
            reset_active(token)

    dispatch.__wrapped__ = raw  # type: ignore[attr-defined]
    service_cls.dispatch = dispatch
