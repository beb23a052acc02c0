"""Wire codecs between engine objects and the service's JSON payloads.

Both sides of the HTTP boundary use this module: the server renders
``ViewRequest`` / ``SearchResult`` events into JSON-compatible
dictionaries, and the client reconstructs a full
:class:`~repro.interaction.base.ProjectionView` from the wire event so
ordinary :class:`~repro.interaction.base.UserAgent` implementations
can make decisions remotely.

Two invariants make remote interaction byte-identical to in-process
runs:

* Every view event embeds the digest-heavy
  :func:`~repro.obs.journal.view_payload` snapshot — the *same* fields
  the session journal records — so HTTP responses can be diffed
  directly against a journal (protocol-conformance suite).
* The optional ``view`` detail carries the projected points, query
  coordinates, basis, and live indices as ``repr``-round-tripped
  doubles; :func:`view_from_event` rebuilds the density profile with
  :meth:`~repro.density.profiles.VisualProfile.build`, which is
  deterministic, so the client-side profile equals the server-side one
  bit for bit.

Decisions travel as the sorted *original dataset indices* the user
selected (not the mask) — exactly the representation the journal
stores and :func:`~repro.obs.replay.replay_journal` already proves
lossless.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.config import SearchConfig
from repro.core.engine import SearchResult, ViewRequest
from repro.core.serialization import result_to_dict
from repro.density.profiles import VisualProfile
from repro.exceptions import ConfigurationError, ServiceError
from repro.geometry.subspace import Subspace
from repro.interaction.base import ProjectionView, UserDecision
from repro.obs.journal import view_payload

__all__ = [
    "view_event",
    "result_event",
    "decision_from_payload",
    "decision_to_payload",
    "config_from_payload",
    "view_from_event",
]


def view_event(
    session_id: str,
    event: ViewRequest,
    state: Any,
    *,
    include_view: bool,
) -> dict[str, Any]:
    """Render a pending ``ViewRequest`` as the wire event.

    ``include_view`` attaches the full geometric detail a remote user
    agent needs to actually decide; digest-only events (the default)
    serve introspection and journal-conformance checks cheaply.
    """
    payload: dict[str, Any] = {
        "type": "view_request",
        "session": session_id,
        **view_payload(event, state),
    }
    if include_view:
        view = event.view
        payload["view"] = {
            "projected_points": view.projected_points.tolist(),
            "query_2d": view.query_2d.tolist(),
            "basis": view.subspace.basis.tolist(),
            "live_indices": np.asarray(view.live_indices).tolist(),
            "total_points": int(view.total_points),
        }
    return payload


def result_event(session_id: str, result: SearchResult) -> dict[str, Any]:
    """Render the terminal ``SearchResult`` as the wire event.

    The ``result`` section is the full lossless archive
    (:func:`~repro.core.serialization.result_to_dict` with every
    probability and basis included), so a remote caller holds exactly
    what an in-process run would have returned — the byte-identity the
    conformance suite asserts.
    """
    return {
        "type": "search_result",
        "session": session_id,
        "reason": result.reason.name,
        "support": int(result.support),
        "neighbor_indices": [int(i) for i in result.neighbor_indices],
        "result": result_to_dict(
            result, top_k_probabilities=None, include_bases=True
        ),
    }


def config_from_payload(payload: Any) -> SearchConfig:
    """Build a :class:`SearchConfig`, mapping bad input to HTTP 400."""
    if payload is None:
        return SearchConfig()
    try:
        return SearchConfig.from_dict(payload)
    except ConfigurationError as exc:
        raise ServiceError(400, "malformed_config", str(exc)) from exc


def decision_from_payload(
    payload: Any, view: ProjectionView
) -> tuple[int, UserDecision]:
    """Parse and strictly validate a wire decision against its view.

    Returns ``(step, decision)``; every malformation raises a 400-level
    :class:`ServiceError` naming the offending field.  Selected indices
    must be a subset of the view's live indices — silently dropping
    unknown indices would let a confused client corrupt a session
    without noticing.
    """
    if not isinstance(payload, dict):
        raise ServiceError(400, "malformed_decision", "body must be an object")
    step = payload.get("step")
    if not isinstance(step, int) or isinstance(step, bool):
        raise ServiceError(
            400, "malformed_decision", "'step' must be an integer"
        )
    accepted = payload.get("accepted")
    if not isinstance(accepted, bool):
        raise ServiceError(
            400, "malformed_decision", "'accepted' must be a boolean"
        )
    raw_selected = payload.get("selected_indices", [])
    if not isinstance(raw_selected, list) or any(
        not isinstance(i, int) or isinstance(i, bool) for i in raw_selected
    ):
        raise ServiceError(
            400,
            "malformed_decision",
            "'selected_indices' must be a list of integers",
        )
    threshold = payload.get("threshold")
    if threshold is not None and not isinstance(threshold, (int, float)):
        raise ServiceError(
            400, "malformed_decision", "'threshold' must be a number or null"
        )
    weight = payload.get("weight", 1.0)
    if not isinstance(weight, (int, float)) or isinstance(weight, bool):
        raise ServiceError(
            400, "malformed_decision", "'weight' must be a number"
        )
    if weight <= 0:
        raise ServiceError(
            400, "malformed_decision", "'weight' must be positive"
        )
    note = payload.get("note", "")
    if not isinstance(note, str):
        raise ServiceError(400, "malformed_decision", "'note' must be a string")

    live = np.asarray(view.live_indices)
    selected = np.asarray(sorted(set(raw_selected)), dtype=int)
    mask = np.isin(live, selected)
    if int(mask.sum()) != selected.size:
        raise ServiceError(
            400,
            "malformed_decision",
            "'selected_indices' contains indices outside the live set",
        )
    decision = UserDecision(
        accepted=accepted,
        selected_mask=mask,
        threshold=None if threshold is None else float(threshold),
        weight=float(weight),
        note=note,
    )
    return step, decision


def decision_to_payload(
    decision: UserDecision, view: ProjectionView, *, step: int
) -> dict[str, Any]:
    """Render a local decision as the wire payload (client side)."""
    live = np.asarray(view.live_indices)
    selected = sorted(int(i) for i in live[decision.selected_mask])
    return {
        "step": int(step),
        "accepted": bool(decision.accepted),
        "selected_indices": selected,
        "threshold": (
            None if decision.threshold is None else float(decision.threshold)
        ),
        "weight": float(decision.weight),
        "note": decision.note,
    }


def view_from_event(
    event: dict[str, Any], config: SearchConfig
) -> ProjectionView:
    """Rebuild a full :class:`ProjectionView` from a wire view event.

    Requires the event to carry the ``view`` detail (session created
    with ``"view": "full"``).  The density profile is recomputed
    locally from the shipped coordinates with the session's grid
    resolution and bandwidth scale; since the floats round-trip exactly
    and the KDE is deterministic, the rebuilt profile (and hence any
    threshold sweep over it) matches the server's bit for bit.
    """
    detail = event.get("view")
    if detail is None:
        raise ServiceError(
            400,
            "view_detail_missing",
            "event has no 'view' detail (create the session with "
            '"view": "full")',
        )
    projected = np.asarray(detail["projected_points"], dtype=float)
    query_2d = np.asarray(detail["query_2d"], dtype=float)
    profile = VisualProfile.build(
        projected,
        query_2d,
        resolution=config.grid_resolution,
        bandwidth_scale=config.bandwidth_scale,
        kde_mode=config.kde_mode,
    )
    return ProjectionView(
        profile=profile,
        projected_points=projected,
        query_2d=query_2d,
        subspace=Subspace.from_orthonormal(
            np.asarray(detail["basis"], dtype=float)
        ),
        live_indices=np.asarray(detail["live_indices"], dtype=int),
        major_index=int(event["major"]),
        minor_index=int(event["minor"]),
        total_points=int(detail["total_points"]),
    )
