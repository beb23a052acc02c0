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
* The optional ``view`` detail carries what the server computed, not
  the inputs to compute it again: the projected points, live indices,
  the ``p x p`` density grid and its axes travel as little-endian
  binary arrays (:func:`encode_array`, base64 in JSON), and the
  estimator bandwidth, query coordinates and basis as
  ``repr``-round-tripped doubles.  :func:`view_from_event` decodes
  them, checks the live set, basis and grid against the event's
  digests, and adopts the server's grid and statistics, so the
  client's view equals the server's byte for byte on any numeric
  platform, with no kernel density evaluation on the client.

Decisions travel as the sorted *original dataset indices* the user
selected (not the mask) — exactly the representation the journal
stores and :func:`~repro.obs.replay.replay_journal` already proves
lossless.
"""

from __future__ import annotations

import base64
import math
from typing import Any

import numpy as np

from repro.core.config import SearchConfig
from repro.core.engine import SearchResult, ViewRequest
from repro.core.serialization import result_to_dict
from repro.density.grid import DensityGrid
from repro.density.profiles import ProfileStatistics, VisualProfile
from repro.exceptions import ConfigurationError, ReproError, ServiceError
from repro.geometry.subspace import Subspace
from repro.interaction.base import ProjectionView, UserDecision
from repro.obs.journal import array_digest, view_payload

__all__ = [
    "view_event",
    "result_event",
    "decision_from_payload",
    "decision_to_payload",
    "config_from_payload",
    "view_from_event",
    "encode_array",
    "decode_array",
]

def encode_array(array: Any, dtype: str) -> dict[str, Any]:
    """One array as ``{"dtype", "shape", "data"}`` with base64 bytes.

    *dtype* is ``"<f8"`` or ``"<i8"``: the values are written
    little-endian whatever the host's byte order, and losslessly, since
    the engine's coordinates and indices already have these types.
    """
    arr = np.ascontiguousarray(array, dtype=np.dtype(dtype))
    return {
        "dtype": dtype,
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def decode_array(
    payload: Any, name: str, dtype: str, shape: tuple[int | None, ...]
) -> np.ndarray:
    """Invert :func:`encode_array`, checking every part of *payload*.

    *shape* is the expected shape, with ``None`` for an axis of any
    length.  Any mismatch, undecodable base64 or wrong byte count
    raises a ``view_detail_corrupt`` :class:`ServiceError` naming the
    array.  The result is a read-only array in the host's byte order.
    """

    def corrupt(why: str) -> ServiceError:
        return _corrupt(f"view detail {name!r}: {why}")

    if not isinstance(payload, dict) or set(payload) != {"dtype", "shape", "data"}:
        raise corrupt("expected an object with 'dtype', 'shape' and 'data'")
    if payload["dtype"] != dtype:
        raise corrupt(f"dtype must be {dtype!r}, got {payload['dtype']!r}")
    got = payload["shape"]
    if not (
        isinstance(got, list)
        and len(got) == len(shape)
        and all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 0
            and want in (None, n)
            for n, want in zip(got, shape)
        )
    ):
        want = ["*" if n is None else n for n in shape]
        raise corrupt(f"shape must match {want}, got {got!r}")
    data = payload["data"]
    if not isinstance(data, str):
        raise corrupt("'data' must be a base64 string")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise corrupt(f"bad base64 ({exc})") from exc
    wire = np.dtype(dtype)
    if len(raw) != wire.itemsize * math.prod(got):
        raise corrupt(f"{len(raw)} bytes do not fill shape {got}")
    native = wire.newbyteorder("=")
    return np.frombuffer(raw, dtype=wire).reshape(got).astype(native, copy=False)


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
        grid = view.profile.grid
        payload["view"] = {
            "projected_points": encode_array(view.projected_points, "<f8"),
            "live_indices": encode_array(view.live_indices, "<i8"),
            "density": encode_array(grid.density, "<f8"),
            "grid_x": encode_array(grid.grid_x, "<f8"),
            "grid_y": encode_array(grid.grid_y, "<f8"),
            "bandwidth": grid.estimator.bandwidth.tolist(),
            "query_2d": view.query_2d.tolist(),
            "basis": view.subspace.basis.tolist(),
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
    """Decode the full :class:`ProjectionView` a wire view event carries.

    Requires the event to carry the ``view`` detail (session created
    with ``"view": "full"``).  Nothing is recomputed: the profile
    adopts the shipped density grid
    (:meth:`~repro.density.grid.DensityGrid.from_evaluated`) and the
    event's statistics, after the live indices, basis and density are
    checked against the event's ``live_digest``, ``basis_digest`` and
    ``density_digest``.  The grid must have *config*'s resolution, and
    its mode is *config*'s ``kde_mode``.

    Raises
    ------
    ServiceError
        ``view_detail_missing`` when the event has no detail, and
        ``view_detail_corrupt`` when a field is missing, malformed or
        fails its digest.
    """
    detail = event.get("view")
    if detail is None:
        raise ServiceError(
            400,
            "view_detail_missing",
            "event has no 'view' detail (create the session with "
            '"view": "full")',
        )
    if not isinstance(detail, dict):
        raise _corrupt("view detail must be an object")
    try:
        return _decode_view(event, detail, config)
    except ServiceError:
        raise
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        raise _corrupt(
            f"view event is malformed: {type(exc).__name__}: {exc}"
        ) from exc


def _corrupt(message: str) -> ServiceError:
    """The error of a view event that cannot be decoded as sent.

    A 502: the server's answer, not the client's request, is at fault.
    """
    return ServiceError(502, "view_detail_corrupt", message)


def _decode_view(
    event: dict[str, Any], detail: dict[str, Any], config: SearchConfig
) -> ProjectionView:
    p = config.grid_resolution
    projected = decode_array(
        detail["projected_points"], "projected_points", "<f8", (None, 2)
    )
    n = projected.shape[0]
    live = decode_array(detail["live_indices"], "live_indices", "<i8", (n,))
    density = decode_array(detail["density"], "density", "<f8", (p, p))
    grid_x = decode_array(detail["grid_x"], "grid_x", "<f8", (p,))
    grid_y = decode_array(detail["grid_y"], "grid_y", "<f8", (p,))
    bandwidth = _float_vector(detail["bandwidth"], "bandwidth")
    query_2d = _float_vector(detail["query_2d"], "query_2d")
    basis = np.asarray(detail["basis"], dtype=float)
    for name, array, digest in (
        ("live_indices", live, event["live_digest"]),
        ("basis", basis, event["basis_digest"]),
        ("density", density, event["density_digest"]),
    ):
        if array_digest(array) != digest:
            raise _corrupt(
                f"view detail {name!r} does not match the event's digest"
            )
    stats = event["stats"]
    if not isinstance(stats, dict):
        raise _corrupt("event 'stats' must be an object")
    grid = DensityGrid.from_evaluated(
        projected,
        grid_x,
        grid_y,
        density,
        bandwidth=bandwidth,
        mode=config.kde_mode,
    )
    profile = VisualProfile(
        grid=grid,
        query_2d=query_2d,
        # A missing or unknown key is a TypeError, reported as corrupt.
        statistics=ProfileStatistics(
            **{name: float(value) for name, value in stats.items()}
        ),
    )
    return ProjectionView(
        profile=profile,
        projected_points=projected,
        query_2d=query_2d,
        subspace=Subspace.from_orthonormal(basis),
        live_indices=live,
        major_index=int(event["major"]),
        minor_index=int(event["minor"]),
        total_points=int(detail["total_points"]),
    )


def _float_vector(values: Any, name: str) -> np.ndarray:
    """A JSON list of two numbers, as the wire's 2-vectors are."""
    if (
        not isinstance(values, list)
        or len(values) != 2
        or any(
            not isinstance(v, (int, float)) or isinstance(v, bool)
            for v in values
        )
    ):
        raise _corrupt(f"view detail {name!r} must be a list of two numbers")
    return np.asarray(values, dtype=float)
