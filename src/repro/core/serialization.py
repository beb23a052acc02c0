"""JSON serialization of search results, sessions, and checkpoints.

An interactive session is an experiment artifact: which projections
were shown, what the user decided, how the meaningfulness distribution
evolved.  This module renders a :class:`~repro.core.search.SearchResult`
(or a bare session) as plain JSON-compatible dictionaries so runs can
be archived, diffed, and analyzed outside Python.

Subspace bases are stored as nested lists; probability vectors can be
truncated to the top ``k`` entries to keep archives small.

Since the sans-io refactor this module also owns **engine
checkpoints**: a suspended :class:`~repro.core.engine.SearchEngine`
(phase ``AWAITING_DECISION``) can be serialized losslessly — including
the ``np.random.Generator`` bit-state captured just before the pending
view was computed — and resumed later on an equal dataset, producing a
run byte-identical to the uninterrupted one.  JSON stores Python floats
via ``repr``, which round-trips IEEE-754 doubles exactly, and holds
arbitrary-precision integers, so the 128-bit PCG64 state needs no
special casing.  See ``docs/ENGINE.md`` for the format.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core.config import SearchConfig
from repro.core.counting import PreferenceCounter
from repro.core.engine import (
    EnginePhase,
    EngineState,
    SearchEngine,
    TerminationReason,
    ViewRequest,
)
from repro.core.meaningfulness import MeaningfulnessAccumulator
from repro.core.search import SearchResult
from repro.core.session import (
    MajorIterationRecord,
    MinorIterationRecord,
    SearchSession,
)
from repro.core.termination import StabilityTermination
from repro.data.dataset import Dataset
from repro.density.profiles import ProfileStatistics
from repro.exceptions import CheckpointError, ConfigurationError, EngineStateError
from repro.geometry.subspace import Subspace
from repro.obs.journal import jsonify
from repro.obs.metrics import counter
from repro.obs.trace import span

#: Discriminator stored in every checkpoint payload.
CHECKPOINT_FORMAT = "repro.engine-checkpoint"
#: Bumped on incompatible layout changes; loaders reject other versions.
CHECKPOINT_VERSION = 1

_CHECKPOINTS = counter("engine.checkpoints")
_FINGERPRINT_HASHES = counter("data.fingerprint.hashes")
#: Instance attribute holding a read-only dataset's memoised digest.
_DIGEST_MEMO = "_fingerprint_sha256"


def session_to_dict(
    session: SearchSession, *, include_bases: bool = False
) -> dict[str, Any]:
    """Render a session as a JSON-compatible dictionary.

    Parameters
    ----------
    session:
        The session to serialize.
    include_bases:
        Store each view's 2-D subspace basis (bulky for long sessions).
    """
    minors = []
    for record in session.minor_records:
        stats = record.profile_statistics
        entry: dict[str, Any] = {
            "major": record.major_index,
            "minor": record.minor_index,
            "accepted": record.accepted,
            "threshold": record.threshold,
            "selected_count": record.selected_count,
            "live_count": record.live_count,
            "note": record.note,
            "refinement_dims": list(record.refinement_dims),
            "profile": {
                "query_density": stats.query_density,
                "peak_density": stats.peak_density,
                "median_density": stats.median_density,
                "query_percentile": stats.query_percentile,
                "peak_to_median": stats.peak_to_median,
                "local_contrast": stats.local_contrast,
            },
        }
        if include_bases:
            entry["basis"] = record.subspace.basis.tolist()
        minors.append(entry)
    majors = [
        {
            "index": record.index,
            "live_before": record.live_count_before,
            "live_after": record.live_count_after,
            "pick_counts": list(record.pick_counts),
            "expected": record.expected,
            "variance": record.variance,
            "accepted_views": record.accepted_views,
            "overlap": record.overlap,
        }
        for record in session.major_records
    ]
    return {
        "total_views": session.total_views,
        "accepted_views": session.accepted_views,
        "minor_iterations": minors,
        "major_iterations": majors,
    }


def result_to_dict(
    result: SearchResult,
    *,
    top_k_probabilities: int | None = 100,
    include_bases: bool = False,
) -> dict[str, Any]:
    """Render a search result (and its session) as a dictionary.

    Parameters
    ----------
    result:
        The finished search result.
    top_k_probabilities:
        Store only the ``k`` highest-probability points (index, value)
        instead of the full vector; ``None`` stores everything.
    include_bases:
        Forwarded to :func:`session_to_dict`.
    """
    probs = result.probabilities
    if top_k_probabilities is None:
        prob_payload: Any = probs.tolist()
    else:
        order = np.argsort(-probs, kind="stable")[:top_k_probabilities]
        prob_payload = [
            {"index": int(i), "probability": float(probs[i])} for i in order
        ]
    return {
        "support": result.support,
        "reason": result.reason.value,
        "neighbor_indices": result.neighbor_indices.tolist(),
        "probabilities": prob_payload,
        "session": session_to_dict(result.session, include_bases=include_bases),
    }


def save_result(
    result: SearchResult,
    path: str | Path,
    *,
    top_k_probabilities: int | None = 100,
    include_bases: bool = False,
) -> Path:
    """Write a search result as pretty-printed JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = result_to_dict(
        result,
        top_k_probabilities=top_k_probabilities,
        include_bases=include_bases,
    )
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def load_result_dict(path: str | Path) -> dict[str, Any]:
    """Read back a result archive as a plain dictionary."""
    return json.loads(Path(path).read_text())


# ----------------------------------------------------------------------
# Engine checkpoints
# ----------------------------------------------------------------------
def dataset_fingerprint(dataset: Dataset) -> dict[str, Any]:
    """Identity of a dataset for checkpoint validation.

    The SHA-256 digest of the point bytes makes "same dataset"
    checkable without archiving the points themselves.  Points are
    canonicalized to contiguous float64 before hashing, so the
    fingerprint is stable across storage dtypes: a float32 memory-map
    of the same values (see :func:`repro.data.loaders.load_npy_dataset`)
    fingerprints identically to its float64 in-RAM twin.

    The digest is memoised on the dataset, but only used while its
    points array is not writeable (a read-only view or memory-map): a
    dataset whose points can change in place is hashed on every call.
    The memo trusts that nobody writes to a read-only array through a
    writeable alias.
    """
    points = dataset.points
    read_only = not points.flags.writeable
    digest = dataset.__dict__.get(_DIGEST_MEMO) if read_only else None
    if digest is None:
        pts = np.ascontiguousarray(points, dtype=np.float64)
        digest = hashlib.sha256(pts.tobytes()).hexdigest()
        _FINGERPRINT_HASHES.inc()
        if read_only:
            # Dataset is frozen; the memo is not a field, so it never
            # takes part in equality or dataclasses.replace().
            object.__setattr__(dataset, _DIGEST_MEMO, digest)
    return {
        "name": dataset.name,
        "size": int(dataset.size),
        "dim": int(dataset.dim),
        "sha256": digest,
    }


def _minor_record_to_dict(record: MinorIterationRecord) -> dict[str, Any]:
    """Full-fidelity codec of one view's record (checkpoints drop nothing)."""
    stats = record.profile_statistics
    return {
        "major": record.major_index,
        "minor": record.minor_index,
        "basis": record.subspace.basis.tolist(),
        "profile": {
            "query_density": stats.query_density,
            "peak_density": stats.peak_density,
            "median_density": stats.median_density,
            "mean_density": stats.mean_density,
            "query_percentile": stats.query_percentile,
            "peak_to_median": stats.peak_to_median,
            "mean_point_density": stats.mean_point_density,
        },
        "accepted": record.accepted,
        "threshold": record.threshold,
        "selected_count": record.selected_count,
        "live_count": record.live_count,
        "note": record.note,
        "refinement_dims": list(record.refinement_dims),
        "selected_indices": record.selected_indices.tolist(),
    }


def _session_head(session: SearchSession) -> dict[str, Any]:
    """The session codec without its two growing lists (left empty)."""
    majors = [
        {
            "index": record.index,
            "live_before": record.live_count_before,
            "live_after": record.live_count_after,
            "pick_counts": list(record.pick_counts),
            "expected": record.expected,
            "variance": record.variance,
            "accepted_views": record.accepted_views,
            "overlap": record.overlap,
        }
        for record in session.major_records
    ]
    return {
        "minor_records": [],
        "major_records": majors,
        "probability_history": [],
    }


def _session_to_lossless_dict(session: SearchSession) -> dict[str, Any]:
    """Full-fidelity session codec (checkpoints must not drop anything)."""
    payload = _session_head(session)
    payload["minor_records"] = [
        _minor_record_to_dict(record) for record in session.minor_records
    ]
    payload["probability_history"] = [
        p.tolist() for p in session.probability_history
    ]
    return payload


def _session_from_lossless_dict(payload: dict[str, Any]) -> SearchSession:
    """Inverse of :func:`_session_to_lossless_dict`."""
    session = SearchSession()
    for entry in payload["minor_records"]:
        session.minor_records.append(
            MinorIterationRecord(
                major_index=int(entry["major"]),
                minor_index=int(entry["minor"]),
                subspace=Subspace.from_orthonormal(
                    np.asarray(entry["basis"], dtype=float)
                ),
                profile_statistics=ProfileStatistics(
                    query_density=float(entry["profile"]["query_density"]),
                    peak_density=float(entry["profile"]["peak_density"]),
                    median_density=float(entry["profile"]["median_density"]),
                    mean_density=float(entry["profile"]["mean_density"]),
                    query_percentile=float(entry["profile"]["query_percentile"]),
                    peak_to_median=float(entry["profile"]["peak_to_median"]),
                    mean_point_density=float(
                        entry["profile"]["mean_point_density"]
                    ),
                ),
                accepted=bool(entry["accepted"]),
                threshold=(
                    None
                    if entry["threshold"] is None
                    else float(entry["threshold"])
                ),
                selected_count=int(entry["selected_count"]),
                live_count=int(entry["live_count"]),
                note=str(entry["note"]),
                refinement_dims=tuple(int(d) for d in entry["refinement_dims"]),
                selected_indices=np.asarray(
                    entry["selected_indices"], dtype=int
                ),
            )
        )
    for entry in payload["major_records"]:
        session.major_records.append(
            MajorIterationRecord(
                index=int(entry["index"]),
                live_count_before=int(entry["live_before"]),
                live_count_after=int(entry["live_after"]),
                pick_counts=tuple(int(c) for c in entry["pick_counts"]),
                expected=float(entry["expected"]),
                variance=float(entry["variance"]),
                accepted_views=int(entry["accepted_views"]),
                overlap=(
                    None if entry["overlap"] is None else float(entry["overlap"])
                ),
            )
        )
    session.probability_history = [
        np.asarray(snapshot, dtype=float)
        for snapshot in payload["probability_history"]
    ]
    return session


def checkpoint_to_dict(engine: SearchEngine) -> dict[str, Any]:
    """Serialize a suspended engine to a JSON-compatible dictionary.

    The engine must be in phase ``AWAITING_DECISION`` — the only
    suspension point of the state machine, reached before every user
    decision, so a run can be checkpointed at *any* minor-iteration
    boundary.  The snapshot captures the boundary *before* the pending
    view was computed (``rng_state_at_view``), so resuming recomputes
    the identical view and continues the run byte-for-byte.

    Raises
    ------
    repro.exceptions.EngineStateError
        If the engine is not awaiting a decision.
    """
    return _checkpoint_payload(engine, _session_to_lossless_dict)


def _checkpoint_payload(
    engine: SearchEngine,
    session_codec: Callable[[SearchSession], dict[str, Any]],
) -> dict[str, Any]:
    """The checkpoint dictionary with the session encoded by *session_codec*.

    Writes the journal's ``checkpoint`` record, the ``engine.checkpoint``
    span and the ``engine.checkpoints`` count once per call.
    """
    if engine.phase != EnginePhase.AWAITING_DECISION:
        raise EngineStateError(
            "only an engine awaiting a decision can be checkpointed "
            f"(phase: {engine.phase.value})"
        )
    state = engine.state
    with span(
        "engine.checkpoint",
        major=state.major,
        minor=state.minor,
        step=state.step,
    ):
        payload = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "config": engine.config.to_dict(),
            "dataset": dataset_fingerprint(engine.dataset),
            "state": {
                "query": state.query.tolist(),
                "live": state.live.tolist(),
                "major": state.major,
                "minor": state.minor,
                # The pending view is recomputed on resume, so the step
                # counter rolls back to the pre-view value.
                "step": state.step - 1,
                "reason": state.reason.name,
                "current_basis": state.current.basis.tolist(),
                "rng_state": jsonify(state.rng_state_at_view),
                "preferences": state.preferences.state_dict(),
                "accumulator": state.accumulator.state_dict(),
                "termination": state.termination.state_dict(),
                "session": session_codec(state.session),
            },
        }
        journal = engine.journal
        if journal is not None:
            # Record the suspension in the journal *first*, then pin
            # the post-record append cursor in the checkpoint: resuming
            # verifies the file still ends exactly there and appends —
            # a resumed session extends its history, never rewrites it.
            journal.record_checkpoint(state)
            payload["journal"] = {
                "path": str(journal.path),
                "cursor": journal.cursor(),
            }
        _CHECKPOINTS.inc()
        return payload


_canonical_json = functools.partial(
    json.dumps, sort_keys=True, separators=(",", ":")
)

_MINOR_OPEN = b'"minor_records":['
_HISTORY_MID = b'],"probability_history":['
#: The two growing session lists, left empty, as the head encodes them.
#: Its quotes are unescaped, so no JSON string can contain it, and only
#: the session object has these keys: it occurs once in a head.
_HISTORY_SLOT = _MINOR_OPEN + _HISTORY_MID + b"]}"


@dataclass(frozen=True)
class _EncodedList:
    """A history list as one checkpoint encoded it: its items (compared
    by identity) and where their text sits in that checkpoint's bytes.
    The bytes are the object the caller (the store) holds, not a second
    resident copy."""

    items: tuple[Any, ...]
    data: bytes
    start: int
    end: int


def _encode_minor_record(record: MinorIterationRecord) -> bytes:
    """The canonical text of one minor record."""
    return _canonical_json(_minor_record_to_dict(record)).encode("utf-8")


def _encode_snapshot(snapshot: np.ndarray) -> bytes:
    """The canonical text of one probability snapshot."""
    return _canonical_json(snapshot.tolist()).encode("utf-8")


def _list_text(
    items: list[Any],
    previous: _EncodedList | None,
    encode: Callable[[Any], bytes],
) -> bytes:
    """The comma-joined text of *items*: the text of the prefix encoded
    last time is copied out of that checkpoint's bytes, and only later
    items are encoded.  A list that no longer starts with the items
    encoded last time is encoded whole."""
    parts: list[Any] = []
    done = 0
    if (
        previous is not None
        and len(items) >= len(previous.items)
        and all(a is b for a, b in zip(items, previous.items))
    ):
        done = len(previous.items)
        if done:
            parts.append(memoryview(previous.data)[previous.start : previous.end])
    parts.extend(encode(item) for item in items[done:])
    return b",".join(parts)


def checkpoint_to_bytes(engine: SearchEngine) -> bytes:
    """Serialize a suspended engine to canonical UTF-8 JSON bytes.

    The byte-level accessor the session service stores under its
    :class:`~repro.service.store.SessionStore` protocol; equal engine
    states produce equal bytes (keys are sorted, no whitespace), the
    same as ``json.dumps(checkpoint_to_dict(engine), sort_keys=True,
    separators=(",", ":"))``.

    The session's minor records and probability snapshots only ever
    grow, so the text of those this engine's previous checkpoint
    encoded is copied out of its bytes and only the records appended
    since are encoded; everything else (the head) is encoded afresh.
    An engine with no previous checkpoint (new or cold-resumed)
    encodes everything.
    """
    payload = _checkpoint_payload(engine, _session_head)
    head = _canonical_json(payload).encode("utf-8")
    minor_start = head.index(_HISTORY_SLOT) + len(_MINOR_OPEN)
    session = engine.state.session
    minor, probs = engine._encoded_history or (None, None)
    minor_text = _list_text(session.minor_records, minor, _encode_minor_record)
    prob_text = _list_text(session.probability_history, probs, _encode_snapshot)
    prob_start = minor_start + len(minor_text) + len(_HISTORY_MID)
    data = b"".join(
        (
            head[:minor_start],
            minor_text,
            _HISTORY_MID,
            prob_text,
            head[minor_start + len(_HISTORY_MID) :],
        )
    )
    engine._encoded_history = (
        _EncodedList(
            tuple(session.minor_records),
            data,
            minor_start,
            minor_start + len(minor_text),
        ),
        _EncodedList(
            tuple(session.probability_history),
            data,
            prob_start,
            prob_start + len(prob_text),
        ),
    )
    return data


def checkpoint_from_bytes(payload: bytes) -> dict[str, Any]:
    """Parse checkpoint bytes back into a validated dictionary.

    Raises
    ------
    repro.exceptions.CheckpointError
        If the bytes are not valid JSON or fail checkpoint validation —
        one exception type for "truncated", "corrupt", and "not a
        checkpoint at all", so the service can map them to one clean
        HTTP 410.
    """
    try:
        parsed = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint bytes are not JSON: {exc}") from exc
    _validate_checkpoint(parsed)
    return parsed


def save_checkpoint(engine: SearchEngine, path: str | Path) -> Path:
    """Write a suspended engine's checkpoint: the canonical bytes of
    :func:`checkpoint_to_bytes`, the form the session service stores."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(checkpoint_to_bytes(engine))
    return path


def load_checkpoint(path: str | Path) -> dict[str, Any]:
    """Read a checkpoint file back into a dictionary (validated).

    Any JSON layout of the payload loads, including the whitespace-
    separated form earlier releases of :func:`save_checkpoint` wrote.
    """
    payload = json.loads(Path(path).read_text())
    _validate_checkpoint(payload)
    return payload


def _validate_checkpoint(payload: dict[str, Any]) -> None:
    if not isinstance(payload, dict):
        raise CheckpointError("checkpoint payload must be a JSON object")
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"not an engine checkpoint (format={payload.get('format')!r})"
        )
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {payload.get('version')!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    for key in ("config", "dataset", "state"):
        if key not in payload:
            raise CheckpointError(f"checkpoint is missing the {key!r} section")
        if not isinstance(payload[key], dict):
            raise CheckpointError(f"checkpoint {key!r} section is not an object")


def checkpoint_config(checkpoint: dict[str, Any]) -> SearchConfig:
    """The :class:`SearchConfig` a validated checkpoint was written with.

    Raises
    ------
    repro.exceptions.CheckpointError
        If the stored config is rejected by
        :meth:`SearchConfig.from_dict`.
    """
    try:
        return SearchConfig.from_dict(checkpoint["config"])
    except ConfigurationError as exc:
        raise CheckpointError(f"checkpoint config: {exc}") from exc


def resume_engine(
    checkpoint: dict[str, Any],
    dataset: Dataset,
    *,
    precomputed: Any = None,
    structural_spans: bool = True,
    journal: Any = None,
) -> tuple[SearchEngine, ViewRequest]:
    """Rebuild a suspended engine from a checkpoint dictionary.

    Parameters
    ----------
    checkpoint:
        A payload produced by :func:`checkpoint_to_dict` (or read via
        :func:`load_checkpoint`).
    dataset:
        The dataset the checkpointed run was searching.  Validated
        against the stored fingerprint (size, dimension, SHA-256 of the
        point bytes) — checkpoints never embed the data itself.
    precomputed:
        Optional shared :class:`~repro.core.engine.DatasetPrecomputation`.
    structural_spans:
        Forwarded to :class:`~repro.core.engine.SearchEngine`.
    journal:
        Optional :class:`~repro.obs.journal.SessionJournal` to continue
        writing into — typically reopened from the checkpoint's
        ``journal.cursor`` via :meth:`SessionJournal.resume` so the
        resumed run appends to the original file.  The engine records a
        ``resume`` event (and re-records the pending view).

    Returns
    -------
    tuple[SearchEngine, ViewRequest]
        The resumed engine plus the pending view request —
        identical to the one the interrupted run was awaiting.

    Raises
    ------
    repro.exceptions.CheckpointError
        If the payload is malformed, of an unknown version, or the
        dataset does not match the fingerprint.
    """
    _validate_checkpoint(checkpoint)
    fingerprint = checkpoint["dataset"]
    actual = dataset_fingerprint(dataset)
    for key in ("size", "dim", "sha256"):
        if fingerprint.get(key) != actual[key]:
            raise CheckpointError(
                f"dataset mismatch: checkpoint {key}={fingerprint.get(key)!r}, "
                f"given dataset {key}={actual[key]!r}"
            )
    config = checkpoint_config(checkpoint)
    try:
        raw = checkpoint["state"]
        rng = np.random.default_rng(config.rng_seed)
        rng.bit_generator.state = raw["rng_state"]
        query = np.asarray(raw["query"], dtype=float)
        state = EngineState(
            query=query,
            live=np.asarray(raw["live"], dtype=int),
            major=int(raw["major"]),
            minor=int(raw["minor"]),
            step=int(raw["step"]),
            support=config.effective_support(dataset.dim),
            views_per_major=dataset.dim // 2,
            current=Subspace.from_orthonormal(
                np.asarray(raw["current_basis"], dtype=float)
            ),
            preferences=PreferenceCounter.from_state_dict(raw["preferences"]),
            accumulator=MeaningfulnessAccumulator.from_state_dict(
                raw["accumulator"]
            ),
            termination=StabilityTermination.from_state_dict(raw["termination"]),
            session=_session_from_lossless_dict(raw["session"]),
            rng=rng,
            reason=TerminationReason[raw["reason"]],
        )
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint state: {exc}") from exc
    engine = SearchEngine(
        dataset,
        config,
        precomputed=precomputed,
        structural_spans=structural_spans,
        journal=journal,
    )
    event = engine._restore(state)
    return engine, event
