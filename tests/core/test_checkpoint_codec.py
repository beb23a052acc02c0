"""Checkpoint codec bytes and the dataset-fingerprint memo.

* The encoder converts index arrays with ``ndarray.tolist()``; an
  element-wise oracle (the encoder's earlier form) must produce the
  same bytes at every step of a session.
* ``dataset_fingerprint`` memoises the SHA-256 only for read-only
  points; a writeable dataset is hashed on every call, so mutating it
  after a checkpoint is still caught on resume.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import SearchConfig
from repro.core.engine import SearchEngine, ViewRequest
from repro.core.serialization import (
    checkpoint_to_bytes,
    checkpoint_to_dict,
    dataset_fingerprint,
    resume_engine,
)
from repro.exceptions import CheckpointError
from repro.interaction.base import validate_decision
from repro.interaction.oracle import OracleUser
from repro.obs.metrics import REGISTRY

CONFIG = SearchConfig(
    support=15,
    grid_resolution=30,
    min_major_iterations=2,
    max_major_iterations=2,
    projection_restarts=2,
)


def _read_only(dataset):
    points = dataset.points.view()
    points.setflags(write=False)
    return replace(dataset, points=points)


def _hashes() -> float:
    return REGISTRY.counter("data.fingerprint.hashes").value


# ----------------------------------------------------------------------
# Element-wise oracle
# ----------------------------------------------------------------------
def _oracle_session(session) -> dict:
    minors = []
    for record in session.minor_records:
        stats = record.profile_statistics
        minors.append(
            {
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
                "selected_indices": [int(i) for i in record.selected_indices],
            }
        )
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
        "minor_records": minors,
        "major_records": majors,
        "probability_history": [p.tolist() for p in session.probability_history],
    }


def _oracle_bytes(engine) -> bytes:
    """The checkpoint as the element-wise encoder wrote it."""
    payload = checkpoint_to_dict(engine)
    state = engine.state
    pts = np.ascontiguousarray(engine.dataset.points, dtype=np.float64)
    payload["dataset"]["sha256"] = hashlib.sha256(pts.tobytes()).hexdigest()
    payload["state"]["live"] = [int(i) for i in state.live]
    payload["state"]["session"] = _oracle_session(state.session)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def test_encoder_matches_element_wise_oracle_at_every_step(small_clustered):
    dataset = _read_only(small_clustered.dataset)
    qi = int(dataset.cluster_indices(0)[0])
    user = OracleUser(dataset, qi)
    engine = SearchEngine(dataset, CONFIG)
    event = engine.start(dataset.points[qi])
    steps = 0
    while isinstance(event, ViewRequest):
        assert checkpoint_to_bytes(engine) == _oracle_bytes(engine)
        event = engine.submit(
            validate_decision(user.review_view(event.view), event.view)
        )
        steps += 1
    assert steps > CONFIG.max_major_iterations
    # Pruning ran, so live and selected_indices were real subsets.
    assert event.session.major_records[0].live_count_after < dataset.size


# ----------------------------------------------------------------------
# Fingerprint memo
# ----------------------------------------------------------------------
def test_read_only_dataset_is_hashed_once(small_clustered):
    dataset = _read_only(small_clustered.dataset)
    before = _hashes()
    first = dataset_fingerprint(dataset)
    assert dataset_fingerprint(dataset) == first
    assert _hashes() == before + 1
    # A replaced dataset is a new identity and hashes afresh.
    renamed = replace(dataset, name="renamed")
    assert dataset_fingerprint(renamed)["sha256"] == first["sha256"]
    assert _hashes() == before + 2


def test_writeable_dataset_is_hashed_every_call(small_clustered):
    points = small_clustered.dataset.points.copy()
    dataset = replace(small_clustered.dataset, points=points)
    assert dataset.points.flags.writeable
    before = _hashes()
    dataset_fingerprint(dataset)
    dataset_fingerprint(dataset)
    assert _hashes() == before + 2


def test_writeable_dataset_mutated_after_checkpoint_is_rejected(
    small_clustered,
):
    points = small_clustered.dataset.points.copy()
    dataset = replace(small_clustered.dataset, points=points)
    engine = SearchEngine(dataset, CONFIG)
    engine.start(dataset.points[0])
    checkpoint = json.loads(json.dumps(checkpoint_to_dict(engine)))
    engine.close()
    # Resuming on the unchanged dataset works (and hashes again).
    resume_engine(checkpoint, dataset)
    points[3, 2] += 1e-9
    with pytest.raises(CheckpointError, match="sha256"):
        resume_engine(checkpoint, dataset)


def test_memo_is_neither_read_nor_written_while_writeable(small_clustered):
    """Flip a dataset between read-only and writeable around in-place
    edits: every fingerprint still reflects the current points."""
    points = small_clustered.dataset.points.copy()
    view = points.view()
    dataset = replace(small_clustered.dataset, points=view)

    def fresh_digest():
        pts = np.ascontiguousarray(view, dtype=np.float64)
        return hashlib.sha256(pts.tobytes()).hexdigest()

    # Hashed while writeable, edited, then frozen: no stale memo.
    dataset_fingerprint(dataset)
    view[0, 0] += 1.0
    view.setflags(write=False)
    assert dataset_fingerprint(dataset)["sha256"] == fresh_digest()
    # Memoised while read-only, thawed and edited: memo not trusted.
    view.setflags(write=True)
    view[0, 1] += 1.0
    assert dataset_fingerprint(dataset)["sha256"] == fresh_digest()
