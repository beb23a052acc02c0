"""Checkpoint/resume determinism and validation.

The central guarantee: interrupting a run at *any* minor-iteration
boundary, serializing the engine to JSON, deserializing, and resuming
yields a final :class:`SearchResult` **identical** to the uninterrupted
run — same neighbors, bit-equal probabilities, same reason, same
session records.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core.config import SearchConfig
from repro.core.engine import EnginePhase, SearchEngine, ViewRequest
from repro.core.search import InteractiveNNSearch, drive_pending
from repro.core.serialization import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    checkpoint_to_bytes,
    checkpoint_to_dict,
    load_checkpoint,
    resume_engine,
    save_checkpoint,
)
from repro.exceptions import CheckpointError, EngineStateError
from repro.interaction.base import validate_decision
from repro.interaction.oracle import OracleUser

CONFIG = SearchConfig(
    support=15,
    grid_resolution=30,
    min_major_iterations=2,
    max_major_iterations=3,
    projection_restarts=2,
)


@pytest.fixture
def clustered(small_clustered):
    return small_clustered.dataset


def _baseline(dataset, query_index):
    return InteractiveNNSearch(dataset, CONFIG).run(
        dataset.points[query_index], OracleUser(dataset, query_index)
    )


def _assert_identical(result, baseline):
    assert np.array_equal(result.neighbor_indices, baseline.neighbor_indices)
    assert np.array_equal(result.probabilities, baseline.probabilities)
    assert result.reason == baseline.reason
    assert result.support == baseline.support
    base_session = baseline.session
    session = result.session
    assert session.total_views == base_session.total_views
    assert session.accepted_views == base_session.accepted_views
    for got, expected in zip(session.minor_records, base_session.minor_records):
        assert got.major_index == expected.major_index
        assert got.minor_index == expected.minor_index
        assert got.accepted == expected.accepted
        assert got.threshold == expected.threshold
        assert np.array_equal(got.selected_indices, expected.selected_indices)
        assert np.array_equal(got.subspace.basis, expected.subspace.basis)
    for got, expected in zip(session.major_records, base_session.major_records):
        assert got == expected
    for got, expected in zip(
        session.probability_history, base_session.probability_history
    ):
        assert np.array_equal(got, expected)


def test_resume_identical_at_every_minor_boundary(clustered):
    """Interrupt/serialize/resume at each boundary: results byte-equal."""
    qi = int(clustered.cluster_indices(0)[0])
    baseline = _baseline(clustered, qi)
    total = baseline.session.total_views

    for interrupt_at in range(1, total + 1):
        user = OracleUser(clustered, qi)
        engine = SearchEngine(clustered, CONFIG)
        event = engine.start(clustered.points[qi])
        while isinstance(event, ViewRequest) and event.step < interrupt_at:
            decision = validate_decision(user.review_view(event.view), event.view)
            event = engine.submit(decision)
        assert isinstance(event, ViewRequest)

        # Full JSON round-trip, as a file on disk would do.
        payload = json.loads(json.dumps(checkpoint_to_dict(engine)))
        engine.close()

        resumed, pending = resume_engine(payload, clustered)
        assert resumed.phase == EnginePhase.AWAITING_DECISION
        # The recomputed pending view is identical to the interrupted one.
        assert pending.step == event.step
        assert pending.major_index == event.major_index
        assert pending.minor_index == event.minor_index
        assert np.array_equal(
            pending.view.subspace.basis, event.view.subspace.basis
        )
        assert np.array_equal(
            pending.view.projected_points, event.view.projected_points
        )

        result = drive_pending(resumed, pending, OracleUser(clustered, qi))
        _assert_identical(result, baseline)


def test_save_and_load_checkpoint_roundtrip(tmp_path, clustered):
    qi = int(clustered.cluster_indices(1)[0])
    engine = SearchEngine(clustered, CONFIG)
    event = engine.start(clustered.points[qi])
    user = OracleUser(clustered, qi)
    for _ in range(3):
        event = engine.submit(
            validate_decision(user.review_view(event.view), event.view)
        )
        assert isinstance(event, ViewRequest)

    path = save_checkpoint(engine, tmp_path / "run.ckpt.json")
    engine.close()
    payload = load_checkpoint(path)
    assert payload["format"] == CHECKPOINT_FORMAT
    assert payload["version"] == CHECKPOINT_VERSION

    resumed, pending = resume_engine(payload, clustered)
    result = drive_pending(resumed, pending, OracleUser(clustered, qi))
    _assert_identical(result, _baseline(clustered, qi))


def test_checkpoint_requires_pending_decision(clustered):
    engine = SearchEngine(clustered, CONFIG)
    with pytest.raises(EngineStateError):
        checkpoint_to_dict(engine)  # never started
    qi = int(clustered.cluster_indices(0)[0])
    result = InteractiveNNSearch(clustered, CONFIG).run(
        clustered.points[qi], OracleUser(clustered, qi)
    )
    assert result is not None
    finished = SearchEngine(clustered, CONFIG)
    event = finished.start(clustered.points[qi])
    user = OracleUser(clustered, qi)
    while isinstance(event, ViewRequest):
        event = finished.submit(
            validate_decision(user.review_view(event.view), event.view)
        )
    with pytest.raises(EngineStateError):
        checkpoint_to_dict(finished)  # already finished


def _suspended_checkpoint(dataset, query_index):
    engine = SearchEngine(dataset, CONFIG)
    engine.start(dataset.points[query_index])
    payload = checkpoint_to_dict(engine)
    engine.close()
    return payload


def test_resume_rejects_wrong_format_and_version(clustered):
    payload = _suspended_checkpoint(clustered, 0)
    bad_format = dict(payload, format="something-else")
    with pytest.raises(CheckpointError):
        resume_engine(bad_format, clustered)
    bad_version = dict(payload, version=CHECKPOINT_VERSION + 1)
    with pytest.raises(CheckpointError):
        resume_engine(bad_version, clustered)
    with pytest.raises(CheckpointError):
        resume_engine({"format": CHECKPOINT_FORMAT}, clustered)


def test_resume_rejects_mismatched_dataset(clustered, small_uniform):
    payload = _suspended_checkpoint(clustered, 0)
    with pytest.raises(CheckpointError, match="dataset mismatch"):
        resume_engine(payload, small_uniform)


def test_resume_rejects_tampered_points(clustered):
    payload = _suspended_checkpoint(clustered, 0)
    from dataclasses import replace

    perturbed = replace(clustered, points=clustered.points + 1e-9)
    with pytest.raises(CheckpointError, match="sha256"):
        resume_engine(payload, perturbed)


def test_resume_rejects_malformed_state(clustered):
    payload = _suspended_checkpoint(clustered, 0)
    broken = json.loads(json.dumps(payload))
    del broken["state"]["rng_state"]
    with pytest.raises(CheckpointError, match="malformed"):
        resume_engine(broken, clustered)


@pytest.mark.parametrize("mode", ["exact", "binned"])
def test_retired_subsample_key_resumes_byte_identically(clustered, mode):
    """Checkpoints written before ``kde_subsample`` was retired carry
    the key; it is dropped on resume and changes nothing downstream."""
    config = dataclasses.replace(CONFIG, kde_mode=mode)
    qi = int(clustered.cluster_indices(0)[0])
    engine = SearchEngine(clustered, config)
    event = engine.start(clustered.points[qi])
    user = OracleUser(clustered, qi)
    event = engine.submit(
        validate_decision(user.review_view(event.view), event.view)
    )
    current = json.loads(json.dumps(checkpoint_to_dict(engine)))
    engine.close()
    legacy = json.loads(json.dumps(current))
    legacy["config"]["kde_subsample"] = 4096

    views = []
    for payload in (current, legacy):
        resumed, pending = resume_engine(payload, clustered)
        view = pending.view
        views.append(
            (
                pending.step,
                view.projected_points.tobytes(),
                view.profile.grid.density.tobytes(),
                view.live_indices.tobytes(),
                checkpoint_to_bytes(resumed),
            )
        )
        resumed.close()
    assert views[0] == views[1]


def test_resume_rejects_retired_subsampled_mode(clustered):
    payload = json.loads(json.dumps(_suspended_checkpoint(clustered, 0)))
    payload["config"]["kde_mode"] = "subsampled"
    with pytest.raises(CheckpointError, match="subsampled"):
        resume_engine(payload, clustered)


def test_load_checkpoint_rejects_non_checkpoint_file(tmp_path):
    path = tmp_path / "not_a_checkpoint.json"
    path.write_text(json.dumps({"hello": "world"}))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
