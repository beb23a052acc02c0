"""Waking a suspended engine in place.

``SearchEngine.wake`` resumes an engine that ``close`` suspended while
it awaited a decision.  It must hand back exactly what a cold
``resume_engine`` of the same engine's checkpoint would: the same
request, the same state, the same journal records, and the same run
to the end.  Only the state rebuild and the view recompute are gone.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.core.config import SearchConfig
from repro.core.engine import EnginePhase, SearchEngine, ViewRequest
from repro.core.search import InteractiveNNSearch, drive_pending
from repro.core.serialization import (
    checkpoint_to_bytes,
    checkpoint_to_dict,
    resume_engine,
)
from repro.exceptions import EngineStateError
from repro.interaction.base import validate_decision
from repro.interaction.oracle import OracleUser
from repro.obs.journal import SessionJournal, read_journal

CONFIG = SearchConfig(
    support=15,
    grid_resolution=30,
    min_major_iterations=2,
    max_major_iterations=2,
    projection_restarts=2,
)
#: Suspend after this many decisions (inside the second major
#: iteration, so the live set is already pruned).
DECISIONS_BEFORE_SUSPEND = 7


def _run_to_suspension(dataset, qi, journal=None):
    engine = SearchEngine(dataset, CONFIG, journal=journal)
    user = OracleUser(dataset, qi)
    event = engine.start(dataset.points[qi])
    for _ in range(DECISIONS_BEFORE_SUSPEND):
        event = engine.submit(
            validate_decision(user.review_view(event.view), event.view)
        )
    assert isinstance(event, ViewRequest) and event.major_index == 1
    return engine, event


@pytest.fixture
def suspended(small_clustered):
    """``(dataset, query index, checkpoint, suspended engine, event)``."""
    dataset = small_clustered.dataset
    qi = int(dataset.cluster_indices(0)[0])
    engine, event = _run_to_suspension(dataset, qi)
    checkpoint = json.loads(json.dumps(checkpoint_to_dict(engine)))
    engine.close()
    return dataset, qi, checkpoint, engine, event


def test_woken_engine_finishes_like_an_uninterrupted_run(suspended):
    dataset, qi, checkpoint, engine, suspended_event = suspended
    rng_after = engine.state.rng.bit_generator.state
    event = engine.wake()
    # The pending view is handed back as it is, not recomputed.
    assert event.view is suspended_event.view
    assert event.step == suspended_event.step
    assert engine.phase == EnginePhase.AWAITING_DECISION
    # The RNG sits exactly where the view computation left it.
    assert engine.state.rng.bit_generator.state == rng_after
    result = drive_pending(engine, event, OracleUser(dataset, qi))
    baseline = InteractiveNNSearch(dataset, CONFIG).run(
        dataset.points[qi], OracleUser(dataset, qi)
    )
    assert np.array_equal(result.neighbor_indices, baseline.neighbor_indices)
    assert np.array_equal(result.probabilities, baseline.probabilities)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "field",
    [
        "step",
        "rng_state_before",
        "live",
        "query",
        "current",
        "config",
        "minor",
        "major",
    ],
)
def test_woken_engine_matches_cold_resume(suspended, field):
    """Every input of the pending view equals a cold resume's."""
    dataset, _, checkpoint, engine, _ = suspended
    hot_event = engine.wake()
    cold, cold_event = resume_engine(checkpoint, dataset)
    hot, cold_state = engine.state, cold.state
    if field == "step":
        assert hot_event.step == cold_event.step == hot.step == cold_state.step
    elif field == "rng_state_before":
        assert hot.rng_state_at_view == cold_state.rng_state_at_view
        assert hot.rng.bit_generator.state == cold_state.rng.bit_generator.state
    elif field == "live":
        assert np.array_equal(hot.live, cold_state.live)
        assert np.array_equal(
            hot_event.view.live_indices, cold_event.view.live_indices
        )
    elif field == "query":
        assert _same_bits(hot.query, cold_state.query)
    elif field == "current":
        assert _same_bits(hot.current.basis, cold_state.current.basis)
        assert _same_bits(
            hot_event.view.subspace.basis, cold_event.view.subspace.basis
        )
        assert _same_bits(
            hot_event.view.profile.grid.density,
            cold_event.view.profile.grid.density,
        )
    elif field == "config":
        assert engine.config == cold.config
    elif field in ("major", "minor"):
        name = f"{field}_index"
        assert getattr(hot_event, name) == getattr(cold_event, name)
        assert getattr(hot, field) == getattr(cold_state, field)
    else:  # pragma: no cover
        raise AssertionError(field)


def test_woken_engine_checkpoints_to_its_bytes(suspended):
    """Waking changes nothing a checkpoint records."""
    dataset, qi, _, _, _ = suspended
    engine, _ = _run_to_suspension(dataset, qi)
    before = checkpoint_to_bytes(engine)
    engine.close()
    engine.wake()
    assert checkpoint_to_bytes(engine) == before


def test_wake_requires_a_suspended_engine(small_clustered):
    dataset = small_clustered.dataset
    engine = SearchEngine(dataset, CONFIG)
    with pytest.raises(EngineStateError):
        engine.wake()
    qi = int(dataset.cluster_indices(0)[0])
    engine.start(dataset.points[qi])
    engine.close()
    result = drive_pending(
        engine, engine.wake(), OracleUser(dataset, qi)
    )
    assert engine.finished and result is engine.result
    with pytest.raises(EngineStateError):
        engine.wake()


def _records(path):
    out = []
    for record in read_journal(path):
        payload = {k: v for k, v in record.payload.items() if k != "ctx"}
        out.append((record.type, payload))
    return out


def test_wake_writes_the_records_a_cold_resume_writes(small_clustered, tmp_path):
    dataset = small_clustered.dataset
    qi = int(dataset.cluster_indices(0)[0])
    hot_path, cold_path = tmp_path / "hot.jsonl", tmp_path / "cold.jsonl"
    engine, _ = _run_to_suspension(dataset, qi, SessionJournal.create(hot_path))
    checkpoint = json.loads(json.dumps(checkpoint_to_dict(engine)))
    engine.close()
    engine.journal.close()
    shutil.copyfile(hot_path, cold_path)

    event = engine.wake(journal_context={"request_id": "req-hot"})
    hot_result = drive_pending(engine, event, OracleUser(dataset, qi))
    engine.journal.close()

    journal = SessionJournal.resume(cold_path, checkpoint["journal"]["cursor"])
    cold, event = resume_engine(checkpoint, dataset, journal=journal)
    cold_result = drive_pending(cold, event, OracleUser(dataset, qi))
    journal.close()

    assert _records(hot_path) == _records(cold_path)
    assert np.array_equal(hot_result.probabilities, cold_result.probabilities)
    resumed = [r for r in read_journal(hot_path) if r.type == "resume"]
    assert [r.payload["ctx"] for r in resumed] == [{"request_id": "req-hot"}]


def test_wake_continues_without_a_journal_it_cannot_reopen(
    small_clustered, tmp_path
):
    dataset = small_clustered.dataset
    qi = int(dataset.cluster_indices(0)[0])
    path = tmp_path / "session.jsonl"
    engine, _ = _run_to_suspension(dataset, qi, SessionJournal.create(path))
    checkpoint_to_dict(engine)
    engine.close()
    engine.journal.close()
    # The file grew past the cursor: reopening would fork its history.
    with open(path, "ab") as handle:
        handle.write(b"{}\n")
    event = engine.wake()
    assert engine.journal is None
    baseline = InteractiveNNSearch(dataset, CONFIG).run(
        dataset.points[qi], OracleUser(dataset, qi)
    )
    result = drive_pending(engine, event, OracleUser(dataset, qi))
    assert np.array_equal(result.neighbor_indices, baseline.neighbor_indices)
