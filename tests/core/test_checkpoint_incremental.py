"""Incremental checkpoint encoding.

``checkpoint_to_bytes`` copies the text of the minor records and
probability snapshots that an engine's previous checkpoint encoded out
of those bytes, and encodes only what was appended since.  Two things
must hold:

* **Byte identity** — at every step, the bytes equal a from-scratch
  canonical encode (``json.dumps(checkpoint_to_dict(engine),
  sort_keys=True, separators=(",", ":"))``) of the same state, across
  exact and binned KDE, rejected views, every major boundary, a cold
  resume mid-session, a submit that raised, and a journaled engine
  (which writes exactly one ``checkpoint`` record per encode).
* **O(new records) work** — a hot decision's checkpoint encodes one
  minor record; the first checkpoint of an engine cold-resumed at step
  ``k`` encodes all ``k``.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core import serialization
from repro.core.config import SearchConfig
from repro.core.engine import SearchEngine, ViewRequest
from repro.core.serialization import (
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    checkpoint_to_dict,
    load_checkpoint,
    resume_engine,
    save_checkpoint,
)
from repro.exceptions import InteractionError
from repro.interaction.base import UserDecision, validate_decision
from repro.interaction.oracle import OracleUser
from repro.obs.journal import SessionJournal, read_journal
from repro.obs.metrics import REGISTRY
from repro.obs.trace import Tracer

CONFIG = SearchConfig(
    support=15,
    grid_resolution=30,
    min_major_iterations=3,
    max_major_iterations=3,
    projection_restarts=2,
)
#: Cold-resume the run from its own bytes before this step's decision.
RESUME_AT = 4
#: Submit a malformed decision (which raises) before this step's.
FAIL_AT = 7


class _ReadOnlyJournal:
    """A journal that reports the real writer's cursor and records
    nothing, so the reference encode writes no second record."""

    def __init__(self, journal):
        self.path = journal.path
        self._cursor = journal.cursor()

    def record_checkpoint(self, state):
        pass

    def cursor(self):
        return self._cursor


class _EngineView:
    """What ``checkpoint_to_dict`` reads off an engine, journal swapped."""

    def __init__(self, engine):
        self.phase = engine.phase
        self.state = engine.state
        self.config = engine.config
        self.dataset = engine.dataset
        self.journal = (
            None if engine.journal is None else _ReadOnlyJournal(engine.journal)
        )


def reference_bytes(engine) -> bytes:
    """A from-scratch canonical encode of *engine*'s state."""
    return json.dumps(
        checkpoint_to_dict(_EngineView(engine)),
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")


def _checkpoint_records(engine) -> int:
    return sum(r.type == "checkpoint" for r in read_journal(engine.journal.path))


def _checked_checkpoint(engine) -> bytes:
    """``checkpoint_to_bytes`` once, asserting its side effects fire once
    and its bytes equal the from-scratch encode."""
    counter = REGISTRY.counter("engine.checkpoints")
    journaled = engine.journal is not None
    records = _checkpoint_records(engine) if journaled else 0
    count = counter.value
    tracer = Tracer()
    with tracer.activate():
        data = checkpoint_to_bytes(engine)
    assert len(tracer.report().find("engine.checkpoint")) == 1
    assert counter.value == count + 1
    if journaled:
        assert _checkpoint_records(engine) == records + 1
    assert data == reference_bytes(engine)
    return data


class _RejectingOracle:
    """The oracle, but every third view is rejected (threshold None)."""

    def __init__(self, dataset, query_index):
        self._oracle = OracleUser(dataset, query_index)
        self._seen = 0

    def decide(self, view):
        self._seen += 1
        if self._seen % 3 == 0:
            return UserDecision.reject(view.n_points)
        return validate_decision(self._oracle.review_view(view), view)


@pytest.mark.parametrize("journaled", [False, True], ids=["plain", "journaled"])
@pytest.mark.parametrize("kde_mode", ["exact", "binned"])
def test_bytes_equal_a_from_scratch_encode_at_every_step(
    small_clustered, tmp_path, kde_mode, journaled
):
    dataset = small_clustered.dataset
    qi = int(dataset.cluster_indices(0)[0])
    path = tmp_path / "session.jsonl"
    journal = SessionJournal.create(path) if journaled else None
    engine = SearchEngine(dataset, replace(CONFIG, kde_mode=kde_mode), journal=journal)
    user = _RejectingOracle(dataset, qi)
    event = engine.start(dataset.points[qi])
    steps = 0
    majors_seen = set()
    while isinstance(event, ViewRequest):
        majors_seen.add(event.major_index)
        _checked_checkpoint(engine)
        # A second checkpoint with nothing new reuses every record.
        data = _checked_checkpoint(engine)
        if steps == RESUME_AT:
            engine.close()
            checkpoint = checkpoint_from_bytes(data)
            if journaled:
                engine.journal.close()
                journal = SessionJournal.resume(
                    path, checkpoint["journal"]["cursor"]
                )
            engine, event = resume_engine(checkpoint, dataset, journal=journal)
            _checked_checkpoint(engine)
        if steps == FAIL_AT:
            malformed = UserDecision(
                accepted=True,
                selected_mask=np.ones(event.view.n_points + 1, dtype=bool),
            )
            with pytest.raises(InteractionError):
                engine.submit(malformed)
            _checked_checkpoint(engine)
        event = engine.submit(user.decide(event.view))
        steps += 1
    if journaled:
        engine.journal.close()
        read_journal(path)  # the chain holds across every checkpoint
    session = event.session
    assert steps > FAIL_AT
    assert majors_seen == set(range(CONFIG.max_major_iterations))
    assert len(session.probability_history) == CONFIG.max_major_iterations
    assert any(r.threshold is None for r in session.minor_records)
    assert any(r.threshold is not None for r in session.minor_records)


@pytest.fixture
def encodes(monkeypatch):
    """Counts of the per-record encoder's calls, by history list."""
    counts = {"minor": 0, "snapshot": 0}
    encode_minor = serialization._encode_minor_record
    encode_snapshot = serialization._encode_snapshot

    def minor(record):
        counts["minor"] += 1
        return encode_minor(record)

    def snapshot(values):
        counts["snapshot"] += 1
        return encode_snapshot(values)

    monkeypatch.setattr(serialization, "_encode_minor_record", minor)
    monkeypatch.setattr(serialization, "_encode_snapshot", snapshot)
    return counts


def _counted_checkpoint(engine, counts):
    counts.update(minor=0, snapshot=0)
    data = checkpoint_to_bytes(engine)
    return data, dict(counts)


def test_a_hot_decision_encodes_only_its_new_record(small_clustered, encodes):
    dataset = small_clustered.dataset
    qi = int(dataset.cluster_indices(0)[0])
    user = OracleUser(dataset, qi)
    engine = SearchEngine(dataset, CONFIG)
    event = engine.start(dataset.points[qi])
    _, first = _counted_checkpoint(engine, encodes)
    assert first == {"minor": 0, "snapshot": 0}
    snapshots = 0
    while True:
        event = engine.submit(
            validate_decision(user.review_view(event.view), event.view)
        )
        if not isinstance(event, ViewRequest):
            break
        _, counts = _counted_checkpoint(engine, encodes)
        history = engine.state.session.probability_history
        assert counts == {"minor": 1, "snapshot": len(history) - snapshots}
        snapshots = len(history)
    assert snapshots >= 2  # the run crossed major boundaries


def test_a_cold_resume_encodes_its_whole_history_once(small_clustered, encodes):
    dataset = small_clustered.dataset
    qi = int(dataset.cluster_indices(0)[0])
    user = OracleUser(dataset, qi)
    engine = SearchEngine(dataset, CONFIG)
    event = engine.start(dataset.points[qi])
    for _ in range(12):
        checkpoint_to_bytes(engine)
        event = engine.submit(
            validate_decision(user.review_view(event.view), event.view)
        )
    data, _ = _counted_checkpoint(engine, encodes)
    engine.close()
    session = engine.state.session
    k = len(session.minor_records)
    assert k == 12 and session.probability_history

    cold, event = resume_engine(checkpoint_from_bytes(data), dataset)
    cold_data, counts = _counted_checkpoint(cold, encodes)
    assert cold_data == data
    assert counts == {"minor": k, "snapshot": len(session.probability_history)}
    cold.submit(validate_decision(user.review_view(event.view), event.view))
    _, counts = _counted_checkpoint(cold, encodes)
    assert counts["minor"] == 1


def test_a_replaced_history_is_encoded_whole(small_clustered, encodes):
    """A history that no longer starts with the records encoded last
    time is not spliced: every record is encoded again."""
    dataset = small_clustered.dataset
    qi = int(dataset.cluster_indices(0)[0])
    user = OracleUser(dataset, qi)
    engine = SearchEngine(dataset, CONFIG)
    event = engine.start(dataset.points[qi])
    for _ in range(5):
        event = engine.submit(
            validate_decision(user.review_view(event.view), event.view)
        )
    checkpoint_to_bytes(engine)
    records = engine.state.session.minor_records
    records[1] = replace(records[1], note="edited")
    data, counts = _counted_checkpoint(engine, encodes)
    assert counts["minor"] == len(records) == 5
    assert data == reference_bytes(engine)
    assert b'"note":"edited"' in data


def _suspended(dataset, steps=6):
    qi = int(dataset.cluster_indices(0)[0])
    user = OracleUser(dataset, qi)
    engine = SearchEngine(dataset, CONFIG)
    event = engine.start(dataset.points[qi])
    for _ in range(steps):
        event = engine.submit(
            validate_decision(user.review_view(event.view), event.view)
        )
    return engine


def test_save_checkpoint_writes_the_service_bytes(small_clustered, tmp_path):
    engine = _suspended(small_clustered.dataset)
    path = save_checkpoint(engine, tmp_path / "run.ckpt.json")
    assert path.read_bytes() == reference_bytes(engine)
    assert path.read_bytes() == checkpoint_to_bytes(engine)


def test_load_checkpoint_reads_the_spaced_form(small_clustered, tmp_path):
    """Files written with json.dumps' default separators still load."""
    engine = _suspended(small_clustered.dataset)
    spaced = tmp_path / "spaced.ckpt.json"
    spaced.write_text(json.dumps(checkpoint_to_dict(engine), sort_keys=True))
    canonical = save_checkpoint(engine, tmp_path / "canonical.ckpt.json")
    assert spaced.read_bytes() != canonical.read_bytes()
    assert load_checkpoint(spaced) == load_checkpoint(canonical)
