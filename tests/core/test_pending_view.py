"""Resuming with a pending-view snapshot.

``resume_engine(..., pending=snapshot)`` installs the snapshot's view
instead of recomputing it, but only when every input of the view
computation equals the checkpoint's.  A snapshot that differs in any
one of them must be ignored and the view recomputed, with the same
outcome as a resume without a snapshot.
"""

from __future__ import annotations

import copy
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import SearchConfig
from repro.core.engine import EnginePhase, SearchEngine, ViewRequest
from repro.core.search import InteractiveNNSearch, drive_pending
from repro.core.serialization import checkpoint_to_dict, resume_engine
from repro.exceptions import EngineStateError
from repro.geometry.subspace import Subspace
from repro.interaction.base import validate_decision
from repro.interaction.oracle import OracleUser

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


@pytest.fixture
def suspended(small_clustered):
    """``(dataset, query index, checkpoint, snapshot)``."""
    dataset = small_clustered.dataset
    qi = int(dataset.cluster_indices(0)[0])
    user = OracleUser(dataset, qi)
    engine = SearchEngine(dataset, CONFIG)
    event = engine.start(dataset.points[qi])
    for _ in range(DECISIONS_BEFORE_SUSPEND):
        event = engine.submit(
            validate_decision(user.review_view(event.view), event.view)
        )
    assert isinstance(event, ViewRequest) and event.major_index == 1
    checkpoint = json.loads(json.dumps(checkpoint_to_dict(engine)))
    snapshot = engine.pending_snapshot()
    engine.close()
    return dataset, qi, checkpoint, snapshot


def _nudged(array: np.ndarray) -> np.ndarray:
    """*array* with its first element moved by one ulp."""
    out = np.array(array, dtype=float)
    out.flat[0] = np.nextafter(out.flat[0], np.inf)
    return out


def _tampered(snapshot, field):
    if field == "step":
        return replace(snapshot, step=snapshot.step + 1)
    if field == "rng_state_before":
        state = copy.deepcopy(snapshot.rng_state_before)
        state["state"]["state"] += 1
        return replace(snapshot, rng_state_before=state)
    if field == "live":
        live = snapshot.view.live_indices.copy()
        live[-1] += 1
        return replace(snapshot, view=replace(snapshot.view, live_indices=live))
    if field == "query":
        return replace(snapshot, query=_nudged(snapshot.query))
    if field == "current":
        nudged = Subspace.from_orthonormal(_nudged(snapshot.current.basis))
        return replace(snapshot, current=nudged)
    if field == "config":
        return replace(
            snapshot,
            config=replace(
                snapshot.config,
                projection_restarts=snapshot.config.projection_restarts + 1,
            ),
        )
    if field in ("major", "minor"):
        name = f"{field}_index"
        shifted = replace(snapshot.view, **{name: getattr(snapshot.view, name) + 1})
        return replace(snapshot, view=shifted)
    raise AssertionError(field)


def test_matching_snapshot_is_installed(suspended):
    dataset, qi, checkpoint, snapshot = suspended
    resumed, event = resume_engine(checkpoint, dataset, pending=snapshot)
    assert event.view is snapshot.view
    assert event.step == snapshot.step
    assert resumed.phase == EnginePhase.AWAITING_DECISION
    # The RNG sits exactly where the view computation would leave it.
    assert resumed.state.rng.bit_generator.state == snapshot.rng_state_after
    assert resumed.state.rng_state_at_view == snapshot.rng_state_before
    result = drive_pending(resumed, event, OracleUser(dataset, qi))
    baseline = InteractiveNNSearch(dataset, CONFIG).run(
        dataset.points[qi], OracleUser(dataset, qi)
    )
    assert np.array_equal(result.neighbor_indices, baseline.neighbor_indices)
    assert np.array_equal(result.probabilities, baseline.probabilities)


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
def test_mismatched_snapshot_is_ignored_and_recomputed(suspended, field):
    dataset, _, checkpoint, snapshot = suspended
    bad = _tampered(snapshot, field)
    resumed, event = resume_engine(checkpoint, dataset, pending=bad)
    assert event.view is not bad.view
    # The recomputed view is the one the snapshot held.
    assert event.step == snapshot.step
    assert np.array_equal(
        event.view.subspace.basis, snapshot.view.subspace.basis
    )
    assert np.array_equal(
        event.view.profile.grid.density, snapshot.view.profile.grid.density
    )
    assert resumed.state.rng.bit_generator.state == snapshot.rng_state_after


def test_pending_snapshot_requires_a_pending_view(small_clustered):
    engine = SearchEngine(small_clustered.dataset, CONFIG)
    with pytest.raises(EngineStateError):
        engine.pending_snapshot()
