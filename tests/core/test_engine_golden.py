"""Golden equivalence: the engine reproduces the pre-refactor loop.

``tests/golden/search_goldens.json`` was captured from the monolithic
blocking-loop implementation of :class:`InteractiveNNSearch` immediately
before the sans-io refactor (see ``tests/golden/make_goldens.py``).
These tests lock in the acceptance criterion that the engine-driven
``run()`` produces **byte-identical** outputs — neighbor indices,
full-precision probabilities, termination reason, per-iteration session
digests, and projection bases — across materially different
configurations (default, axis-parallel, paper-exact/heuristic, and
weighted/no-prune).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.batch import run_batch
from repro.core.config import SearchConfig
from repro.core.search import InteractiveNNSearch
from repro.interaction.heuristic import HeuristicUser
from repro.interaction.oracle import OracleUser

from tests.golden.make_goldens import CASES, clustered_dataset, uniform

GOLDENS = json.loads(
    (Path(__file__).parents[1] / "golden" / "search_goldens.json").read_text()
)


def _build(case: dict):
    ds = clustered_dataset() if case["dataset"] == "clustered" else uniform()
    q = case["query"]
    if q[0] == "cluster":
        query_index = int(ds.cluster_indices(q[1])[q[2]])
    else:
        query_index = int(q[1])
    params = dict(case["config"])
    if params.pop("_paper_exact", False):
        config = SearchConfig.paper_exact(**params)
    else:
        config = SearchConfig(**params)
    if case["user"] == "oracle":
        user = OracleUser(ds, query_index)
    elif case["user"] == "oracle_weighted":
        user = OracleUser(ds, query_index, weight_by_confidence=True)
    else:
        user = HeuristicUser()
    return ds, query_index, config, user


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_matches_pre_refactor_golden(name):
    ds, query_index, config, user = _build(CASES[name])
    golden = GOLDENS["cases"][name]
    assert golden["query_index"] == query_index

    result = InteractiveNNSearch(ds, config).run(ds.points[query_index], user)

    # Exact — no tolerance anywhere.
    assert result.neighbor_indices.tolist() == golden["neighbor_indices"]
    assert result.probabilities.tolist() == golden["probabilities"]
    assert result.support == golden["support"]
    assert result.reason.value == golden["reason"]

    session = result.session
    history = [p.tolist() for p in session.probability_history]
    assert history == golden["probability_history"]

    assert len(session.minor_records) == len(golden["minor_records"])
    for record, expected in zip(session.minor_records, golden["minor_records"]):
        assert record.major_index == expected["major"]
        assert record.minor_index == expected["minor"]
        assert record.accepted == expected["accepted"]
        assert record.threshold == expected["threshold"]
        assert record.selected_count == expected["selected_count"]
        assert record.live_count == expected["live_count"]
        assert list(record.refinement_dims) == expected["refinement_dims"]
        assert record.selected_indices.tolist() == expected["selected_indices"]
        assert record.subspace.basis.tolist() == expected["basis"]

    assert len(session.major_records) == len(golden["major_records"])
    for record, expected in zip(session.major_records, golden["major_records"]):
        assert record.index == expected["index"]
        assert record.live_count_before == expected["live_before"]
        assert record.live_count_after == expected["live_after"]
        assert list(record.pick_counts) == expected["pick_counts"]
        assert record.expected == expected["expected"]
        assert record.variance == expected["variance"]
        assert record.accepted_views == expected["accepted_views"]
        assert record.overlap == expected["overlap"]


@pytest.mark.parametrize("repeats", [1, 3, 8])
def test_batch_matches_pre_refactor_golden(repeats):
    """The golden batch, repeated, reproduces the golden every time.

    Later repeats run against the precomputation caches the earlier
    ones warmed, and must not drift from the recorded entries.
    """
    ds = clustered_dataset()
    config = SearchConfig(
        support=15,
        grid_resolution=30,
        min_major_iterations=2,
        max_major_iterations=2,
        projection_restarts=2,
    )
    golden = GOLDENS["batch"]
    queries = np.tile(np.asarray(golden["query_indices"], dtype=int), repeats)
    batch = run_batch(
        InteractiveNNSearch(ds, config),
        queries,
        lambda qi: OracleUser(ds, qi),
    )
    assert [e.query_index for e in batch.entries] == (
        golden["query_indices"] * repeats
    )
    for entry, expected in zip(batch.entries, golden["entries"] * repeats):
        assert entry.neighbors.tolist() == expected["neighbors"]
        assert entry.result.neighbor_indices.tolist() == (
            expected["neighbor_indices"]
        )
        assert entry.result.probabilities.tolist() == expected["probabilities"]
        assert entry.result.reason.value == expected["reason"]
        assert bool(entry.diagnosis.meaningful) == expected["meaningful"]
