"""Tests for batch search execution."""

import numpy as np
import pytest

from repro.core.batch import run_batch
from repro.core.config import SearchConfig
from repro.core.search import InteractiveNNSearch
from repro.exceptions import ConfigurationError
from repro.interaction.oracle import OracleUser
from repro.interaction.scripted import CallbackUser
from repro.interaction.base import UserDecision

FAST = SearchConfig(
    support=15,
    grid_resolution=30,
    min_major_iterations=2,
    max_major_iterations=2,
    projection_restarts=2,
)


class TestRunBatch:
    def test_basic_batch(self, small_clustered):
        ds = small_clustered.dataset
        queries = np.concatenate(
            [ds.cluster_indices(0)[:2], ds.cluster_indices(1)[:1]]
        )
        search = InteractiveNNSearch(ds, FAST)
        batch = run_batch(search, queries, lambda qi: OracleUser(ds, qi))
        assert batch.query_count == 3
        assert batch.meaningful_count >= 2
        assert 0.0 <= batch.meaningful_fraction <= 1.0
        assert batch.mean_natural_size > 0
        assert 0.0 < batch.mean_acceptance_rate <= 1.0

    def test_entries_in_input_order(self, small_clustered):
        ds = small_clustered.dataset
        queries = ds.cluster_indices(0)[:3]
        search = InteractiveNNSearch(ds, FAST)
        batch = run_batch(search, queries, lambda qi: OracleUser(ds, qi))
        assert [e.query_index for e in batch.entries] == queries.tolist()

    def test_neighbors_of(self, small_clustered):
        ds = small_clustered.dataset
        queries = ds.cluster_indices(0)[:2]
        search = InteractiveNNSearch(ds, FAST)
        batch = run_batch(search, queries, lambda qi: OracleUser(ds, qi))
        nn = batch.neighbors_of(int(queries[0]))
        assert nn.size > 0
        with pytest.raises(ConfigurationError):
            batch.neighbors_of(999_999)

    def test_empty_queries(self, small_clustered):
        search = InteractiveNNSearch(small_clustered.dataset, FAST)
        with pytest.raises(ConfigurationError):
            run_batch(search, np.array([], dtype=int), lambda qi: None)

    def test_out_of_range_query(self, small_clustered):
        search = InteractiveNNSearch(small_clustered.dataset, FAST)
        with pytest.raises(ConfigurationError):
            run_batch(search, np.array([10_000]), lambda qi: None)

    def test_reject_all_batch(self, small_clustered):
        ds = small_clustered.dataset
        queries = ds.cluster_indices(0)[:2]
        search = InteractiveNNSearch(ds, FAST)
        batch = run_batch(
            search,
            queries,
            lambda qi: CallbackUser(lambda v: UserDecision.reject(v.n_points)),
        )
        assert batch.meaningful_count == 0
        assert batch.mean_natural_size == 0.0


class TestInterleavedScheduler:
    """Validation, ordering and single-run parity of batch entries."""

    def test_all_indices_validated_before_any_run(self, small_clustered):
        """A bad index late in the list fails fast, before work starts."""
        ds = small_clustered.dataset
        calls = []

        def factory(qi):
            calls.append(qi)
            return OracleUser(ds, qi)

        search = InteractiveNNSearch(ds, FAST)
        queries = np.array([0, 1, ds.size + 5])
        with pytest.raises(ConfigurationError):
            run_batch(search, queries, factory)
        assert calls == []

    @pytest.mark.parametrize("n_queries", [1, 2, 16])
    def test_interleaving_invariant(self, small_clustered, n_queries):
        """Each entry equals InteractiveNNSearch.run for its query.

        A query's outcome does not depend on how many queries share the
        batch, or on the precomputation caches its predecessors warmed.
        """
        ds = small_clustered.dataset
        pool = np.stack(
            [ds.cluster_indices(c)[:6] for c in range(3)], axis=1
        ).ravel()
        queries = pool[:n_queries]
        search = InteractiveNNSearch(ds, FAST)
        batch = run_batch(search, queries, lambda qi: OracleUser(ds, qi))
        assert [e.query_index for e in batch.entries] == queries.tolist()
        for entry in batch.entries:
            qi = entry.query_index
            single = InteractiveNNSearch(ds, FAST).run(
                ds.points[qi], OracleUser(ds, qi)
            )
            assert np.array_equal(
                entry.result.neighbor_indices, single.neighbor_indices
            )
            assert np.array_equal(
                entry.result.probabilities, single.probabilities
            )
            assert entry.result.reason == single.reason

    def test_duplicate_query_indices_supported(self, small_clustered):
        """neighbors_of resolves duplicates to a single (last) entry."""
        ds = small_clustered.dataset
        qi = int(ds.cluster_indices(0)[0])
        search = InteractiveNNSearch(ds, FAST)
        batch = run_batch(
            search, np.array([qi, qi]), lambda q: OracleUser(ds, q)
        )
        assert batch.query_count == 2
        assert np.array_equal(
            batch.entries[0].neighbors, batch.entries[1].neighbors
        )
        assert np.array_equal(
            batch.neighbors_of(qi), batch.entries[1].neighbors
        )

    def test_entry_of_returns_full_entry(self, small_clustered):
        ds = small_clustered.dataset
        queries = ds.cluster_indices(0)[:2]
        search = InteractiveNNSearch(ds, FAST)
        batch = run_batch(search, queries, lambda qi: OracleUser(ds, qi))
        entry = batch.entry_of(int(queries[1]))
        assert entry.query_index == int(queries[1])
        with pytest.raises(ConfigurationError):
            batch.entry_of(-1)
