"""Property-based parity tests for the merge-tree connectivity subsystem.

The contract locked in here is the tentpole of ROADMAP item 2: every
answer the :class:`repro.density.merge_tree.MergeTree` gives — region
masks, component counts, full τ-sweeps — must be **element-identical**
to the BFS flood fill over the Definition-2.2 qualifying set (the
reference oracle in ``tests/density/flood_fill_oracle.py``), for every
``tau`` including exact birth-level boundaries and tie-heavy grids.

Golden-journal replay parity (the committed flight-recorder baseline
re-executing byte-identically through the merge-tree path) is covered
by ``tests/obs/test_replay.py::test_committed_golden_journal``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.density.connectivity import (
    MIN_CORNERS_ABOVE,
    connected_region,
    points_in_region,
    region_count_at,
)
from repro.density.grid import DensityGrid
from repro.density.merge_tree import MergeTree, cell_birth_levels
from repro.density.profiles import VisualProfile
from repro.exceptions import ConfigurationError, DimensionalityError
from repro.obs.metrics import REGISTRY
from tests.density import flood_fill_oracle as oracle
from tests.density.flood_fill_oracle import count_components, flood_fill_mask


@st.composite
def density_arrays(draw):
    """Random ``(p, p)`` density arrays; half are tie-heavy integers."""
    p = draw(st.integers(min_value=2, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    ties = draw(st.booleans())
    rng = np.random.default_rng(seed)
    if ties:
        # Small integer range forces many equal birth levels, the case
        # where sweep ordering could plausibly diverge from the BFS.
        return rng.integers(0, 4, size=(p, p)).astype(float)
    return rng.random((p, p))


def _taus_for(births: np.ndarray, rng: np.random.Generator) -> list[float]:
    """Thresholds probing the interesting range, boundaries included."""
    taus = [-1.0, 0.0, float(births.min()), float(births.max()), 1.0]
    # Exact birth levels exercise the strict-inequality boundary.
    flat = np.unique(births.ravel())
    taus.extend(float(t) for t in rng.choice(flat, size=min(3, flat.size)))
    taus.extend(float(t) for t in rng.uniform(births.min() - 0.1, births.max() + 0.1, 3))
    return taus


# ----------------------------------------------------------------------
# Core parity: merge tree == BFS flood fill, for all tau
# ----------------------------------------------------------------------
@given(density_arrays(), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_region_masks_match_flood_fill(density, seed):
    """``region_at(tau, cell)`` equals the BFS mask for every probed tau."""
    rng = np.random.default_rng(seed)
    births = cell_birth_levels(density)
    tree = MergeTree.from_density(density)
    rows, cols = births.shape
    cell = (int(rng.integers(rows)), int(rng.integers(cols)))
    for tau in _taus_for(births, rng):
        qualifies = births > tau
        expected = flood_fill_mask(qualifies, cell)
        got = tree.region_at(tau, cell)
        assert np.array_equal(got, expected), (
            f"mask mismatch at tau={tau} cell={cell}"
        )


@given(density_arrays(), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_component_counts_match_reference(density, seed):
    """``component_count_at`` equals ``count_components`` for every tau."""
    rng = np.random.default_rng(seed)
    births = cell_birth_levels(density)
    tree = MergeTree.from_density(density)
    for tau in _taus_for(births, rng):
        expected = count_components(births > tau)
        assert tree.component_count_at(tau) == expected, f"tau={tau}"


@given(density_arrays(), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_region_sweep_is_tau_monotone_and_consistent(density, seed):
    """Sweep rows equal per-tau lookups and nest as tau rises."""
    rng = np.random.default_rng(seed)
    births = cell_birth_levels(density)
    tree = MergeTree.from_density(density)
    rows, cols = births.shape
    cell = (int(rng.integers(rows)), int(rng.integers(cols)))
    taus = np.sort(np.asarray(_taus_for(births, rng)))
    stack = tree.region_sweep(taus, cell)
    assert stack.shape == (taus.size, rows, cols)
    for pos, tau in enumerate(taus):
        assert np.array_equal(stack[pos], tree.region_at(tau, cell))
        if pos:
            # Higher tau never adds cells: R(tau_hi) subset of R(tau_lo).
            assert np.all(stack[pos - 1][stack[pos]])


@given(density_arrays())
@settings(max_examples=40, deadline=None)
def test_component_counts_vectorized_matches_scalar(density):
    births = cell_birth_levels(density)
    tree = MergeTree.from_density(density)
    taus = np.unique(np.concatenate([births.ravel(), [-1.0, births.max() + 1.0]]))
    counts = tree.component_counts(taus)
    assert counts.tolist() == [tree.component_count_at(t) for t in taus]


@given(density_arrays(), st.floats(min_value=-0.5, max_value=1.5))
@settings(max_examples=40, deadline=None)
def test_birth_levels_encode_corner_test(density, tau):
    """``tau < birth`` is exactly Definition 2.2's 3-corner test."""
    grid_qualifies = (
        np.stack(
            [
                density[:-1, :-1] > tau,
                density[1:, :-1] > tau,
                density[:-1, 1:] > tau,
                density[1:, 1:] > tau,
            ]
        ).sum(axis=0)
        >= MIN_CORNERS_ABOVE
    )
    assert np.array_equal(cell_birth_levels(density) > tau, grid_qualifies)


# ----------------------------------------------------------------------
# End-to-end on real DensityGrid objects
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=20, deadline=None)
def test_connected_region_methods_identical(seed, frac):
    """``connected_region`` merge-tree vs BFS: same mask, seeded, cell."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 1.0, size=(40, 2))
    grid = DensityGrid(points, resolution=10)
    query = points[int(rng.integers(points.shape[0]))]
    tau = frac * float(grid.density.max())
    fast = connected_region(grid, query, tau)
    reference = oracle.connected_region(grid, query, tau)
    assert np.array_equal(fast.mask, reference.mask)
    assert fast.seeded == reference.seeded
    assert fast.query_cell == reference.query_cell
    assert fast.threshold == reference.threshold


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_cluster_sweep_matches_per_tau_bfs(seed):
    """One profile sweep equals the per-threshold BFS cluster masks."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(60, 2))
    profile = VisualProfile.build(points, points[0], resolution=12)
    peak = float(profile.grid.density.max())
    taus = np.linspace(0.0, peak, 9)
    sizes, masks = profile.cluster_sweep(points, taus)
    for pos, tau in enumerate(taus):
        region = oracle.connected_region(profile.grid, profile.query_2d, float(tau))
        expected = points_in_region(profile.grid, region, points)
        assert np.array_equal(masks[pos], expected), f"tau={tau}"
        assert sizes[pos] == int(expected.sum())


def test_cluster_size_curve_unchanged_semantics():
    rng = np.random.default_rng(7)
    points = rng.normal(size=(50, 2))
    profile = VisualProfile.build(points, points[0], resolution=10)
    taus = np.linspace(0.0, float(profile.grid.density.max()), 6)
    curve = profile.cluster_size_curve(points, taus)
    expected = [
        profile.query_cluster_indices(points, float(t)).size for t in taus
    ]
    assert curve.tolist() == expected
    # Non-increasing in tau, as documented.
    assert all(curve[i] >= curve[i + 1] for i in range(curve.size - 1))


# ----------------------------------------------------------------------
# Lifecycle: lazy build, pickling
# ----------------------------------------------------------------------
def test_grid_merge_tree_is_lazy_and_sticky():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(30, 2))
    grid = DensityGrid(points, resolution=8)
    tree = grid.merge_tree
    assert isinstance(tree, MergeTree)
    assert grid.merge_tree is tree  # pinned on the instance
    assert tree.shape == (7, 7)
    assert np.array_equal(tree.births, cell_birth_levels(grid.density))


def test_merge_tree_pickle_roundtrip():
    rng = np.random.default_rng(2)
    density = rng.random((9, 9))
    tree = MergeTree.from_density(density)
    clone = pickle.loads(pickle.dumps(tree))
    cell = (3, 4)
    for tau in (0.0, 0.25, 0.5, float(density.max())):
        assert np.array_equal(
            clone.region_at(tau, cell), tree.region_at(tau, cell)
        )
        assert clone.component_count_at(tau) == tree.component_count_at(tau)


def test_merge_tree_validates_inputs():
    with pytest.raises(DimensionalityError):
        cell_birth_levels(np.arange(4.0))
    with pytest.raises(DimensionalityError):
        cell_birth_levels(np.ones((1, 5)))
    tree = MergeTree.from_density(np.random.default_rng(3).random((5, 5)))
    with pytest.raises(ConfigurationError):
        tree.region_at(0.1, (4, 0))  # cell grid is 4x4
    with pytest.raises(ConfigurationError):
        tree.merge_levels_from((-1, 0))


def test_connected_region_rejects_unknown_method():
    """The merge tree is the only path: no ``method=`` selects another."""
    rng = np.random.default_rng(5)
    points = rng.normal(size=(20, 2))
    grid = DensityGrid(points, resolution=6)
    for method in ("magic", "bfs"):
        with pytest.raises(TypeError):
            connected_region(grid, points[0], 0.1, method=method)
        with pytest.raises(TypeError):
            region_count_at(grid, 0.1, method=method)


# ----------------------------------------------------------------------
# Counter family
# ----------------------------------------------------------------------
def test_region_count_default_is_merge_tree():
    rng = np.random.default_rng(6)
    points = rng.normal(size=(40, 2))
    grid = DensityGrid(points, resolution=10)
    lookups = REGISTRY.counter("connectivity.merge_tree.lookups")
    before = lookups.value
    region_count_at(grid, 0.2)
    assert lookups.value > before
