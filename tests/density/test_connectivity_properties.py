"""Property-based tests for grid connectivity (hypothesis).

Covers the reference flood fill's structural invariants (transposition
symmetry, seed membership, threshold monotonicity) and pins the merge
tree's regions and component counts to that reference on random grids
*and* on real density-grid corner tests.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.density.connectivity import (
    MIN_CORNERS_ABOVE,
    connected_region,
    region_count_at,
)
from repro.density.grid import DensityGrid
from repro.density.merge_tree import MergeTree
from tests.density import flood_fill_oracle as oracle
from tests.density.flood_fill_oracle import count_components, flood_fill_mask


@st.composite
def boolean_grids(draw):
    """Random boolean grids of varied shape and fill fraction."""
    rows = draw(st.integers(min_value=1, max_value=14))
    cols = draw(st.integers(min_value=1, max_value=14))
    fill = draw(st.floats(min_value=0.0, max_value=1.0))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    return rng.random((rows, cols)) < fill


@st.composite
def grids_with_seed_cell(draw):
    """A random boolean grid plus a cell index inside it."""
    q = draw(boolean_grids())
    i = draw(st.integers(min_value=0, max_value=q.shape[0] - 1))
    j = draw(st.integers(min_value=0, max_value=q.shape[1] - 1))
    return q, (i, j)


@st.composite
def point_clouds(draw):
    """Small random 2-D point clouds (for real DensityGrid cases)."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=10, max_value=60))
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(n, 2))


# ----------------------------------------------------------------------
# Reference flood fill invariants
# ----------------------------------------------------------------------
@given(grids_with_seed_cell())
@settings(max_examples=60, deadline=None)
def test_flood_fill_transposition_invariance(case):
    """Filling the transposed grid from the swapped seed transposes."""
    q, (i, j) = case
    direct = flood_fill_mask(q, (i, j))
    transposed = flood_fill_mask(q.T, (j, i))
    assert np.array_equal(transposed, direct.T)


@given(grids_with_seed_cell())
@settings(max_examples=60, deadline=None)
def test_flood_fill_seed_membership(case):
    """The seed is in its own region iff it qualifies; mask ⊆ qualifies."""
    q, cell = case
    mask = flood_fill_mask(q, cell)
    assert mask[cell] == q[cell]
    if not q[cell]:
        assert not mask.any()
    # The fill never escapes the qualifying set.
    assert not np.any(mask & ~q)


@given(grids_with_seed_cell())
@settings(max_examples=60, deadline=None)
def test_flood_fill_idempotent_on_own_region(case):
    """Re-filling from any member cell reproduces the same region."""
    q, cell = case
    mask = flood_fill_mask(q, cell)
    members = np.argwhere(mask)
    if members.size == 0:
        return
    other = tuple(int(v) for v in members[len(members) // 2])
    assert np.array_equal(flood_fill_mask(q, other), mask)


@given(grids_with_seed_cell(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_flood_fill_monotone_in_threshold(case, keep):
    """Shrinking the qualifying set never grows the region (τ monotone).

    ``qualifies`` at a higher noise threshold is always a subset of the
    lower-threshold set; the region from the same seed must shrink with
    it.  We model the τ sweep directly as a nested pair of masks.
    """
    q_lo, cell = case
    rng = np.random.default_rng(int(keep * 10_000))
    q_hi = q_lo & (rng.random(q_lo.shape) < keep)  # nested: q_hi ⊆ q_lo
    q_hi[cell] = q_lo[cell]  # keep the seed's own status comparable
    mask_hi = flood_fill_mask(q_hi, cell)
    mask_lo = flood_fill_mask(q_lo, cell)
    assert np.all(mask_lo[mask_hi])


@given(point_clouds(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=25, deadline=None)
def test_region_monotone_in_tau_on_real_grids(points, frac):
    """On a real density grid, R(τ_hi, Q) ⊆ R(τ_lo, Q)."""
    grid = DensityGrid(points, resolution=12)
    query = points[0]
    peak = float(grid.density.max())
    lo = connected_region(grid, query, 0.4 * frac * peak)
    hi = connected_region(grid, query, frac * peak)
    assert np.all(lo.mask[hi.mask])


# ----------------------------------------------------------------------
# Merge tree vs the reference flood fill
# ----------------------------------------------------------------------
def _tree_of(q: np.ndarray) -> MergeTree:
    """Merge tree whose qualifying set at ``tau = 0.5`` is exactly *q*."""
    return MergeTree.from_births(np.where(q, 1.0, 0.0))


@given(boolean_grids())
@settings(max_examples=60, deadline=None)
def test_merge_tree_regions_match_flood_fill_partition(q):
    """Each merge-tree region is exactly one flood-fill region."""
    tree = _tree_of(q)
    seen = np.zeros_like(q, dtype=bool)
    for i, j in np.argwhere(q):
        if seen[i, j]:
            continue
        region = flood_fill_mask(q, (int(i), int(j)))
        seen |= region
        assert np.array_equal(tree.region_at(0.5, (int(i), int(j))), region)
    assert np.array_equal(seen, q)


@given(boolean_grids())
@settings(max_examples=80, deadline=None)
def test_merge_tree_component_count_equals_bfs(q):
    """The merge tree's count agrees with the reference sweep everywhere."""
    assert _tree_of(q).component_count_at(0.5) == count_components(q)


@given(point_clouds(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=20, deadline=None)
def test_region_count_methods_agree_on_real_grids(points, frac):
    """Merge-tree and flood-fill region counts agree on corner-test grids."""
    grid = DensityGrid(points, resolution=12)
    tau = frac * float(grid.density.max())
    assert region_count_at(grid, tau) == oracle.region_count_at(grid, tau)


def test_component_count_on_hand_built_grid():
    """Three components, one of them joined only along the bottom row."""
    q = np.array(
        [
            [1, 1, 0, 1],
            [0, 1, 0, 1],
            [1, 0, 0, 0],
            [1, 1, 1, 1],
        ],
        dtype=bool,
    )
    assert count_components(q) == 3
    tree = _tree_of(q)
    assert tree.component_count_at(0.5) == 3
    assert tree.region_at(0.5, (2, 0))[3, 3]
    assert not tree.region_at(0.5, (0, 0))[0, 3]


def test_corner_test_qualifying_grid_roundtrip(blob_2d):
    """End-to-end: corner-test grids feed both counters identically."""
    points, _ = blob_2d
    grid = DensityGrid(points, resolution=20)
    for frac in (0.0, 0.1, 0.3, 0.7):
        tau = frac * float(grid.density.max())
        qualifies = grid.corners_above(tau) >= MIN_CORNERS_ABOVE
        assert region_count_at(grid, tau) == count_components(qualifies)
