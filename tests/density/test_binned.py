"""Grid-binned KDE: error bounds, counters, connectivity.

The load-bearing guarantee is :func:`repro.density.binned.
binned_error_bound`: the docstring derives a rigorous uniform bound on
``max |f_binned - f_exact|`` and the hypothesis suite here holds the
implementation to it on random clouds, bandwidths, and grids.  The
connectivity tests check that the downstream consumers — merge-tree
region counting and the BFS reference — agree on binned grids exactly
as they do on exact ones.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import KDE_MODES
from repro.density.binned import (
    DEFAULT_TRUNCATE,
    BinnedHistogram,
    binned_density_grid,
    binned_error_bound,
)
from repro.density.cache import disabled_density_cache
from repro.density.connectivity import region_count_at
from repro.density.grid import DensityGrid
from repro.density.kde import KernelDensityEstimator
from repro.exceptions import ConfigurationError, DimensionalityError
from repro.obs.metrics import counter_values
from tests.density import flood_fill_oracle as oracle


def _grid_axes(points, resolution, padding=0.05):
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    extent = np.maximum(hi - lo, 1e-9)
    lo = lo - padding * extent
    hi = hi + padding * extent
    return (
        np.linspace(lo[0], hi[0], resolution),
        np.linspace(lo[1], hi[1], resolution),
    )


@st.composite
def binned_cases(draw):
    """Random cloud + bandwidth + grid resolution for bound checks."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=5, max_value=400))
    resolution = draw(st.integers(min_value=16, max_value=48))
    hx = draw(st.floats(min_value=0.05, max_value=0.6))
    hy = draw(st.floats(min_value=0.05, max_value=0.6))
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    return pts, np.array([hx, hy]), resolution


# ----------------------------------------------------------------------
# The documented error bound holds
# ----------------------------------------------------------------------
@given(binned_cases())
@settings(max_examples=60, deadline=None)
def test_binned_error_within_documented_bound(case):
    """max |f_binned - f_exact| <= binned_error_bound, always."""
    pts, h, resolution = case
    gx, gy = _grid_axes(pts, resolution)
    with disabled_density_cache():
        exact = KernelDensityEstimator(pts, bandwidth=h).evaluate_on_grid(
            gx, gy
        )
        binned = binned_density_grid(pts, h, gx, gy)
    bound = binned_error_bound(h, float(gx[1] - gx[0]), float(gy[1] - gy[0]))
    assert np.max(np.abs(binned - exact)) <= bound + 1e-12


@given(binned_cases(), st.floats(min_value=1.0, max_value=6.0))
@settings(max_examples=30, deadline=None)
def test_binned_error_bound_holds_for_any_truncate(case, truncate):
    """The truncation-tail term covers aggressive tap dropping too."""
    pts, h, resolution = case
    gx, gy = _grid_axes(pts, resolution)
    with disabled_density_cache():
        exact = KernelDensityEstimator(pts, bandwidth=h).evaluate_on_grid(
            gx, gy
        )
        binned = binned_density_grid(pts, h, gx, gy, truncate=truncate)
    bound = binned_error_bound(
        h, float(gx[1] - gx[0]), float(gy[1] - gy[0]), truncate=truncate
    )
    assert np.max(np.abs(binned - exact)) <= bound + 1e-12


def test_bound_shrinks_as_grid_refines():
    """Refining the grid tightens the snapping term linearly."""
    h = np.array([0.2, 0.2])
    coarse = binned_error_bound(h, 0.1, 0.1)
    fine = binned_error_bound(h, 0.01, 0.01)
    assert fine < coarse
    # The tail term is truncate-controlled, not grid-controlled.
    assert binned_error_bound(h, 0.01, 0.01, truncate=2.0) > fine


# ----------------------------------------------------------------------
# Histogram mechanics
# ----------------------------------------------------------------------
def test_histogram_conserves_mass_and_reblurs(blob_2d):
    points, _ = blob_2d
    gx, gy = _grid_axes(points, 32)
    hist = BinnedHistogram(points, gx, gy)
    assert hist.counts.sum() == pytest.approx(points.shape[0])
    assert hist.total_weight == pytest.approx(points.shape[0])
    dx, dy = hist.cell_size
    assert dx == pytest.approx(float(gx[1] - gx[0]))
    assert dy == pytest.approx(float(gy[1] - gy[0]))
    # Re-blurring the retained histogram == one-shot evaluation.
    for h in (np.array([0.2, 0.3]), np.array([0.4, 0.1])):
        assert np.array_equal(
            hist.blur(h), binned_density_grid(points, h, gx, gy)
        )


def test_uniform_weights_match_unweighted(blob_2d):
    points, _ = blob_2d
    gx, gy = _grid_axes(points, 24)
    h = np.array([0.25, 0.25])
    unweighted = binned_density_grid(points, h, gx, gy)
    weighted = binned_density_grid(
        points, h, gx, gy, weights=np.full(points.shape[0], 3.0)
    )
    assert np.allclose(weighted, unweighted)


def test_histogram_input_validation():
    pts = np.random.default_rng(0).uniform(size=(20, 2))
    gx = np.linspace(0, 1, 10)
    with pytest.raises(DimensionalityError):
        BinnedHistogram(pts[:, :1], gx, gx)
    with pytest.raises(ConfigurationError):
        BinnedHistogram(pts, gx[:1], gx)
    with pytest.raises(ConfigurationError):
        BinnedHistogram(pts, gx, gx, weights=np.ones(3))
    with pytest.raises(ConfigurationError):
        BinnedHistogram(pts, gx, gx, weights=np.zeros(20))
    hist = BinnedHistogram(pts, gx, gx)
    with pytest.raises(ConfigurationError):
        hist.blur(np.array([0.1, 0.1, 0.1]))
    with pytest.raises(ConfigurationError):
        hist.blur(np.array([0.1, -0.1]))
    with pytest.raises(ConfigurationError):
        hist.blur(np.array([0.1, 0.1]), truncate=0.0)
    with pytest.raises(ConfigurationError):
        binned_error_bound(np.array([0.1, 0.0]), 0.01, 0.01)


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
def test_binned_counters_track_work(blob_2d):
    points, _ = blob_2d
    gx, gy = _grid_axes(points, 20)
    before = counter_values()
    binned_density_grid(points, np.array([0.2, 0.2]), gx, gy)
    after = counter_values()
    assert after["kde.binned.cells"] - before["kde.binned.cells"] == 400
    assert after["kde.binned.evals"] - before["kde.binned.evals"] == 1

# ----------------------------------------------------------------------
# DensityGrid / estimator integration
# ----------------------------------------------------------------------
def test_density_grid_binned_mode_within_bound(blob_2d):
    points, _ = blob_2d
    with disabled_density_cache():
        exact = DensityGrid(points, resolution=30)
        binned = DensityGrid(points, resolution=30, mode="binned")
    assert exact.mode == "exact"
    assert binned.mode == "binned"
    assert np.array_equal(binned.grid_x, exact.grid_x)
    h = exact.estimator.bandwidth
    bound = binned_error_bound(
        h,
        float(exact.grid_x[1] - exact.grid_x[0]),
        float(exact.grid_y[1] - exact.grid_y[0]),
    )
    assert np.max(np.abs(binned.density - exact.density)) <= bound + 1e-12


def test_mode_validation():
    pts = np.random.default_rng(1).uniform(size=(30, 2))
    assert KDE_MODES == ("exact", "binned")
    with pytest.raises(ConfigurationError):
        DensityGrid(pts, resolution=10, mode="subsampled")
    est = KernelDensityEstimator(pts)
    with pytest.raises(ConfigurationError):
        est.evaluate_on_grid(
            np.linspace(0, 1, 5), np.linspace(0, 1, 5), mode="magic"
        )


def test_cache_keys_are_mode_tagged(blob_2d):
    from repro.density.cache import DensityGridCache

    points, _ = blob_2d
    gx, gy = _grid_axes(points, 16)
    cache = DensityGridCache()
    h = np.array([0.2, 0.2])
    exact_key = cache.key_for(points, h, gx, gy)
    binned_key = cache.key_for(points, h, gx, gy, mode="binned")
    assert exact_key != binned_key
    assert exact_key == cache.key_for(points, h, gx, gy, mode="exact")


# ----------------------------------------------------------------------
# Connectivity agrees on binned grids
# ----------------------------------------------------------------------
@given(binned_cases(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=25, deadline=None)
def test_merge_tree_matches_bfs_on_binned_grids(case, frac):
    """Region counting is estimator-agnostic: binned grids agree too."""
    pts, _, resolution = case
    with disabled_density_cache():
        grid = DensityGrid(pts, resolution=min(resolution, 24), mode="binned")
    tau = frac * float(grid.density.max())
    assert region_count_at(grid, tau) == oracle.region_count_at(grid, tau)


@pytest.mark.slow
def test_merge_tree_matches_bfs_at_paper_scale():
    """Paper-scale binned grid (p=40): full tau sweep, merge tree vs BFS."""
    rng = np.random.default_rng(42)
    centers = np.array([[0.0, 0.0], [3.0, 1.0], [-2.0, 2.5]])
    pts = (
        centers[rng.integers(0, 3, size=20_000)]
        + rng.standard_normal((20_000, 2)) * 0.6
    )
    with disabled_density_cache():
        grid = DensityGrid(pts, resolution=40, mode="binned")
    peak = float(grid.density.max())
    for frac in np.linspace(0.0, 1.0, 9):
        tau = frac * peak
        assert region_count_at(grid, tau) == oracle.region_count_at(grid, tau)


def test_default_truncate_is_four_sigma():
    assert DEFAULT_TRUNCATE == 4.0
