"""Density connectivity — Definitions 2.1 and 2.2 of the paper.

A point ``x`` is *density connected* to the query ``Q`` at noise
threshold ``tau`` when a path from ``x`` to ``Q`` exists along which the
density never drops below ``tau``.  The paper approximates this on the
``p x p`` grid: the region ``R(tau, Q)`` is the set of elementary
rectangles reachable from the rectangle containing ``Q`` through
4-adjacent rectangles each having at least three corners above ``tau``;
data points inside any member rectangle form the query cluster.

The paper computes ``R(tau, Q)`` with a flood fill per threshold.  Here
:func:`connected_region` and :func:`region_count_at` answer from the
grid's precomputed :class:`~repro.density.merge_tree.MergeTree`: one
union-find sweep per grid, element-identical to the flood fill for
every ``tau`` (the property suites compare it against a reference flood
fill kept in ``tests/``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.density.grid import DensityGrid
from repro.exceptions import DimensionalityError

#: Definition 2.2 requires at least this many corners above threshold.
MIN_CORNERS_ABOVE = 3


@dataclass(frozen=True)
class ConnectedRegion:
    """The region ``R(tau, Q)`` of a density grid.

    Attributes
    ----------
    mask:
        ``(p-1, p-1)`` boolean array flagging member rectangles.
    threshold:
        The noise threshold ``tau`` used.
    query_cell:
        The ``(i, j)`` cell containing the query point.
    seeded:
        False when the query's own rectangle failed the corner test, in
        which case the region is empty (the query sits in noise at this
        threshold).
    """

    mask: np.ndarray
    threshold: float
    query_cell: tuple[int, int]
    seeded: bool

    @property
    def cell_count(self) -> int:
        """Number of rectangles in the region."""
        return int(self.mask.sum())

    @property
    def is_empty(self) -> bool:
        """True when no rectangle qualified."""
        return not bool(self.mask.any())


def connected_region(
    grid: DensityGrid, query: np.ndarray, threshold: float
) -> ConnectedRegion:
    """Compute ``R(tau, Q)`` (paper §2.3).

    The mask comes from the grid's precomputed
    :class:`~repro.density.merge_tree.MergeTree` — an ``O(p²)``
    single-source pass amortized over every threshold ever asked of
    this grid.

    Parameters
    ----------
    grid:
        Density grid of the current 2-D projection.
    query:
        The query point's 2-D coordinates in the projection.
    threshold:
        Noise threshold ``tau``.  ``tau <= 0`` marks every rectangle
        whose corner test passes trivially — with a strictly positive
        density floor the whole grid becomes one region, matching the
        paper's remark that ``tau = 0`` includes all points.

    Returns
    -------
    ConnectedRegion
    """
    q = np.asarray(query, dtype=float)
    if q.shape != (2,):
        raise DimensionalityError("query must be a 2-vector in the projection")
    start = grid.cell_of(q)
    mask = grid.merge_tree.region_at(threshold, start)
    return ConnectedRegion(
        mask=mask,
        threshold=threshold,
        query_cell=start,
        seeded=bool(mask[start]),
    )


def points_in_region(
    grid: DensityGrid, region: ConnectedRegion, points: np.ndarray
) -> np.ndarray:
    """Boolean membership of each 2-D point in the region's rectangles."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DimensionalityError("points must be (n, 2)")
    if region.is_empty:
        return np.zeros(pts.shape[0], dtype=bool)
    cells = grid.cells_of(pts)
    return region.mask[cells[:, 0], cells[:, 1]]


def density_connected_points(
    grid: DensityGrid,
    query: np.ndarray,
    threshold: float,
    points: np.ndarray,
) -> np.ndarray:
    """Indices of *points* density-connected to *query* at *threshold*.

    Convenience wrapper: region lookup plus membership test, returning the
    integer indices of the query cluster within *points*.
    """
    region = connected_region(grid, query, threshold)
    member = points_in_region(grid, region, points)
    return np.flatnonzero(member)


def region_count_at(grid: DensityGrid, threshold: float) -> int:
    """Number of distinct connected regions at *threshold*.

    Used by diagnostics and the heuristic user: a well-clustered
    projection shows a few crisp regions; noise shows either one blob
    (low tau) or many specks (high tau).  Answered with two binary
    searches in the grid's precomputed merge tree (``births above tau``
    minus ``merges above tau``) — sweeping a threshold ladder costs
    nothing beyond the one-time tree build.
    """
    return grid.merge_tree.component_count_at(threshold)
