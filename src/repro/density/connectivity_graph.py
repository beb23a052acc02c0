"""Exact point-level density connectivity (Definition 2.1).

The paper computes density connectivity on the ``p x p`` grid
(Definition 2.2) to avoid evaluating the density at every data point.
This module provides the *exact* alternative for validation and for
small data sets: a point ``x`` is density connected to ``Q`` at noise
threshold ``tau`` when a path of data points exists from ``x`` to ``Q``
such that consecutive points are within a connection radius and every
point on the path has density at least ``tau``.

The path graph is the radius graph over the qualifying points (density
>= tau), with the radius defaulting to twice the KDE bandwidth scale —
the distance within which the kernel makes two points' densities
support each other.  The radius graph comes from a k-d tree and its
connected components from ``scipy.sparse.csgraph``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from repro.density.kde import KernelDensityEstimator
from repro.exceptions import ConfigurationError, DimensionalityError


@dataclass(frozen=True)
class ExactRegion:
    """The exact density-connected neighborhood of a query.

    Attributes
    ----------
    member_mask:
        Boolean mask over the input points; True = density connected to
        the query at the threshold.
    qualifying_count:
        Number of points whose density cleared the threshold (the
        region is the query's connected component among these).
    query_qualifies:
        Whether the query point itself cleared the threshold (when not,
        the region is empty).
    """

    member_mask: np.ndarray
    qualifying_count: int
    query_qualifies: bool

    @property
    def member_count(self) -> int:
        """Number of density-connected points."""
        return int(self.member_mask.sum())


def exact_density_connected(
    points: np.ndarray,
    query: np.ndarray,
    threshold: float,
    *,
    estimator: KernelDensityEstimator | None = None,
    radius: float | None = None,
) -> ExactRegion:
    """Definition 2.1 evaluated exactly on the data points.

    Parameters
    ----------
    points:
        ``(n, dim)`` points (any dimensionality — typically the 2-D
        projection, but the definition is dimension-agnostic).
    query:
        The query point's coordinates.
    threshold:
        Noise threshold ``tau``.
    estimator:
        Optional pre-fit KDE over *points*; fit with defaults otherwise.
    radius:
        Connection radius for the path graph.  Defaults to twice the
        estimator's largest per-dimension bandwidth.

    Returns
    -------
    ExactRegion
    """
    pts = np.asarray(points, dtype=float)
    q = np.asarray(query, dtype=float)
    if pts.ndim != 2:
        raise DimensionalityError("points must be (n, dim)")
    if q.shape != (pts.shape[1],):
        raise DimensionalityError(
            f"query must have shape ({pts.shape[1]},), got {q.shape}"
        )
    kde = estimator or KernelDensityEstimator(pts)
    if radius is None:
        radius = 2.0 * float(np.max(kde.bandwidth))
    if radius <= 0:
        raise ConfigurationError("radius must be positive")

    densities = kde.evaluate(pts)
    query_density = float(kde.evaluate(q))
    qualifies = densities >= threshold
    member_mask = np.zeros(pts.shape[0], dtype=bool)
    if query_density < threshold or not qualifies.any():
        return ExactRegion(
            member_mask=member_mask,
            qualifying_count=int(qualifies.sum()),
            query_qualifies=query_density >= threshold,
        )

    nodes = np.flatnonzero(qualifies)
    coords = pts[nodes]
    tree = cKDTree(coords)
    # The query joins the component of any qualifying point within the
    # connection radius of it.
    seeds = np.asarray(tree.query_ball_point(q, radius), dtype=int)
    if seeds.size == 0:
        return ExactRegion(
            member_mask=member_mask,
            qualifying_count=int(nodes.size),
            query_qualifies=True,
        )
    # Radius graph over the qualifying points.
    pairs = tree.query_pairs(radius, output_type="ndarray")
    graph = coo_matrix(
        (np.ones(len(pairs), dtype=np.int8), (pairs[:, 0], pairs[:, 1])),
        shape=(nodes.size, nodes.size),
    )
    _, labels = connected_components(graph, directed=False)
    member_mask[nodes[np.isin(labels, labels[seeds])]] = True
    return ExactRegion(
        member_mask=member_mask,
        qualifying_count=int(nodes.size),
        query_qualifies=True,
    )


def grid_vs_exact_agreement(
    points_2d: np.ndarray,
    query_2d: np.ndarray,
    threshold: float,
    *,
    resolution: int = 40,
) -> float:
    """Jaccard agreement between the grid and exact connectivity.

    A validation utility for the Definition 2.2 approximation: runs
    both methods on the same 2-D data and returns
    ``|grid ∩ exact| / |grid ∪ exact|`` (1.0 when either both are empty
    or they agree perfectly).
    """
    from repro.density.connectivity import connected_region, points_in_region
    from repro.density.grid import DensityGrid

    pts = np.asarray(points_2d, dtype=float)
    q = np.asarray(query_2d, dtype=float)
    grid = DensityGrid(pts, resolution=resolution, include=q)
    region = connected_region(grid, q, threshold)
    grid_mask = points_in_region(grid, region, pts)
    exact = exact_density_connected(
        pts, q, threshold, estimator=grid.estimator
    )
    union = np.logical_or(grid_mask, exact.member_mask).sum()
    if union == 0:
        return 1.0
    intersection = np.logical_and(grid_mask, exact.member_mask).sum()
    return float(intersection / union)
