"""Visual profiles — the artifacts shown to the user (paper Fig. 5).

A :class:`VisualProfile` packages everything a user (human or simulated)
needs to judge one 2-D projection: the density grid, the query's
location and density, and summary statistics that quantify how well the
query sits on a distinct peak.  A :class:`LateralDensityPlot` is the
paper's alternative scatter-of-fictitious-points view.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.density.connectivity import connected_region, points_in_region
from repro.density.grid import DensityGrid
from repro.exceptions import DimensionalityError
from repro.obs.metrics import counter
from repro.obs.trace import span

_PROFILES_BUILT = counter("profile.builds")
#: Shared with repro.density.merge_tree — the vectorized sweep below
#: answers one region query per threshold without going through
#: ``MergeTree.region_at``, so it accounts for its lookups itself.
_TREE_LOOKUPS = counter("connectivity.merge_tree.lookups")


@dataclass(frozen=True)
class ProfileStatistics:
    """Summary statistics of a projection's density profile.

    These quantify what a human reads off the surface plot:

    * ``query_density`` — density at the query point.
    * ``peak_density`` — maximum grid density.
    * ``median_density`` / ``mean_density`` — background level.
    * ``query_percentile`` — fraction of grid density values below the
      query's density.  Near 1.0 means the query sits on a peak
      (Fig. 9a); near 0 means it sits in a sparse region (Fig. 9b).
    * ``peak_to_median`` — peak sharpness; ~1 for uniform noise
      (Fig. 12), large for crisp clusters.
    * ``mean_point_density`` — average density at the *data points*
      (not grid nodes): the density a typical point experiences.  The
      ratio ``query_density / mean_point_density`` is the query's local
      contrast — near 1-2 for unclustered data of any shape, large when
      the query sits in a genuine cluster.
    """

    query_density: float
    peak_density: float
    median_density: float
    mean_density: float
    query_percentile: float
    peak_to_median: float
    mean_point_density: float

    @property
    def local_contrast(self) -> float:
        """``query_density / mean_point_density`` (see class docs)."""
        if self.mean_point_density <= 0:
            return float("inf") if self.query_density > 0 else 0.0
        return self.query_density / self.mean_point_density


@dataclass(frozen=True)
class VisualProfile:
    """One density view of a 2-D projection, as presented to the user.

    Attributes
    ----------
    grid:
        The underlying density grid.
    query_2d:
        Query coordinates in the projection.
    statistics:
        Precomputed :class:`ProfileStatistics`.
    """

    grid: DensityGrid
    query_2d: np.ndarray
    statistics: ProfileStatistics = field(hash=False)

    @classmethod
    def build(
        cls,
        projected_points: np.ndarray,
        query_2d: np.ndarray,
        *,
        resolution: int = 40,
        bandwidth_scale: float = 1.0,
        kde_mode: str = "exact",
    ) -> "VisualProfile":
        """Fit a density grid over the projected points and summarize it.

        Parameters
        ----------
        projected_points, query_2d:
            The 2-D projection's points and query coordinates.
        resolution:
            Grid points per axis (the paper's ``p``).
        bandwidth_scale:
            Multiplier on the Silverman bandwidths.  Silverman's rule
            assumes unimodal data and over-smooths the multimodal
            projections this system lives on; values below 1 sharpen
            cluster boundaries.
        kde_mode:
            Density evaluation strategy — ``"exact"`` (default) or
            ``"binned"`` (histogram + separable blur).  See
            :mod:`repro.density.binned` for the cost model and error
            bound.
        """
        q = np.asarray(query_2d, dtype=float)
        if q.shape != (2,):
            raise DimensionalityError("query_2d must be a 2-vector")
        pts = np.asarray(projected_points, dtype=float)
        _PROFILES_BUILT.inc()
        with span(
            "profile.build",
            n=int(pts.shape[0]),
            resolution=resolution,
            kde_mode=kde_mode,
        ):
            from repro.density.bandwidth import silverman_bandwidth
            from repro.density.kde import KernelDensityEstimator

            estimator = None
            if bandwidth_scale != 1.0:
                estimator = KernelDensityEstimator(
                    pts, bandwidth=bandwidth_scale * silverman_bandwidth(pts)
                )
            grid = DensityGrid(
                pts,
                resolution=resolution,
                include=q,
                estimator=estimator,
                mode=kde_mode,
            )
            with span("profile.statistics"):
                stats = compute_profile_statistics(grid, q, points=pts)
        return cls(grid=grid, query_2d=q, statistics=stats)

    def exact_statistics(self, projected_points: np.ndarray) -> ProfileStatistics:
        """Recompute the profile statistics with exact per-point KDE.

        The approximate mode (``kde_mode="binned"``) trades grid fidelity for speed during the view-*search* phase;
        once a view is *accepted* its statistics enter the session audit
        trail, so the engine falls back to this exact recomputation for
        accepted views only.  The exact profile is rebuilt from the same
        inputs (same resolution, same grid bounds via the included
        query), consuming no randomness — replay determinism is
        unaffected.  On an already-exact profile this reproduces
        ``self.statistics`` bit-for-bit.
        """
        pts = np.asarray(projected_points, dtype=float)
        bandwidth = self.grid.estimator.bandwidth
        from repro.density.kde import KernelDensityEstimator

        estimator = KernelDensityEstimator(pts, bandwidth=bandwidth)
        with span("profile.exact_statistics", n=int(pts.shape[0])):
            grid = DensityGrid(
                pts,
                resolution=self.grid.resolution,
                include=self.query_2d,
                estimator=estimator,
            )
            return compute_profile_statistics(grid, self.query_2d, points=pts)

    def query_cluster_indices(
        self, projected_points: np.ndarray, threshold: float
    ) -> np.ndarray:
        """Indices of points density-connected to the query at *threshold*."""
        region = connected_region(self.grid, self.query_2d, threshold)
        member = points_in_region(self.grid, region, projected_points)
        return np.flatnonzero(member)

    def cluster_sweep(
        self, projected_points: np.ndarray, thresholds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Query-cluster membership for a whole threshold ladder at once.

        Returns ``(sizes, masks)``: ``sizes[t]`` is the cluster size at
        ``thresholds[t]`` and ``masks`` is a ``(len(thresholds), n)``
        boolean array whose row ``t`` equals the membership mask
        :meth:`query_cluster_indices` would produce at ``thresholds[t]``.

        One merge-tree single-source pass answers every threshold: a
        point joins the cluster at ``tau`` exactly when the merge level
        between its cell and the query's cell exceeds ``tau``, so the
        whole sweep is a single vectorized comparison — this is what
        makes the simulated users' τ line-search effectively free.
        """
        taus = np.asarray(thresholds, dtype=float)
        pts = np.asarray(projected_points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise DimensionalityError("projected_points must be (n, 2)")
        levels = self.grid.merge_tree.merge_levels_from(
            self.grid.cell_of(self.query_2d)
        )
        _TREE_LOOKUPS.inc(int(taus.size))
        cells = self.grid.cells_of(pts)
        point_levels = levels[cells[:, 0], cells[:, 1]]
        masks = point_levels[np.newaxis, :] > taus[:, np.newaxis]
        sizes = masks.sum(axis=1).astype(int)
        return sizes, masks

    def cluster_size_curve(
        self, projected_points: np.ndarray, thresholds: np.ndarray
    ) -> np.ndarray:
        """Query-cluster size as a function of noise threshold.

        Monotonically non-increasing in the threshold; used by simulated
        users to pick a knee and by diagnostics to characterize views.
        """
        sizes, _ = self.cluster_sweep(projected_points, thresholds)
        return sizes


def compute_profile_statistics(
    grid: DensityGrid,
    query_2d: np.ndarray,
    *,
    points: np.ndarray | None = None,
) -> ProfileStatistics:
    """Summarize a density grid relative to the query's position.

    When *points* (the projected data) is given, ``mean_point_density``
    is the mean interpolated density at those points; otherwise the
    grid mean is used as a fallback.

    Binned grids answer both per-point quantities from the grid alone,
    keeping the whole summary free of ``O(n)`` kernel work: the query
    density is bilinearly interpolated off the blurred surface (the
    same surface every other statistic describes), and the mean point
    density contracts the retained histogram against the density —
    algebraically identical to interpolating at every point.
    """
    density = grid.density
    q = np.asarray(query_2d, dtype=float)
    if grid.mode == "binned":
        query_density = float(grid.interpolate(q))
    else:
        query_density = float(grid.density_at(q[np.newaxis, :])[0])
    flat = density.ravel()
    peak = float(flat.max())
    median = float(np.median(flat))
    mean = float(flat.mean())
    percentile = float(np.mean(flat < query_density))
    peak_to_median = peak / median if median > 0 else float("inf")
    if points is None:
        mean_point_density = mean
    elif grid.histogram is not None:
        hist = grid.histogram
        mean_point_density = float(
            (hist.counts * density).sum() / hist.total_weight
        )
    else:
        mean_point_density = float(np.mean(grid.interpolate(points)))
    return ProfileStatistics(
        query_density=query_density,
        peak_density=peak,
        median_density=median,
        mean_density=mean,
        query_percentile=percentile,
        peak_to_median=peak_to_median,
        mean_point_density=mean_point_density,
    )


@dataclass(frozen=True)
class LateralDensityPlot:
    """Scatter of fictitious points sampled in proportion to density.

    The paper's Figures 1(a)-(c) are lateral plots of 500 such points.
    """

    samples: np.ndarray
    query_2d: np.ndarray

    @classmethod
    def build(
        cls,
        profile: VisualProfile,
        rng: np.random.Generator,
        *,
        count: int = 500,
    ) -> "LateralDensityPlot":
        """Draw *count* fictitious points from the profile's estimator."""
        samples = profile.grid.estimator.sample_lateral(count, rng)
        return cls(samples=samples, query_2d=profile.query_2d)
