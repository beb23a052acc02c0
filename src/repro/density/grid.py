"""The ``p x p`` density grid of Fig. 5 and its elementary rectangles.

The paper evaluates the kernel density at ``p^2`` grid points
``z_1 ... z_{p^2}`` and reasons about *elementary rectangles* — the
``(p-1)^2`` cells whose corners are adjacent grid points.  Definition
2.2 then builds the region ``R(tau, Q)`` out of those rectangles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.density.kde import KernelDensityEstimator
from repro.density.merge_tree import MergeTree
from repro.exceptions import ConfigurationError, DimensionalityError
from repro.obs.metrics import histogram
from repro.obs.trace import NULL_SPAN, span

#: KDE grid evaluation wall time; populated only while tracing is
#: active (the disabled path never reads a clock).
_GRID_EVAL_SECONDS = histogram("kde.grid.eval_seconds")


@dataclass(frozen=True)
class GridBounds:
    """Axis-aligned bounding box of a 2-D grid."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    def contains(self, point: np.ndarray) -> bool:
        """Whether a 2-D point lies inside (inclusive) the box."""
        x, y = float(point[0]), float(point[1])
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max


def _as_points(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DimensionalityError("DensityGrid requires (n, 2) points")
    return pts


def _check_mode(mode: str) -> None:
    if mode not in ("exact", "binned"):
        raise ConfigurationError(
            f"DensityGrid mode must be 'exact' or 'binned', got {mode!r}"
        )


class DensityGrid:
    """Kernel density evaluated on a ``p x p`` grid over 2-D points.

    Parameters
    ----------
    points:
        ``(n, 2)`` projected data points.
    resolution:
        Number of grid points per axis (the paper's ``p``).
    estimator:
        Optional pre-built KDE; by default one is fit to *points* with a
        Gaussian kernel and Silverman bandwidths.
    padding:
        Fraction of the data span added on each side, so density mass
        near the hull boundary is not clipped.
    include:
        Optional extra points (e.g. the query) that the grid bounds must
        cover even if they fall outside the data's bounding box.
    mode:
        Grid evaluation strategy: ``"exact"`` (default, the per-point
        KDE) or ``"binned"`` (linear binning + separable blur —
        ``O(n + p^2)`` with the error bound of
        :func:`repro.density.binned.binned_error_bound`).  Binned grids
        retain their :attr:`histogram` so consumers can form
        point-weighted grid aggregates, or re-blur, without another
        pass over the points.  Point evaluations (:meth:`density_at`)
        remain exact in either mode.
    """

    def __init__(
        self,
        points: np.ndarray,
        *,
        resolution: int = 40,
        estimator: KernelDensityEstimator | None = None,
        padding: float = 0.05,
        include: np.ndarray | None = None,
        mode: str = "exact",
    ) -> None:
        pts = _as_points(points)
        if resolution < 2:
            raise ConfigurationError("resolution must be at least 2")
        _check_mode(mode)
        estimator = estimator or KernelDensityEstimator(pts)

        cover = pts
        if include is not None:
            extra = np.asarray(include, dtype=float)
            if extra.ndim == 1:
                extra = extra[np.newaxis, :]
            cover = np.vstack([pts, extra])
        lo = cover.min(axis=0)
        hi = cover.max(axis=0)
        extent = np.maximum(hi - lo, 1e-12)
        lo = lo - padding * extent
        hi = hi + padding * extent
        grid_x = np.linspace(lo[0], hi[0], resolution)
        grid_y = np.linspace(lo[1], hi[1], resolution)
        histogram = None
        with span(
            "kde.grid", resolution=resolution, n=int(pts.shape[0]), mode=mode
        ) as grid_span:
            if mode == "binned":
                # Build (and keep) the linear-binned histogram here
                # rather than routing through the estimator's grid path:
                # the histogram-weighted statistics downstream read it.
                from repro.density.binned import BinnedHistogram

                histogram = BinnedHistogram(pts, grid_x, grid_y)
                density = histogram.blur(
                    estimator.bandwidth, kernel=estimator.kernel
                )
            else:
                density = estimator.evaluate_on_grid(grid_x, grid_y)
        if grid_span is not NULL_SPAN:
            _GRID_EVAL_SECONDS.observe(grid_span.wall)
        self._adopt(pts, estimator, mode, grid_x, grid_y, density, histogram)

    @classmethod
    def from_evaluated(
        cls,
        points: np.ndarray,
        grid_x: np.ndarray,
        grid_y: np.ndarray,
        density: np.ndarray,
        *,
        bandwidth: np.ndarray,
        mode: str = "exact",
    ) -> "DensityGrid":
        """Adopt a density already evaluated on the axes *grid_x*, *grid_y*.

        The counterpart of :meth:`__init__` for a grid computed
        elsewhere — the service ships its grids to remote clients, which
        rebuild them here without a kernel evaluation.  The estimator is
        refit to *points* with the given per-axis *bandwidth*, which
        costs ``O(1)``, so :meth:`density_at` and everything built on
        the estimator (exact statistics, lateral plots) still work.  The
        binned histogram is not carried over: :attr:`histogram` is
        ``None`` whatever the *mode*.
        """
        pts = _as_points(points)
        _check_mode(mode)
        gx = np.asarray(grid_x, dtype=float)
        gy = np.asarray(grid_y, dtype=float)
        values = np.asarray(density, dtype=float)
        if gx.ndim != 1 or gx.size < 2 or gy.shape != gx.shape:
            raise DimensionalityError(
                "grid axes must be two 1-D arrays of the same length >= 2"
            )
        if values.shape != (gx.size, gy.size):
            raise DimensionalityError(
                f"density must be {(gx.size, gy.size)}, got {values.shape}"
            )
        grid = cls.__new__(cls)
        grid._adopt(
            pts,
            KernelDensityEstimator(pts, bandwidth=bandwidth),
            mode,
            gx,
            gy,
            values,
            None,
        )
        return grid

    def _adopt(
        self,
        points: np.ndarray,
        estimator: KernelDensityEstimator,
        mode: str,
        grid_x: np.ndarray,
        grid_y: np.ndarray,
        density: np.ndarray,
        histogram,
    ) -> None:
        """The one place a grid's state is set, whoever evaluated it.

        The bounds are the axes' end points: ``np.linspace`` returns
        its start and stop exactly, so they equal the padded box the
        constructor computed.
        """
        self._points = points
        self._resolution = int(grid_x.size)
        self._mode = mode
        self._estimator = estimator
        self._bounds = GridBounds(grid_x[0], grid_x[-1], grid_y[0], grid_y[-1])
        self._grid_x = grid_x
        self._grid_y = grid_y
        self._density = density
        self._histogram = histogram
        self._merge_tree: MergeTree | None = None

    # ------------------------------------------------------------------
    @property
    def resolution(self) -> int:
        """Grid points per axis (``p``)."""
        return self._resolution

    @property
    def mode(self) -> str:
        """Grid evaluation strategy (``"exact"`` or ``"binned"``)."""
        return self._mode

    @property
    def bounds(self) -> GridBounds:
        """Bounding box covered by the grid."""
        return self._bounds

    @property
    def grid_x(self) -> np.ndarray:
        """X coordinates of grid points, ascending."""
        return self._grid_x

    @property
    def grid_y(self) -> np.ndarray:
        """Y coordinates of grid points, ascending."""
        return self._grid_y

    @property
    def density(self) -> np.ndarray:
        """``(p, p)`` density values; ``density[i, j]`` at ``(x_i, y_j)``."""
        return self._density

    @property
    def estimator(self) -> KernelDensityEstimator:
        """The underlying kernel density estimator."""
        return self._estimator

    @property
    def histogram(self):
        """The retained linear-binned histogram (``None`` unless binned).

        A :class:`repro.density.binned.BinnedHistogram` whose blur
        produced :attr:`density`; its counts are each grid node's total
        bilinear point weight, so ``(counts * density).sum() / total``
        is exactly the mean bilinearly-interpolated density over the
        points — without an ``O(n)`` interpolation pass.
        """
        return self._histogram

    @property
    def cell_count(self) -> int:
        """Number of elementary rectangles, ``(p-1)^2``."""
        return (self._resolution - 1) ** 2

    @property
    def merge_tree(self) -> MergeTree:
        """Merge tree answering connectivity queries for any ``tau``.

        Built lazily with one union-find sweep on first access and then
        reused for the grid's lifetime.
        """
        if self._merge_tree is None:
            self._merge_tree = MergeTree.from_density(self._density)
        return self._merge_tree

    # ------------------------------------------------------------------
    def cell_of(self, point: np.ndarray) -> tuple[int, int]:
        """Elementary rectangle ``(i, j)`` containing a 2-D *point*.

        Cell ``(i, j)`` spans ``[grid_x[i], grid_x[i+1]] x
        [grid_y[j], grid_y[j+1]]``.  Points outside the grid are clamped
        to the nearest boundary cell.
        """
        p = np.asarray(point, dtype=float)
        if p.shape != (2,):
            raise DimensionalityError("point must be a 2-vector")
        i = int(np.searchsorted(self._grid_x, p[0], side="right")) - 1
        j = int(np.searchsorted(self._grid_y, p[1], side="right")) - 1
        i = min(max(i, 0), self._resolution - 2)
        j = min(max(j, 0), self._resolution - 2)
        return i, j

    def cells_of(self, points: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`cell_of`: ``(n, 2)`` integer cell indices."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise DimensionalityError("points must be (n, 2)")
        i = np.searchsorted(self._grid_x, pts[:, 0], side="right") - 1
        j = np.searchsorted(self._grid_y, pts[:, 1], side="right") - 1
        i = np.clip(i, 0, self._resolution - 2)
        j = np.clip(j, 0, self._resolution - 2)
        return np.column_stack([i, j])

    def corner_densities(self, i: int, j: int) -> np.ndarray:
        """Densities at the four corners of elementary rectangle ``(i, j)``."""
        if not (0 <= i < self._resolution - 1 and 0 <= j < self._resolution - 1):
            raise ConfigurationError(f"cell ({i}, {j}) out of range")
        d = self._density
        return np.array([d[i, j], d[i + 1, j], d[i, j + 1], d[i + 1, j + 1]])

    def corners_above(self, threshold: float) -> np.ndarray:
        """Per-cell count of corners with density above *threshold*.

        Returns a ``(p-1, p-1)`` integer array — the quantity Definition
        2.2 compares against 3.
        """
        above = self._density > threshold
        return (
            above[:-1, :-1].astype(int)
            + above[1:, :-1]
            + above[:-1, 1:]
            + above[1:, 1:]
        )

    def density_at(self, points: np.ndarray) -> np.ndarray:
        """Exact KDE density at arbitrary 2-D *points* (not interpolated)."""
        return self._estimator.evaluate(np.asarray(points, dtype=float))

    def interpolate(self, points: np.ndarray) -> np.ndarray:
        """Bilinear interpolation of the grid density at *points*.

        Cheaper than :meth:`density_at` and sufficient for membership
        tests; points outside the grid are clamped to the boundary.
        """
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[np.newaxis, :]
        x = np.clip(pts[:, 0], self._bounds.x_min, self._bounds.x_max)
        y = np.clip(pts[:, 1], self._bounds.y_min, self._bounds.y_max)
        i = np.clip(
            np.searchsorted(self._grid_x, x, side="right") - 1,
            0,
            self._resolution - 2,
        )
        j = np.clip(
            np.searchsorted(self._grid_y, y, side="right") - 1,
            0,
            self._resolution - 2,
        )
        x0, x1 = self._grid_x[i], self._grid_x[i + 1]
        y0, y1 = self._grid_y[j], self._grid_y[j + 1]
        tx = np.where(x1 > x0, (x - x0) / (x1 - x0), 0.0)
        ty = np.where(y1 > y0, (y - y0) / (y1 - y0), 0.0)
        d = self._density
        val = (
            d[i, j] * (1 - tx) * (1 - ty)
            + d[i + 1, j] * tx * (1 - ty)
            + d[i, j + 1] * (1 - tx) * ty
            + d[i + 1, j + 1] * tx * ty
        )
        return float(val[0]) if single else val
