"""Kernel density estimation (paper §2.2, Eq. 1).

``f(x) = (1/N) * sum_i K_h(x - x_i)`` with a per-dimension bandwidth.
The estimator supports evaluation at arbitrary points and on 2-D grids
(the ``p x p`` grid of Fig. 5), and can sample "fictitious points" in
proportion to the estimated density for lateral density plots.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.density.bandwidth import silverman_bandwidth
from repro.density.kernels import KernelFn, gaussian_kernel
from repro.exceptions import ConfigurationError, DimensionalityError, EmptyDatasetError
from repro.obs.trace import span

BandwidthRule = Callable[[np.ndarray], np.ndarray]


class KernelDensityEstimator:
    """Product-kernel density estimator over row points.

    Parameters
    ----------
    points:
        ``(n, dim)`` training points.
    kernel:
        Kernel function (default Gaussian, as in the paper).
    bandwidth:
        Either an explicit scalar / per-dimension array, or ``None`` to
        apply *bandwidth_rule*.
    bandwidth_rule:
        Data-driven rule applied when *bandwidth* is ``None``
        (default: Silverman's rule, the paper's choice).
    """

    def __init__(
        self,
        points: np.ndarray,
        *,
        kernel: KernelFn = gaussian_kernel,
        bandwidth: float | Sequence[float] | np.ndarray | None = None,
        bandwidth_rule: BandwidthRule = silverman_bandwidth,
    ) -> None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, np.newaxis]
        if pts.ndim != 2:
            raise DimensionalityError("points must be 1-D or 2-D")
        if pts.shape[0] == 0:
            raise EmptyDatasetError("KDE needs at least one point")
        self._points = pts
        self._kernel = kernel
        if bandwidth is None:
            h = np.asarray(bandwidth_rule(pts), dtype=float)
        else:
            h = np.asarray(bandwidth, dtype=float)
            if h.ndim == 0:
                h = np.full(pts.shape[1], float(h))
        if h.shape != (pts.shape[1],):
            raise ConfigurationError(
                f"bandwidth must be scalar or length-{pts.shape[1]}, got {h.shape}"
            )
        if np.any(h <= 0):
            raise ConfigurationError("bandwidths must be strictly positive")
        self._bandwidth = h

    # ------------------------------------------------------------------
    @property
    def points(self) -> np.ndarray:
        """The training points (read-only view)."""
        return self._points

    @property
    def bandwidth(self) -> np.ndarray:
        """Per-dimension bandwidth vector."""
        return self._bandwidth

    @property
    def kernel(self) -> KernelFn:
        """The kernel function the estimator evaluates with."""
        return self._kernel

    @property
    def dim(self) -> int:
        """Dimensionality of the estimator."""
        return self._points.shape[1]

    # ------------------------------------------------------------------
    def evaluate(self, where: np.ndarray, *, batch_size: int = 2048) -> np.ndarray:
        """Density estimate at each row of *where*.

        Evaluation is chunked so memory stays ``O(batch_size * n)`` even
        for large grids.
        """
        w = np.asarray(where, dtype=float)
        single = w.ndim == 1
        if single:
            w = w[np.newaxis, :]
        if w.shape[1] != self.dim:
            raise DimensionalityError(
                f"evaluation points have dim {w.shape[1]}, estimator has {self.dim}"
            )
        n = self._points.shape[0]
        h = self._bandwidth
        norm = 1.0 / (n * np.prod(h))
        out = np.empty(w.shape[0])
        with span("kde.evaluate", n=int(n), queries=int(w.shape[0])):
            for start in range(0, w.shape[0], batch_size):
                chunk = w[start : start + batch_size]
                # (chunk, n, dim) scaled offsets
                u = (chunk[:, np.newaxis, :] - self._points[np.newaxis, :, :]) / h
                out[start : start + chunk.shape[0]] = (
                    self._kernel(u).sum(axis=1) * norm
                )
        return out[0] if single else out

    def evaluate_on_grid(
        self,
        grid_x: np.ndarray,
        grid_y: np.ndarray,
        *,
        mode: str = "exact",
    ) -> np.ndarray:
        """Density on the Cartesian product ``grid_x x grid_y`` (2-D only).

        Returns a ``(len(grid_x), len(grid_y))`` array where entry
        ``[i, j]`` is the density at ``(grid_x[i], grid_y[j])``.

        With ``mode="exact"`` (the default) and the Gaussian product
        kernel this uses the separable factorization (density
        contribution splits into per-axis factors), which turns an
        ``O(p^2 n)`` evaluation into ``O(p n)`` work plus a
        ``(p, n) @ (n, p)`` product.

        With ``mode="binned"`` the points are first histogrammed onto
        the grid nodes and the histogram blurred with a truncated
        separable kernel (:mod:`repro.density.binned`): ``O(n + p^2)``
        total, with the deviation from the exact result bounded by
        :func:`repro.density.binned.binned_error_bound`.
        """
        if self.dim != 2:
            raise DimensionalityError("grid evaluation requires a 2-D estimator")
        if mode not in ("exact", "binned"):
            raise ConfigurationError(
                f"grid evaluation mode must be 'exact' or 'binned', got {mode!r}"
            )
        gx = np.asarray(grid_x, dtype=float)
        gy = np.asarray(grid_y, dtype=float)
        if mode == "binned":
            from repro.density.binned import binned_density_grid

            return binned_density_grid(
                self._points, self._bandwidth, gx, gy, kernel=self._kernel
            )
        hx, hy = self._bandwidth
        n = self._points.shape[0]
        ux = (gx[:, np.newaxis] - self._points[np.newaxis, :, 0]) / hx  # (px, n)
        uy = (gy[:, np.newaxis] - self._points[np.newaxis, :, 1]) / hy  # (py, n)
        kx = self._kernel(ux[..., np.newaxis])  # (px, n)
        ky = self._kernel(uy[..., np.newaxis])  # (py, n)
        norm = 1.0 / (n * hx * hy)
        return (kx @ ky.T) * norm

    def sample_lateral(
        self,
        count: int,
        rng: np.random.Generator,
        *,
        grid_resolution: int = 64,
        padding: float = 0.05,
    ) -> np.ndarray:
        """Sample *count* fictitious points in proportion to the density.

        This implements the paper's *lateral density plot*: "a scatter
        plot of fictitious points which are generated in proportion to
        their density" (§2.2).  Sampling is done over a fine grid: cell
        centers are drawn with probability proportional to their density
        and jittered uniformly within the cell.
        """
        if self.dim != 2:
            raise DimensionalityError("lateral sampling requires a 2-D estimator")
        if count <= 0:
            return np.empty((0, 2))
        with span("kde.sample_lateral", count=count, resolution=grid_resolution):
            return self._sample_lateral(count, rng, grid_resolution, padding)

    def _sample_lateral(
        self,
        count: int,
        rng: np.random.Generator,
        grid_resolution: int,
        padding: float,
    ) -> np.ndarray:
        lo = self._points.min(axis=0)
        hi = self._points.max(axis=0)
        # Named ``extent`` (not ``span``) so the module-level tracing
        # helper of the same name is never shadowed.
        extent = np.maximum(hi - lo, 1e-12)
        lo = lo - padding * extent
        hi = hi + padding * extent
        gx = np.linspace(lo[0], hi[0], grid_resolution)
        gy = np.linspace(lo[1], hi[1], grid_resolution)
        density = self.evaluate_on_grid(gx, gy)
        weights = density.ravel()
        total = weights.sum()
        if total <= 0:
            raise EmptyDatasetError("density grid is identically zero")
        probs = weights / total
        cells = rng.choice(weights.size, size=count, p=probs)
        ix, iy = np.unravel_index(cells, density.shape)
        dx = (hi[0] - lo[0]) / max(grid_resolution - 1, 1)
        dy = (hi[1] - lo[1]) / max(grid_resolution - 1, 1)
        jitter = rng.uniform(-0.5, 0.5, size=(count, 2))
        samples = np.column_stack(
            [gx[ix] + jitter[:, 0] * dx, gy[iy] + jitter[:, 1] * dy]
        )
        return samples
