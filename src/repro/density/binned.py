"""Grid-binned KDE — n-independent view evaluation.

The exact grid evaluator (:meth:`~repro.density.kde.
KernelDensityEstimator.evaluate_on_grid`) costs ``O(n * p)`` kernel
evaluations per view; at a million points that is the entire latency
budget of an interactive step.  Grid binning (``kde_mode="binned"``)
breaks the per-point dependence.  One linear pass spreads every
point's unit mass over the four surrounding grid nodes with bilinear
(cloud-in-cell) weights (:class:`BinnedHistogram`); the
density is then the histogram convolved with a separable, truncated
kernel — ``O(n + p^2 * r)`` where ``r`` is the truncation radius in
cells.  Re-blurring the retained histogram at a new bandwidth is free
of ``n`` entirely.  The approximation error is *bounded and
documented*: :func:`binned_error_bound` returns a rigorous upper bound
on the max absolute grid error (derivation below), and the hypothesis
suite in ``tests/density/test_binned.py`` holds the implementation to
it.  Linear binning (rather than nearest-node snapping) is what makes
the error second-order in the cell size — the binning weights match
each point's first moment, so the leading displacement term cancels.
Accepted views fall back to exact KDE for their statistics (see
:meth:`~repro.density.profiles.VisualProfile.exact_statistics`).

Error bound for the binned estimator
------------------------------------
With the Gaussian product kernel ``phi(u) = exp(-u^2/2)/sqrt(2*pi)``,
the exact grid density at node ``g`` is::

    f(g) = (1/(n*hx*hy)) * sum_i phi((gx-xi)/hx) * phi((gy-yi)/hy)

Linear binning replaces each point mass by bilinear weights on the
four surrounding nodes.  Because the bilinear weights factor per axis
and the product kernel is separable, the binned contribution of a
point to node ``g`` is exactly ``(Lx phi_x) * (Ly phi_y)``, where
``Lx`` is linear interpolation of ``y -> phi((gx - y)/hx)`` over one
cell.  Classical interpolation error gives, per axis::

    |Lx phi_x - phi_x| <= ex := (1/8) * (dx/hx)^2 * max|phi''|

(and likewise ``ey``), with ``max|phi''| = phi(0) = 1/sqrt(2*pi)`` for
the Gaussian.  Multiplying the two perturbed factors and subtracting
the exact product bounds the per-point binning error by
``ex*max(phi) + ey*max(phi) + ex*ey``.  Truncating kernel taps beyond
``truncate`` standard deviations additionally drops per-point mass of
at most ``2 * phi(truncate) * max(phi)``.  After the ``1/(n*hx*hy)``
normalization (the sum over ``n`` points cancels ``n``)::

    |f_binned(g) - f(g)| <= ( ex*max(phi) + ey*max(phi) + ex*ey
                              + 2 * phi(truncate) * max(phi) ) / (hx*hy)

uniformly over the grid, provided every point lies inside the grid
span (points are clipped to the boundary cell otherwise, as with any
histogram).  The bound shrinks *quadratically* as the grid refines
relative to the bandwidth; at the library defaults (``p = 40..60``
over a ~4-sigma data span) it sits around 0.01-0.1% of the peak
density, far below the tau resolution a human (or simulated) user
applies to a surface plot.
"""

from __future__ import annotations

import math

import numpy as np

from repro.density.kernels import KernelFn, gaussian_kernel
from repro.exceptions import ConfigurationError, DimensionalityError
from repro.obs.metrics import counter
from repro.obs.trace import span

__all__ = [
    "BinnedHistogram",
    "binned_density_grid",
    "binned_error_bound",
    "DEFAULT_TRUNCATE",
]

#: Kernel taps beyond this many bandwidths are dropped from the blur.
DEFAULT_TRUNCATE = 4.0

#: Grid cells produced by binned evaluations (p^2 per computed grid).
_BINNED_CELLS = counter("kde.binned.cells")
#: Binned grid evaluations performed.
_BINNED_EVALS = counter("kde.binned.evals")

_MAX_PHI = 1.0 / math.sqrt(2.0 * math.pi)
#: max |phi''| for the Gaussian: |(u^2 - 1) phi(u)| peaks at u = 0.
_MAX_DDPHI = 1.0 / math.sqrt(2.0 * math.pi)


class BinnedHistogram:
    """Weighted point masses linearly binned onto a 2-D grid.

    The one ``O(n)`` pass of the binned estimator: each point's weight
    is spread over the four surrounding grid nodes with bilinear
    (cloud-in-cell) weights, which matches the point's first moment and
    is what makes the :func:`binned_error_bound` second-order in the
    cell size.  The histogram is retained so the density can be
    re-blurred at a new bandwidth without touching the points again —
    re-evaluation is ``O(p^2 * r)``, free of ``n``.

    Parameters
    ----------
    points:
        ``(n, 2)`` projected points.
    grid_x, grid_y:
        Ascending, uniformly spaced grid node coordinates.
    weights:
        Optional per-point weights (default 1.0 each); the density is
        normalized by the *total* weight, so uniform weights reproduce
        the unweighted estimator exactly.
    """

    def __init__(
        self,
        points: np.ndarray,
        grid_x: np.ndarray,
        grid_y: np.ndarray,
        *,
        weights: np.ndarray | None = None,
    ) -> None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise DimensionalityError("points must be (n, 2)")
        gx = np.asarray(grid_x, dtype=float)
        gy = np.asarray(grid_y, dtype=float)
        if gx.size < 2 or gy.size < 2:
            raise ConfigurationError("grids need at least two nodes per axis")
        self._grid_x = gx
        self._grid_y = gy
        self._dx = float(gx[1] - gx[0])
        self._dy = float(gy[1] - gy[0])
        with span("kde.binned.histogram", n=int(pts.shape[0])):
            # Cloud-in-cell: lower cell index + fractional offset per
            # axis; out-of-range points clip onto the boundary cell.
            sx = (pts[:, 0] - gx[0]) / self._dx
            sy = (pts[:, 1] - gy[0]) / self._dy
            ix = np.clip(np.floor(sx).astype(np.intp), 0, gx.size - 2)
            iy = np.clip(np.floor(sy).astype(np.intp), 0, gy.size - 2)
            tx = np.clip(sx - ix, 0.0, 1.0)
            ty = np.clip(sy - iy, 0.0, 1.0)
            if weights is None:
                wx0 = 1.0 - tx
                wx1 = tx
                total = float(pts.shape[0])
            else:
                w = np.asarray(weights, dtype=float)
                if w.shape != (pts.shape[0],):
                    raise ConfigurationError(
                        f"weights must have shape ({pts.shape[0]},), got {w.shape}"
                    )
                wx0 = w * (1.0 - tx)
                wx1 = w * tx
                total = float(w.sum())
            # Four bincounts over the corner scatters: orders of
            # magnitude faster than np.add.at at millions of points.
            base = ix * gy.size + iy
            size = gx.size * gy.size
            counts = (
                np.bincount(base, weights=wx0 * (1.0 - ty), minlength=size)
                + np.bincount(base + 1, weights=wx0 * ty, minlength=size)
                + np.bincount(
                    base + gy.size, weights=wx1 * (1.0 - ty), minlength=size
                )
                + np.bincount(
                    base + gy.size + 1, weights=wx1 * ty, minlength=size
                )
            ).reshape(gx.size, gy.size)
        if total <= 0:
            raise ConfigurationError("total point weight must be positive")
        self._counts = counts
        self._total = total

    # ------------------------------------------------------------------
    @property
    def counts(self) -> np.ndarray:
        """``(px, py)`` accumulated node weights."""
        return self._counts

    @property
    def total_weight(self) -> float:
        """Sum of all point weights (the estimator's ``n``)."""
        return self._total

    @property
    def cell_size(self) -> tuple[float, float]:
        """``(dx, dy)`` grid spacing per axis."""
        return self._dx, self._dy

    # ------------------------------------------------------------------
    def blur(
        self,
        bandwidth: np.ndarray,
        *,
        kernel: KernelFn = gaussian_kernel,
        truncate: float = DEFAULT_TRUNCATE,
    ) -> np.ndarray:
        """Separable truncated-kernel blur of the histogram.

        Returns the ``(px, py)`` binned density estimate.  Cost is
        ``O(p^2 * r)`` per axis (implemented as two banded matrix
        products) and never touches the original points, so calling
        this again with a different *bandwidth* re-estimates the
        density with zero per-point work.
        """
        h = np.asarray(bandwidth, dtype=float)
        if h.shape != (2,):
            raise ConfigurationError(f"bandwidth must be a 2-vector, got {h.shape}")
        if np.any(h <= 0):
            raise ConfigurationError("bandwidths must be strictly positive")
        if truncate <= 0:
            raise ConfigurationError("truncate must be positive")
        with span(
            "kde.binned.blur",
            px=int(self._counts.shape[0]),
            py=int(self._counts.shape[1]),
        ):
            bx = _blur_matrix(
                self._counts.shape[0], self._dx, float(h[0]), kernel, truncate
            )
            by = _blur_matrix(
                self._counts.shape[1], self._dy, float(h[1]), kernel, truncate
            )
            norm = 1.0 / (self._total * float(h[0]) * float(h[1]))
            density = (bx @ self._counts @ by.T) * norm
        _BINNED_EVALS.inc()
        _BINNED_CELLS.inc(int(density.size))
        return density


def _blur_matrix(
    size: int, step: float, h: float, kernel: KernelFn, truncate: float
) -> np.ndarray:
    """Banded ``(size, size)`` matrix of truncated 1-D kernel taps.

    Entry ``[i, j]`` is the per-axis kernel factor ``K((i-j)*step/h)``
    when ``|i-j|*step <= truncate*h`` and zero beyond — applying it to
    a histogram column is exactly the truncated discrete convolution.
    """
    radius = min(size - 1, int(math.ceil(truncate * h / step)))
    offsets = np.arange(size)
    lag = np.abs(offsets[:, np.newaxis] - offsets[np.newaxis, :])
    taps = kernel((lag * (step / h))[..., np.newaxis])
    taps[lag > radius] = 0.0
    return taps


def binned_density_grid(
    points: np.ndarray,
    bandwidth: np.ndarray,
    grid_x: np.ndarray,
    grid_y: np.ndarray,
    *,
    weights: np.ndarray | None = None,
    kernel: KernelFn = gaussian_kernel,
    truncate: float = DEFAULT_TRUNCATE,
) -> np.ndarray:
    """One-shot binned density: histogram the points, then blur.

    Functional form of :class:`BinnedHistogram` for callers that do not
    need to retain the histogram for re-blurring.  The result deviates
    from the exact product-kernel KDE on the same grid by at most
    :func:`binned_error_bound` (Gaussian kernel).
    """
    return BinnedHistogram(points, grid_x, grid_y, weights=weights).blur(
        np.asarray(bandwidth, dtype=float), kernel=kernel, truncate=truncate
    )


def binned_error_bound(
    bandwidth: np.ndarray,
    dx: float,
    dy: float,
    *,
    truncate: float = DEFAULT_TRUNCATE,
) -> float:
    """Uniform bound on ``max |f_binned - f_exact|`` over the grid.

    The linear-binning-plus-truncation bound derived in the module
    docstring, valid for the Gaussian product kernel when every point
    lies inside the grid span::

        ex = (1/8) * (dx/hx)^2 * max|phi''|      (and ey likewise)
        ( ex*max(phi) + ey*max(phi) + ex*ey
          + 2 * phi(truncate) * max(phi) ) / (hx * hy)

    The property suite (``tests/density/test_binned.py``) asserts the
    implementation never exceeds it.
    """
    h = np.asarray(bandwidth, dtype=float)
    if h.shape != (2,):
        raise ConfigurationError(f"bandwidth must be a 2-vector, got {h.shape}")
    hx, hy = float(h[0]), float(h[1])
    if hx <= 0 or hy <= 0:
        raise ConfigurationError("bandwidths must be strictly positive")
    ex = (dx / hx) ** 2 / 8.0 * _MAX_DDPHI
    ey = (dy / hy) ** 2 / 8.0 * _MAX_DDPHI
    bin_err = (ex + ey) * _MAX_PHI + ex * ey
    tail = 2.0 * (math.exp(-0.5 * truncate * truncate) / math.sqrt(2 * math.pi))
    return (bin_err + tail * _MAX_PHI) / (hx * hy)

