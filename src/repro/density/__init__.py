"""Density substrate: kernels, KDE, grids, connectivity, visual profiles."""

from repro.density.bandwidth import (
    bandwidth_rule_names,
    get_bandwidth_rule,
    robust_silverman_bandwidth,
    scott_bandwidth,
    silverman_bandwidth,
)
from repro.density.binned import (
    BinnedHistogram,
    binned_density_grid,
    binned_error_bound,
)
from repro.density.connectivity import (
    MIN_CORNERS_ABOVE,
    ConnectedRegion,
    connected_region,
    density_connected_points,
    points_in_region,
    region_count_at,
)
from repro.density.connectivity_graph import (
    ExactRegion,
    exact_density_connected,
    grid_vs_exact_agreement,
)
from repro.density.grid import DensityGrid, GridBounds
from repro.density.kde import KernelDensityEstimator
from repro.density.merge_tree import MergeTree, cell_birth_levels
from repro.density.kernels import (
    epanechnikov_kernel,
    gaussian_kernel,
    get_kernel,
    kernel_names,
    triangular_kernel,
    uniform_kernel,
)
from repro.density.profiles import (
    LateralDensityPlot,
    ProfileStatistics,
    VisualProfile,
    compute_profile_statistics,
)
from repro.density.separators import (
    DensitySeparator,
    PolygonalSeparator,
    RejectView,
    Separator,
)

__all__ = [
    "KernelDensityEstimator",
    "DensityGrid",
    "GridBounds",
    "BinnedHistogram",
    "binned_density_grid",
    "binned_error_bound",
    "ConnectedRegion",
    "connected_region",
    "points_in_region",
    "density_connected_points",
    "region_count_at",
    "MergeTree",
    "cell_birth_levels",
    "MIN_CORNERS_ABOVE",
    "ExactRegion",
    "exact_density_connected",
    "grid_vs_exact_agreement",
    "VisualProfile",
    "LateralDensityPlot",
    "ProfileStatistics",
    "compute_profile_statistics",
    "DensitySeparator",
    "PolygonalSeparator",
    "RejectView",
    "Separator",
    "gaussian_kernel",
    "epanechnikov_kernel",
    "triangular_kernel",
    "uniform_kernel",
    "get_kernel",
    "kernel_names",
    "silverman_bandwidth",
    "robust_silverman_bandwidth",
    "scott_bandwidth",
    "get_bandwidth_rule",
    "bandwidth_rule_names",
]
