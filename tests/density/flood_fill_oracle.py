"""Reference flood fill for the connectivity property suites.

The paper computes the query cluster ``R(tau, Q)`` (Definition 2.2) as a
breadth-first flood fill over the grid rectangles whose corner test
passes at ``tau``.  The library answers the same questions from one
union-find merge tree per grid
(:class:`repro.density.merge_tree.MergeTree`); this module keeps the
paper's direct algorithm as the oracle the merge tree is checked
against.  It is deliberately the plainest code that can be right: a
queue, four neighbours, no caching.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.density.connectivity import MIN_CORNERS_ABOVE, ConnectedRegion
from repro.density.grid import DensityGrid


def flood_fill_mask(qualifies: np.ndarray, start: tuple[int, int]) -> np.ndarray:
    """Boolean mask of cells 4-connected to *start* within *qualifies*.

    All-False when ``qualifies[start]`` is False: the seed sits in noise.
    """
    q = np.asarray(qualifies, dtype=bool)
    mask = np.zeros_like(q, dtype=bool)
    if not q[start]:
        return mask
    rows, cols = q.shape
    queue: deque[tuple[int, int]] = deque([start])
    mask[start] = True
    while queue:
        i, j = queue.popleft()
        for ni, nj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if 0 <= ni < rows and 0 <= nj < cols:
                if q[ni, nj] and not mask[ni, nj]:
                    mask[ni, nj] = True
                    queue.append((ni, nj))
    return mask


def count_components(qualifies: np.ndarray) -> int:
    """Number of 4-connected components, one flood fill per component."""
    q = np.asarray(qualifies, dtype=bool)
    seen = np.zeros_like(q, dtype=bool)
    regions = 0
    for i, j in np.argwhere(q):
        if not seen[i, j]:
            regions += 1
            seen |= flood_fill_mask(q, (int(i), int(j)))
    return regions


def qualifying_cells(grid: DensityGrid, threshold: float) -> np.ndarray:
    """Definition 2.2's corner test: rectangles with 3+ corners above tau."""
    return grid.corners_above(threshold) >= MIN_CORNERS_ABOVE


def connected_region(
    grid: DensityGrid, query: np.ndarray, threshold: float
) -> ConnectedRegion:
    """``R(tau, Q)`` by one flood fill from the query's rectangle."""
    start = grid.cell_of(np.asarray(query, dtype=float))
    mask = flood_fill_mask(qualifying_cells(grid, threshold), start)
    return ConnectedRegion(
        mask=mask, threshold=threshold, query_cell=start, seeded=bool(mask[start])
    )


def region_count_at(grid: DensityGrid, threshold: float) -> int:
    """Number of connected regions at *threshold*, by flood fill."""
    return count_components(qualifying_cells(grid, threshold))
