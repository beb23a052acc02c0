"""Merge-tree connectivity: one union-find sweep per grid, τ free.

The paper's region ``R(tau, Q)`` (Definition 2.2) is recomputed from
scratch for every noise threshold the user tries: a breadth-first flood
fill over the cells whose corner test passes at that ``tau``.  The
simulated users sweep a ladder of a few dozen thresholds per view, so
the same density grid is re-flooded dozens of times — ~70 % of the
sequential wall time in ``BENCH_core.json``.

This module replaces the per-``tau`` work with a single *merge tree*
(persistence-style) precomputation per grid:

1. Every elementary rectangle has a **birth level** — the third-largest
   of its four corner densities.  The cell passes Definition 2.2's
   corner test at ``tau`` exactly when ``tau < birth`` (at least three
   corners strictly above the threshold).
2. Cells are sorted by birth level, descending, and added one at a time
   to a union-find structure over the 4-adjacency graph.  Each union of
   two components records a **merge event** at the current birth level
   and an internal node in a dendrogram (exactly the single-linkage
   tree of the cells under the bottleneck metric).
3. Afterwards, two cells are 4-connected through qualifying cells at
   ``tau`` **iff** the level of their lowest common ancestor in the
   dendrogram is strictly above ``tau`` — the classic max-bottleneck
   property of the Kruskal tree.

Every connectivity question then becomes a lookup instead of a flood:

* ``region_at(tau, cell)`` — one single-source pass computes the merge
  level between *cell* and every other cell (cached per source cell);
  the region at any ``tau`` is a vectorized comparison against that
  array.  A full τ-sweep over ``T`` thresholds costs one comparison
  per threshold instead of ``T`` flood fills.
* ``component_count_at(tau)`` — components equal *births above tau*
  minus *merges above tau*; both are ``O(log p)`` binary searches in
  presorted arrays.

The sweep is ``O(p² α(p²))`` after an ``O(p² log p²)`` sort and is run
**once per density grid** (built lazily and pinned on its
:class:`~repro.density.grid.DensityGrid`).  Results are
**element-identical** to the paper's breadth-first flood fill for every
``tau`` — locked in by the property tests in
``tests/density/test_merge_tree.py``, which compare against a reference
flood fill kept in ``tests/``.
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

from repro.exceptions import ConfigurationError, DimensionalityError
from repro.obs.metrics import DEFAULT_SIZE_BUCKETS, counter, histogram
from repro.obs.trace import span

__all__ = [
    "MergeTree",
    "cell_birth_levels",
]

# Metric family: ``connectivity.merge_tree.*`` (see docs/OBSERVABILITY.md).
_BUILDS = counter("connectivity.merge_tree.builds")
_LOOKUPS = counter("connectivity.merge_tree.lookups")
_SOURCE_PASSES = counter("connectivity.merge_tree.source_passes")
_BUILD_CELLS = histogram(
    "connectivity.merge_tree.cells", buckets=DEFAULT_SIZE_BUCKETS
)

#: Single-source merge-level arrays kept per tree.  Interactive views
#: query one source cell (the query's rectangle); a handful covers
#: every realistic consumer while bounding memory at a few grids' worth.
_SOURCE_CACHE_LIMIT = 8


def cell_birth_levels(density: np.ndarray) -> np.ndarray:
    """Per-cell birth level: the third-largest of the four corner densities.

    A cell qualifies under Definition 2.2 at noise threshold ``tau``
    when at least :data:`~repro.density.connectivity.MIN_CORNERS_ABOVE`
    (three) of its corners have density strictly above ``tau`` — i.e.
    exactly when ``tau`` is strictly below the third-largest corner.
    Returns a ``(p-1, p-1)`` array for a ``(p, p)`` density grid.
    """
    d = np.asarray(density, dtype=float)
    if d.ndim != 2 or d.shape[0] < 2 or d.shape[1] < 2:
        raise DimensionalityError(
            "density must be a 2-D grid with at least 2 points per axis"
        )
    corners = np.stack([d[:-1, :-1], d[1:, :-1], d[:-1, 1:], d[1:, 1:]])
    # Third-largest of four values == second-smallest.
    return np.partition(corners, 1, axis=0)[1]


class MergeTree:
    """Merge tree of a density grid's elementary-rectangle connectivity.

    Construct with :meth:`from_density` (or grab the lazily built
    instance pinned on :attr:`repro.density.grid.DensityGrid.merge_tree`).
    Instances are immutable after construction apart from an internal,
    lock-guarded per-source-cell result cache.
    """

    __slots__ = (
        "_shape",
        "_births",
        "_parent",
        "_level",
        "_n_nodes",
        "_births_sorted",
        "_merges_sorted",
        "_source_cache",
        "_lock",
    )

    def __init__(
        self,
        *,
        shape: tuple[int, int],
        births: np.ndarray,
        parent: np.ndarray,
        level: np.ndarray,
        n_nodes: int,
        births_sorted: np.ndarray,
        merges_sorted: np.ndarray,
    ) -> None:
        self._shape = shape
        self._births = births
        self._parent = parent
        self._level = level
        self._n_nodes = n_nodes
        self._births_sorted = births_sorted
        self._merges_sorted = merges_sorted
        self._source_cache: dict[tuple[int, int], np.ndarray] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_density(cls, density: np.ndarray) -> "MergeTree":
        """Build the merge tree of a ``(p, p)`` density grid.

        One descending-birth union-find sweep over the ``(p-1)²`` cells;
        traced as ``connectivity.merge_tree.build``.
        """
        births = cell_birth_levels(density)
        return cls.from_births(births)

    @classmethod
    def from_births(cls, births: np.ndarray) -> "MergeTree":
        """Build the tree from precomputed per-cell birth levels."""
        b = np.asarray(births, dtype=float)
        if b.ndim != 2:
            raise DimensionalityError("births must be a 2-D cell grid")
        rows, cols = b.shape
        n = rows * cols
        _BUILDS.inc()
        _BUILD_CELLS.observe(n)
        with span("connectivity.merge_tree.build", cells=n) as build_span:
            flat = b.ravel()
            # Descending birth order; stable so equal-birth cells are
            # processed in flat-index order (deterministic tree shape).
            order = np.argsort(-flat, kind="stable").tolist()
            births_list = flat.tolist()
            # Union-find over cells (path halving + union by size).
            # Plain Python lists: the sweep is a scalar-access hot loop
            # and list indexing is several times faster than ndarray
            # scalar indexing here.
            uf_parent = list(range(n))
            uf_size = [1] * n
            # Dendrogram: nodes 0..n-1 are cell leaves, internal nodes
            # are appended as merges happen (at most n-1 of them).
            parent = [-1] * n
            level = births_list.copy()
            root_node = list(range(n))  # UF root -> tree node
            added = [False] * n
            next_node = n
            merge_levels: list[float] = []

            for c in order:
                added[c] = True
                birth = births_list[c]
                i, j = divmod(c, cols)
                for nb in (
                    c - cols if i > 0 else -1,
                    c + cols if i + 1 < rows else -1,
                    c - 1 if j > 0 else -1,
                    c + 1 if j + 1 < cols else -1,
                ):
                    if nb < 0 or not added[nb]:
                        continue
                    ra = c
                    while uf_parent[ra] != ra:  # find with path halving
                        uf_parent[ra] = uf_parent[uf_parent[ra]]
                        ra = uf_parent[ra]
                    rb = nb
                    while uf_parent[rb] != rb:
                        uf_parent[rb] = uf_parent[uf_parent[rb]]
                        rb = uf_parent[rb]
                    if ra == rb:
                        continue
                    node = next_node
                    next_node += 1
                    level.append(birth)
                    parent.append(-1)
                    parent[root_node[ra]] = node
                    parent[root_node[rb]] = node
                    merge_levels.append(birth)
                    if uf_size[ra] < uf_size[rb]:
                        ra, rb = rb, ra
                    uf_parent[rb] = ra
                    uf_size[ra] += uf_size[rb]
                    root_node[ra] = node
            build_span.set(merges=len(merge_levels))
        return cls(
            shape=(rows, cols),
            births=b,
            parent=np.asarray(parent, dtype=np.int64),
            level=np.asarray(level, dtype=float),
            n_nodes=next_node,
            births_sorted=np.sort(flat),
            merges_sorted=np.sort(np.asarray(merge_levels, dtype=float)),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """``(rows, cols)`` of the cell grid the tree covers."""
        return self._shape

    @property
    def cell_count(self) -> int:
        """Number of elementary rectangles (dendrogram leaves)."""
        return self._shape[0] * self._shape[1]

    @property
    def merge_count(self) -> int:
        """Number of merge events (internal dendrogram nodes)."""
        return self._n_nodes - self.cell_count

    @property
    def births(self) -> np.ndarray:
        """Per-cell birth levels, ``(rows, cols)``."""
        return self._births

    # ------------------------------------------------------------------
    # Queries — all valid for *any* tau, no re-flooding
    # ------------------------------------------------------------------
    def merge_levels_from(self, cell: tuple[int, int]) -> np.ndarray:
        """Merge level between *cell* and every cell of the grid.

        Entry ``(i, j)`` is the highest threshold below which ``(i, j)``
        and *cell* are in one connected region (the level of their
        lowest common dendrogram ancestor; a cell's level with itself is
        its own birth).  ``region_at(tau, cell)`` for any ``tau`` is
        simply ``merge_levels_from(cell) > tau``.

        The single-source pass is ``O(p²)`` and cached per source cell
        (an interactive view queries exactly one: the query's
        rectangle).  The returned array is shared and read-only.
        """
        rows, cols = self._shape
        i, j = int(cell[0]), int(cell[1])
        if not (0 <= i < rows and 0 <= j < cols):
            raise ConfigurationError(f"cell ({i}, {j}) out of range")
        key = (i, j)
        levels = self._source_cache.get(key)
        if levels is not None:
            return levels
        _SOURCE_PASSES.inc()
        leaf = i * cols + j
        parent = self._parent.tolist()
        node_level = self._level.tolist()
        n_nodes = self._n_nodes
        # Mark the source leaf's root path; every other node inherits
        # the level of its nearest marked ancestor.
        marked = [False] * n_nodes
        x = leaf
        while x != -1:
            marked[x] = True
            x = parent[x]
        answer = [0.0] * n_nodes
        neg_inf = float("-inf")
        # Parents are always created after their children, so a single
        # descending-id pass resolves every node after its parent.
        for node in range(n_nodes - 1, -1, -1):
            if marked[node]:
                answer[node] = node_level[node]
            else:
                p = parent[node]
                answer[node] = answer[p] if p != -1 else neg_inf
        levels = np.asarray(answer[: rows * cols], dtype=float).reshape(
            rows, cols
        )
        levels.setflags(write=False)
        with self._lock:
            if len(self._source_cache) >= _SOURCE_CACHE_LIMIT:
                self._source_cache.pop(next(iter(self._source_cache)))
            self._source_cache[key] = levels
        return levels

    def region_at(self, tau: float, cell: tuple[int, int]) -> np.ndarray:
        """Boolean mask of the region containing *cell* at threshold *tau*.

        Element-identical to flood-filling the Definition-2.2
        qualifying set from *cell*: empty when the cell itself fails
        the corner test at *tau* (the query sits in noise).
        """
        _LOOKUPS.inc()
        return self.merge_levels_from(cell) > float(tau)

    def region_sweep(
        self, thresholds: np.ndarray, cell: tuple[int, int]
    ) -> np.ndarray:
        """Region masks for a whole ladder of thresholds at once.

        Returns a ``(len(thresholds), rows, cols)`` boolean stack —
        row ``t`` equals ``region_at(thresholds[t], cell)``.  The whole
        sweep costs one single-source pass plus one vectorized
        comparison, independent of the number of thresholds.
        """
        taus = np.asarray(thresholds, dtype=float)
        _LOOKUPS.inc(int(taus.size))
        levels = self.merge_levels_from(cell)
        return levels[np.newaxis, :, :] > taus[:, np.newaxis, np.newaxis]

    def component_count_at(self, tau: float) -> int:
        """Number of connected regions at threshold *tau*.

        Alive cells (birth strictly above *tau*) minus merges recorded
        strictly above *tau* — two binary searches in presorted arrays.
        Equal to the number of 4-connected components of the qualifying
        set for every ``tau`` (see the property tests).
        """
        _LOOKUPS.inc()
        t = float(tau)
        alive = self._births_sorted.size - int(
            np.searchsorted(self._births_sorted, t, side="right")
        )
        merges = self._merges_sorted.size - int(
            np.searchsorted(self._merges_sorted, t, side="right")
        )
        return alive - merges

    def component_counts(self, thresholds: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`component_count_at` over a threshold ladder."""
        taus = np.asarray(thresholds, dtype=float)
        _LOOKUPS.inc(int(taus.size))
        alive = self._births_sorted.size - np.searchsorted(
            self._births_sorted, taus, side="right"
        )
        merges = self._merges_sorted.size - np.searchsorted(
            self._merges_sorted, taus, side="right"
        )
        return (alive - merges).astype(int)

    # ------------------------------------------------------------------
    # Pickling (locks are not picklable; the source cache is transient)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict[str, Any]:
        return {
            "shape": self._shape,
            "births": self._births,
            "parent": self._parent,
            "level": self._level,
            "n_nodes": self._n_nodes,
            "births_sorted": self._births_sorted,
            "merges_sorted": self._merges_sorted,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self._shape = tuple(state["shape"])
        self._births = state["births"]
        self._parent = state["parent"]
        self._level = state["level"]
        self._n_nodes = int(state["n_nodes"])
        self._births_sorted = state["births_sorted"]
        self._merges_sorted = state["merges_sorted"]
        self._source_cache = {}
        self._lock = threading.Lock()
