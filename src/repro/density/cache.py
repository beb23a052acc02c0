"""Bounded LRU cache for KDE density grids.

The interactive search evaluates a kernel density estimate on a
``p x p`` grid for every view it presents (``p^2`` kernel sums — by far
the dominant cost of a minor iteration, see ``kde.grid.eval_seconds``).
Batch workloads repeat that work wholesale: two engines running the
same query (duplicate queries are common under production traffic, and
``run_batch`` explicitly supports them), a resumed checkpoint replaying
its pending view, or a sequential re-run over the same dataset all
recompute grids that are bit-for-bit equal to ones already produced in
this process.

:class:`DensityGridCache` memoizes those evaluations.  Entries are
**content-addressed**: the key is a BLAKE2b digest of the exact inputs
of :meth:`repro.density.kde.KernelDensityEstimator.evaluate_on_grid` —
the training points, the per-dimension bandwidths, and both grid axes.
Because the projected training points are a pure function of the
*(subspace, live set)* pair and the grid axes are a pure function of
the points and the query, this digest is a faithful (indeed finer)
fingerprint of the *(subspace fingerprint, live-set hash, bandwidth)*
triple: two lookups collide exactly when the evaluation inputs are
byte-identical, so a cache hit returns the byte-identical density
array the cold path would have computed.  Caching therefore **never
changes results** — it only skips redundant arithmetic.  The golden
equivalence suite runs with the cache enabled.

The cache is per-process and thread-safe.  Hits, misses, and evictions
are exported through the metrics registry as ``kde.cache.hit``,
``kde.cache.miss``, and ``kde.cache.evictions``; the current entry
count is the ``kde.cache.entries`` gauge.

Next to each density grid the cache can also hold the grid's
:class:`~repro.density.merge_tree.MergeTree` (the union-find
connectivity precomputation of ROADMAP item 2).  Trees are keyed by a
content digest of the **density array itself** — two grids share a tree
exactly when their density bytes are identical, in which case the tree
is identical too (it is a pure function of the densities).  A repeated
grid therefore skips both the KDE arithmetic *and* the union-find
sweep.  Tree traffic is exported as ``connectivity.merge_tree.cache_hit``
/ ``connectivity.merge_tree.cache_miss``.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any

import numpy as np

from repro.exceptions import ConfigurationError
from repro.obs.metrics import counter, gauge

__all__ = [
    "DensityGridCache",
    "DEFAULT_MAX_ENTRIES",
    "DEFAULT_MAX_ENTRY_BYTES",
    "get_density_cache",
    "set_density_cache",
    "disabled_density_cache",
    "fingerprint_arrays",
]

#: Default number of grids kept (LRU).  A 40x40 float64 grid is 12.8 KB,
#: so the default bound caps the cache at ~3.3 MB.
DEFAULT_MAX_ENTRIES = 256

#: Grids larger than this are computed but never stored, so one huge
#: analysis grid cannot evict the entire working set.
DEFAULT_MAX_ENTRY_BYTES = 4 * 1024 * 1024

_HITS = counter("kde.cache.hit")
_MISSES = counter("kde.cache.miss")
_EVICTIONS = counter("kde.cache.evictions")
_ENTRIES = gauge("kde.cache.entries")
_TREE_HITS = counter("connectivity.merge_tree.cache_hit")
_TREE_MISSES = counter("connectivity.merge_tree.cache_miss")


def fingerprint_arrays(*arrays: np.ndarray) -> bytes:
    """BLAKE2b digest of the shapes and raw bytes of *arrays*.

    Shapes participate in the digest so e.g. a ``(4, 2)`` and an
    ``(8,)`` array with equal bytes cannot collide.  Non-contiguous
    inputs are serialized in C order (``tobytes`` copies as needed).
    """
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        a = np.asarray(arr)
        h.update(str(a.shape).encode())
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    return h.digest()


class DensityGridCache:
    """Bounded, thread-safe LRU cache of grid-density arrays.

    Parameters
    ----------
    max_entries:
        Maximum number of cached grids; the least recently used entry
        is evicted beyond that.
    max_entry_bytes:
        Arrays larger than this are never stored (lookups for them
        still count as misses).
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        *,
        max_entry_bytes: int = DEFAULT_MAX_ENTRY_BYTES,
    ) -> None:
        if max_entries < 1:
            raise ConfigurationError("max_entries must be at least 1")
        self._max_entries = int(max_entries)
        self._max_entry_bytes = int(max_entry_bytes)
        self._entries: OrderedDict[bytes, np.ndarray] = OrderedDict()
        # Merge trees, content-addressed by density-array digest.  Kept
        # in a sibling LRU with the same capacity: a tree is tiny next
        # to its grid, and an evicted grid's tree ages out on its own.
        self._trees: OrderedDict[bytes, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._tree_hits = 0
        self._tree_misses = 0

    # ------------------------------------------------------------------
    @property
    def max_entries(self) -> int:
        """The LRU capacity."""
        return self._max_entries

    @property
    def hits(self) -> int:
        """Lookups answered from the cache (this instance)."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lookups that fell through to computation (this instance)."""
        return self._misses

    @property
    def evictions(self) -> int:
        """Entries dropped by the LRU bound (this instance)."""
        return self._evictions

    @property
    def hit_rate(self) -> float:
        """``hits / (hits + misses)``; 0.0 before any lookup."""
        total = self._hits + self._misses
        return self._hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def key_for(
        self,
        points: np.ndarray,
        bandwidth: np.ndarray,
        grid_x: np.ndarray,
        grid_y: np.ndarray,
        *,
        mode: str = "exact",
    ) -> bytes:
        """Content key of one ``evaluate_on_grid`` call.

        The *points* array is the live set projected through the view's
        subspace and the axes are derived from points + query bounds,
        so this key subsumes the (subspace fingerprint, live-set hash,
        bandwidth) triple without needing either object in scope.  The
        evaluation *mode* (``"exact"`` or ``"binned"``) participates in
        the digest: the binned approximation of a grid must never be
        served where the exact evaluation was requested, or vice versa.
        """
        h = hashlib.blake2b(
            fingerprint_arrays(points, bandwidth, grid_x, grid_y),
            digest_size=16,
        )
        h.update(mode.encode())
        return h.digest()

    def fetch(self, key: bytes) -> np.ndarray | None:
        """Return a writable copy of the cached grid, or ``None``.

        Hits move the entry to the most-recently-used position.  The
        returned array is a copy so callers can never poison the cached
        master.
        """
        with self._lock:
            cached = self._entries.get(key)
            if cached is None:
                self._misses += 1
                _MISSES.inc()
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            _HITS.inc()
            return cached.copy()

    def put(self, key: bytes, density: np.ndarray) -> None:
        """Store a grid under *key* (skipped for oversized arrays)."""
        if density.nbytes > self._max_entry_bytes:
            return
        master = np.array(density, copy=True)
        master.setflags(write=False)
        with self._lock:
            self._entries[key] = master
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1
                _EVICTIONS.inc()
            _ENTRIES.set(len(self._entries))

    # ------------------------------------------------------------------
    # Merge-tree side store (content-addressed by density digest)
    # ------------------------------------------------------------------
    def tree_key_for(self, density: np.ndarray) -> bytes:
        """Content key of a density array's merge tree.

        The tree is a pure function of the density values, so the
        digest of the density array alone addresses it — regardless of
        which kernel, bandwidth, or point set produced the grid.
        """
        return fingerprint_arrays(density)

    def fetch_tree(self, key: bytes) -> Any | None:
        """Return the cached merge tree for *key*, or ``None``.

        Trees are immutable, so the cached instance itself is returned
        (no copy) — sharing one tree across byte-identical grids also
        shares its per-query lookup cache.
        """
        with self._lock:
            tree = self._trees.get(key)
            if tree is None:
                self._tree_misses += 1
                _TREE_MISSES.inc()
                return None
            self._trees.move_to_end(key)
            self._tree_hits += 1
            _TREE_HITS.inc()
            return tree

    def put_tree(self, key: bytes, tree: Any) -> None:
        """Store a merge tree under *key* (sibling LRU, same capacity)."""
        with self._lock:
            self._trees[key] = tree
            self._trees.move_to_end(key)
            while len(self._trees) > self._max_entries:
                self._trees.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._entries.clear()
            self._trees.clear()
            _ENTRIES.set(0)

    def stats(self) -> dict[str, float]:
        """Snapshot of this instance's counters (JSON-compatible)."""
        return {
            "entries": len(self._entries),
            "max_entries": self._max_entries,
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "hit_rate": self.hit_rate,
            "tree_entries": len(self._trees),
            "tree_hits": self._tree_hits,
            "tree_misses": self._tree_misses,
        }


# ----------------------------------------------------------------------
# Process-global default cache
# ----------------------------------------------------------------------
_GLOBAL_LOCK = threading.Lock()
_GLOBAL_CACHE: DensityGridCache | None = None
_GLOBAL_DISABLED = False


def get_density_cache() -> DensityGridCache | None:
    """The process-wide cache consulted by ``evaluate_on_grid``.

    Lazily constructed with the default bounds on first use; ``None``
    while disabled via :func:`set_density_cache` /
    :func:`disabled_density_cache`.
    """
    global _GLOBAL_CACHE
    if _GLOBAL_DISABLED:
        return None
    if _GLOBAL_CACHE is None:
        with _GLOBAL_LOCK:
            if _GLOBAL_CACHE is None:
                _GLOBAL_CACHE = DensityGridCache()
    return _GLOBAL_CACHE


def set_density_cache(cache: DensityGridCache | None) -> None:
    """Install *cache* as the process-wide default (``None`` disables)."""
    global _GLOBAL_CACHE, _GLOBAL_DISABLED
    with _GLOBAL_LOCK:
        _GLOBAL_CACHE = cache
        _GLOBAL_DISABLED = cache is None


@contextmanager
def disabled_density_cache():
    """Context manager: run a block with grid caching switched off."""
    global _GLOBAL_CACHE, _GLOBAL_DISABLED
    with _GLOBAL_LOCK:
        previous, previously_disabled = _GLOBAL_CACHE, _GLOBAL_DISABLED
        _GLOBAL_CACHE, _GLOBAL_DISABLED = None, True
    try:
        yield
    finally:
        with _GLOBAL_LOCK:
            _GLOBAL_CACHE, _GLOBAL_DISABLED = previous, previously_disabled
