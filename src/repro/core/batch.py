"""Batch execution of interactive searches over many queries.

The paper's experiments always aggregate over query sets ("10 query
points"); so do the benchmarks.  This module formalizes that loop:
run a configured search for every query, collect the per-query results
and diagnoses, and summarize.

Each query is one :class:`~repro.core.engine.SearchEngine` finished by
:func:`~repro.core.search.drive`, the same loop
:meth:`InteractiveNNSearch.run <repro.core.search.InteractiveNNSearch.run>`
uses, so a batch entry equals the single-query run of its query.  All
engines share one :class:`~repro.core.engine.DatasetPrecomputation` so
per-dataset work (full point array, ambient subspace, global
statistics) happens once per batch instead of once per query.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from repro.analysis.diagnostics import MeaningfulnessDiagnosis, diagnose
from repro.analysis.quality import natural_neighbors
from repro.core.engine import DatasetPrecomputation, SearchEngine
from repro.core.search import InteractiveNNSearch, SearchResult, drive
from repro.exceptions import ConfigurationError
from repro.interaction.base import UserAgent
from repro.obs.logging import get_logger
from repro.obs.metrics import counter
from repro.obs.trace import span

_log = get_logger("core.batch")

_BATCHES = counter("batch.runs")

UserFactory = Callable[[int], UserAgent]


@dataclass(frozen=True)
class BatchEntry:
    """One query's outcome within a batch run."""

    query_index: int
    result: SearchResult = field(hash=False)
    neighbors: np.ndarray = field(hash=False)
    diagnosis: MeaningfulnessDiagnosis = field(hash=False)


@dataclass(frozen=True)
class BatchResult:
    """Aggregate outcome of a batch run.

    Attributes
    ----------
    entries:
        Per-query outcomes, in input order.
    """

    entries: tuple[BatchEntry, ...]

    @property
    def query_count(self) -> int:
        """Number of queries run."""
        return len(self.entries)

    @property
    def meaningful_count(self) -> int:
        """Queries diagnosed as having meaningful neighbors."""
        return sum(1 for entry in self.entries if entry.diagnosis.meaningful)

    @property
    def meaningful_fraction(self) -> float:
        """Fraction of queries with a meaningful outcome."""
        if not self.entries:
            return 0.0
        return self.meaningful_count / self.query_count

    @property
    def mean_natural_size(self) -> float:
        """Mean natural-neighbor count over queries that found one."""
        sizes = [e.neighbors.size for e in self.entries if e.neighbors.size]
        return float(np.mean(sizes)) if sizes else 0.0

    @property
    def mean_acceptance_rate(self) -> float:
        """Mean fraction of views the user accepted."""
        if not self.entries:
            return 0.0
        return float(
            np.mean([e.diagnosis.acceptance_rate for e in self.entries])
        )

    @cached_property
    def _entry_index(self) -> dict[int, BatchEntry]:
        """Query-index lookup table, built once on first use."""
        return {entry.query_index: entry for entry in self.entries}

    def entry_of(self, query_index: int) -> BatchEntry:
        """Full outcome of one query (by original query index)."""
        try:
            return self._entry_index[query_index]
        except KeyError:
            raise ConfigurationError(
                f"query {query_index} not in this batch"
            ) from None

    def neighbors_of(self, query_index: int) -> np.ndarray:
        """Natural neighbors of one query (by original query index).

        O(1) after the first call — a lazily built index replaces the
        old linear scan over entries.
        """
        return self.entry_of(query_index).neighbors


def journal_filename(position: int, query_index: int) -> str:
    """Canonical per-query journal filename inside a ``journal_dir``."""
    return f"session-{position:04d}-q{query_index}.jsonl"


def _open_journal(
    journal_dir: str | None,
    provenance: dict | None,
    position: int,
    query_index: int,
):
    """Create one per-query journal; a context yielding ``None`` when
    journaling is off."""
    if journal_dir is None:
        return nullcontext()
    from pathlib import Path

    from repro.obs.journal import SessionJournal

    return SessionJournal.create(
        Path(journal_dir) / journal_filename(position, query_index),
        provenance=provenance,
    )


def _finalize_entry(
    query_index: int, result: SearchResult
) -> BatchEntry:
    """Derive the per-query analysis artifacts from a finished result."""
    with span("batch.finalize", query=query_index):
        neighbors = natural_neighbors(
            result.probabilities,
            iterations=len(result.session.major_records),
        )
        _log.debug(
            "batch query %d: %d natural neighbors, %s",
            query_index,
            neighbors.size,
            result.reason.value,
        )
        return BatchEntry(
            query_index=query_index,
            result=result,
            neighbors=neighbors,
            diagnosis=diagnose(result),
        )


def run_batch(
    search: InteractiveNNSearch,
    query_indices: np.ndarray,
    user_factory: UserFactory,
    *,
    journal_dir: str | None = None,
    journal_provenance: dict | None = None,
) -> BatchResult:
    """Run the interactive search for every query index, in input order.

    Parameters
    ----------
    search:
        A configured search over the target dataset.
    query_indices:
        Dataset indices of the query points.  Every index is validated
        before any query runs.
    user_factory:
        ``factory(query_index) -> UserAgent``, called once per query
        just before that query runs.
    journal_dir:
        Optional directory for per-query session journals (see
        :class:`repro.obs.journal.SessionJournal`).  Each query writes
        ``session-<position>-q<index>.jsonl``.
    journal_provenance:
        Dataset-provenance record stored in each journal header so
        ``python -m repro replay`` can rebuild the dataset.

    Returns
    -------
    BatchResult
        Per-query outcomes in input order.
    """
    indices = np.asarray(query_indices, dtype=int)
    if indices.size == 0:
        raise ConfigurationError("query_indices must be non-empty")
    dataset = search.dataset
    for query_index in indices.tolist():
        if not 0 <= query_index < dataset.size:
            raise ConfigurationError(
                f"query index {query_index} out of range for {dataset.size}"
            )
    _BATCHES.inc()
    shared = DatasetPrecomputation(dataset)
    entries: list[BatchEntry] = []
    with span("search.batch", queries=int(indices.size)):
        for position, query_index in enumerate(indices.tolist()):
            with _open_journal(
                journal_dir, journal_provenance, position, query_index
            ) as journal:
                engine = SearchEngine(
                    dataset, search.config, precomputed=shared, journal=journal
                )
                result = drive(
                    engine,
                    dataset.points[query_index],
                    user_factory(query_index),
                )
            entries.append(_finalize_entry(query_index, result))
    return BatchResult(entries=tuple(entries))
