"""Batch execution of interactive searches over many queries.

The paper's experiments always aggregate over query sets ("10 query
points"); so do the benchmarks.  This module formalizes that loop:
run a configured search for every query, collect the per-query results
and diagnoses, and summarize.

Since the sans-io refactor the batch runner is an **interleaved
round-robin scheduler** over suspended :class:`~repro.core.engine.
SearchEngine` instances: up to ``max_in_flight`` engines are live at
once and each scheduler pass feeds every pending engine exactly one
user decision.  Engines are fully isolated (own RNG, own state), so the
per-query results are identical to sequential execution for every
``max_in_flight`` — ``max_in_flight=1`` *is* the classic sequential
loop.  All engines share one :class:`~repro.core.engine.
DatasetPrecomputation` so per-dataset work (full point array, ambient
subspace, global statistics) happens once per batch instead of once per
query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from repro.analysis.diagnostics import MeaningfulnessDiagnosis, diagnose
from repro.analysis.quality import natural_neighbors
from repro.core.engine import DatasetPrecomputation, SearchEngine, ViewRequest
from repro.core.search import InteractiveNNSearch, SearchResult
from repro.exceptions import ConfigurationError
from repro.interaction.base import UserAgent, validate_decision
from repro.interaction.factories import UserFactoryLike, build_user
from repro.obs.logging import get_logger
from repro.obs.metrics import counter
from repro.obs.trace import span

_log = get_logger("core.batch")

_BATCHES = counter("batch.runs")
_BATCH_STEPS = counter("batch.steps")

UserFactory = Callable[[int], UserAgent]

#: Default number of engines the scheduler keeps suspended at once.
DEFAULT_MAX_IN_FLIGHT = 8


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


@dataclass
class _Slot:
    """One in-flight engine tracked by the round-robin scheduler."""

    position: int
    query_index: int
    engine: SearchEngine
    user: UserAgent
    event: ViewRequest


def journal_filename(position: int, query_index: int) -> str:
    """Canonical per-query journal filename inside a ``journal_dir``."""
    return f"session-{position:04d}-q{query_index}.jsonl"


def _open_journal(
    journal_dir: str | None,
    provenance: dict | None,
    position: int,
    query_index: int,
):
    """Create one per-query journal, or ``None`` when journaling is off."""
    if journal_dir is None:
        return None
    from pathlib import Path

    from repro.obs.journal import SessionJournal

    return SessionJournal.create(
        Path(journal_dir) / journal_filename(position, query_index),
        provenance=provenance,
    )


def _close_journal(engine: SearchEngine) -> None:
    """Close an engine's journal once its run has been finalized."""
    if engine.journal is not None:
        engine.journal.close()


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
    user_factory: UserFactoryLike,
    *,
    max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
    journal_dir: str | None = None,
    journal_provenance: dict | None = None,
) -> BatchResult:
    """Run the interactive search for every query index.

    Parameters
    ----------
    search:
        A configured search over the target dataset.
    query_indices:
        Dataset indices of the query points.
    user_factory:
        Either a classic ``factory(query_index) -> UserAgent`` callable
        or a :class:`~repro.interaction.factories.DatasetUserFactory`,
        which receives the searched dataset.
    max_in_flight:
        Maximum number of suspended engines alive at once.  ``1``
        degenerates to the classic sequential loop; higher values
        interleave runs round-robin (one decision per engine per pass).
        Results are identical for every value — engines are isolated —
        so the knob trades peak memory against scheduling granularity
        (e.g. amortizing a remote user's round-trip latency).
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
        Per-query outcomes in input order, regardless of the completion
        order under interleaving.
    """
    indices = np.asarray(query_indices, dtype=int)
    if indices.size == 0:
        raise ConfigurationError("query_indices must be non-empty")
    if max_in_flight < 1:
        raise ConfigurationError("max_in_flight must be at least 1")
    dataset = search.dataset
    for query_index in indices.tolist():
        if not 0 <= query_index < dataset.size:
            raise ConfigurationError(
                f"query index {query_index} out of range for {dataset.size}"
            )
    _BATCHES.inc()
    shared = DatasetPrecomputation(dataset)
    entries: list[BatchEntry | None] = [None] * indices.size
    pending = list(enumerate(indices.tolist()))  # (position, query_index)
    next_pending = 0
    slots: list[_Slot] = []

    def _launch() -> None:
        """Fill free capacity with fresh engines (may finish instantly)."""
        nonlocal next_pending
        while next_pending < len(pending) and len(slots) < max_in_flight:
            position, query_index = pending[next_pending]
            next_pending += 1
            engine = SearchEngine(
                dataset,
                search.config,
                precomputed=shared,
                structural_spans=False,
                journal=_open_journal(
                    journal_dir, journal_provenance, position, query_index
                ),
            )
            user = build_user(user_factory, dataset, query_index)
            with span("batch.start", query=query_index):
                event = engine.start(dataset.points[query_index])
            if isinstance(event, ViewRequest):
                slots.append(
                    _Slot(
                        position=position,
                        query_index=query_index,
                        engine=engine,
                        user=user,
                        event=event,
                    )
                )
            else:  # degenerate run: terminated without any decision
                entries[position] = _finalize_entry(query_index, event)
                _close_journal(engine)

    with span(
        "search.batch",
        queries=int(indices.size),
        max_in_flight=int(max_in_flight),
    ):
        _launch()
        while slots:
            # One round-robin pass: each live engine gets one decision.
            for slot in list(slots):
                event = slot.event
                with span(
                    "batch.step",
                    query=slot.query_index,
                    step=event.step,
                ):
                    _BATCH_STEPS.inc()
                    decision = validate_decision(
                        slot.user.review_view(event.view), event.view
                    )
                    outcome = slot.engine.submit(decision)
                if isinstance(outcome, ViewRequest):
                    slot.event = outcome
                else:
                    entries[slot.position] = _finalize_entry(
                        slot.query_index, outcome
                    )
                    _close_journal(slot.engine)
                    slots.remove(slot)
            _launch()
    return BatchResult(entries=tuple(entries))  # type: ignore[arg-type]
