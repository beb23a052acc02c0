"""Sans-io search engine: the interactive loop as a state machine.

The paper's system is a *dialogue* (Fig. 2): the computer finds a
query-centered projection, the human separates the query cluster, and
the cycle repeats until the meaningfulness ranking stabilizes.  The
original implementation owned the call stack — ``InteractiveNNSearch``
invoked ``user.review_view`` synchronously — so a session could never
be suspended, persisted, or served to a remote client.

This module inverts that control flow.  :class:`SearchEngine` performs
**no I/O and never calls a user**: it advances to the next decision
point and *returns* a :class:`ViewRequest`; the caller (a blocking
driver, an asyncio adapter, a batch scheduler, a web handler...)
obtains a :class:`~repro.interaction.base.UserDecision` however it
likes and feeds it back through :meth:`SearchEngine.submit`.

::

    engine = SearchEngine(dataset, config)
    event = engine.start(query)            # -> ViewRequest
    while not engine.finished:
        decision = ...                     # any transport, any latency
        event = engine.submit(decision)    # -> ViewRequest | SearchResult
    result = engine.result

All per-run state lives in an inspectable :class:`EngineState`, and the
engine only consumes randomness *between* suspension points, so a
suspended engine can be checkpointed losslessly (including the
``np.random.Generator`` bit-state) and resumed later — see
:mod:`repro.core.serialization`.

The classic blocking API is preserved:
:meth:`repro.core.search.InteractiveNNSearch.run` is now a thin driver
over this engine and produces byte-identical results (locked in by
``tests/core/test_engine_golden.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

import numpy as np

from repro.core.config import SearchConfig
from repro.core.counting import PreferenceCounter, prune_unpicked
from repro.core.meaningfulness import (
    MeaningfulnessAccumulator,
    iteration_statistics,
)
from repro.core.projections import (
    ProjectionSearchResult,
    find_query_centered_projection,
)
from repro.core.session import (
    MajorIterationRecord,
    MinorIterationRecord,
    SearchSession,
)
from repro.core.termination import StabilityTermination
from repro.data.dataset import Dataset
from repro.density.profiles import VisualProfile
from repro.exceptions import (
    ConfigurationError,
    DimensionalityError,
    EngineStateError,
    JournalError,
)
from repro.geometry.subspace import Subspace
from repro.interaction.base import ProjectionView, UserDecision, validate_decision
from repro.obs.logging import get_logger
from repro.obs.metrics import counter
from repro.obs.trace import NULL_SPAN, TraceReport, span

_log = get_logger("core.engine")

# Process-wide counters of interactive-loop activity (always live —
# one guarded integer add each; see docs/OBSERVABILITY.md).  The
# ``search.*`` family predates the engine and keeps its names.
_RUNS = counter("search.runs")
_MAJORS = counter("search.major_iterations")
_MINORS = counter("search.minor_iterations")
_ACCEPTED = counter("search.accepted_views")
_PRUNED = counter("search.pruned_points")
# Engine-specific counters (see docs/ENGINE.md).
_STEPS = counter("engine.steps")
_RESUMES = counter("engine.resumes")


class TerminationReason(Enum):
    """Why a search run ended."""

    STABLE = "top-set stabilized"
    ITERATION_LIMIT = "maximum major iterations reached"
    EXHAUSTED = "live set too small to continue"


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one interactive search run.

    Attributes
    ----------
    neighbor_indices:
        Indices of the ``s`` points with the highest meaningfulness
        probability, in descending probability order.
    probabilities:
        Final averaged meaningfulness probabilities for every original
        point (pruned points keep the average over the iterations they
        participated in).
    support:
        The effective support used (``max(config.support, d)``).
    session:
        Full audit trail of the run.
    reason:
        Why the run terminated.
    trace:
        Per-phase timing trace of the run, populated only when the
        search was executed with ``run(..., trace=True)`` (and no
        ambient tracer was already active); ``None`` otherwise.
        Tracing never alters the search outcome.
    """

    neighbor_indices: np.ndarray
    probabilities: np.ndarray
    support: int
    session: SearchSession = field(hash=False)
    reason: TerminationReason = TerminationReason.STABLE
    trace: TraceReport | None = field(default=None, hash=False, compare=False)

    @property
    def neighbor_probabilities(self) -> np.ndarray:
        """Probabilities of the returned neighbors, descending."""
        return self.probabilities[self.neighbor_indices]

    def summary(self) -> dict[str, Any]:
        """Compact run summary (see :meth:`SearchSession.summary`)."""
        return self.session.summary(reason=self.reason.value)


class EnginePhase(Enum):
    """Lifecycle phase of a :class:`SearchEngine`."""

    CREATED = "created"
    RUNNING = "running"
    AWAITING_DECISION = "awaiting_decision"
    FINISHED = "finished"


@dataclass(frozen=True)
class ViewRequest:
    """A suspension point: the engine asks for one user decision.

    Attributes
    ----------
    view:
        The projection view to present (exactly what
        ``UserAgent.review_view`` receives).
    major_index, minor_index:
        Iteration coordinates of the pending view.
    step:
        Monotonic count of view requests emitted by this engine run
        (resumed engines continue the count from the checkpoint).
    """

    view: ProjectionView
    major_index: int
    minor_index: int
    step: int


@dataclass
class EngineState:
    """All per-run mutable state of a :class:`SearchEngine`.

    Everything the run *is* lives here — the live set, preference
    counter, probability accumulator, termination tracker, subspace
    remainder, and RNG — so a suspended engine can be inspected,
    serialized (see :func:`repro.core.serialization.checkpoint_to_dict`)
    and reconstructed without touching engine internals.

    Attributes
    ----------
    query:
        The ``(d,)`` query point in ambient coordinates.
    live:
        Original indices of the current (possibly pruned) live set.
    major, minor:
        Zero-based coordinates of the pending (or next) view.
    step:
        Count of view requests emitted so far.
    support:
        Effective support ``max(config.support, d)``.
    views_per_major:
        ``d // 2`` — projections per major iteration.
    current:
        Subspace remainder the pending view is drawn from (``None``
        outside a major iteration).
    preferences:
        Preference counts of the major iteration in progress (``None``
        outside a major iteration).
    accumulator:
        Cross-iteration meaningfulness aggregation.
    termination:
        Top-``s`` overlap stability tracker.
    session:
        Audit trail collected so far.
    rng:
        The run's random generator.  Only consumed while computing a
        view, never across suspension points.
    rng_state_at_view:
        Bit-generator state snapshot taken immediately *before* the
        pending view was computed; replaying from it regenerates the
        identical view.  ``None`` when no view is pending.
    reason:
        Current termination reason (defaults to the iteration limit, as
        in the classic loop).
    """

    query: np.ndarray
    live: np.ndarray
    major: int
    minor: int
    step: int
    support: int
    views_per_major: int
    current: Subspace | None
    preferences: PreferenceCounter | None
    accumulator: MeaningfulnessAccumulator
    termination: StabilityTermination
    session: SearchSession
    rng: np.random.Generator
    rng_state_at_view: dict[str, Any] | None = None
    reason: TerminationReason = TerminationReason.ITERATION_LIMIT


class DatasetPrecomputation:
    """Per-dataset artifacts shared by every engine over that dataset.

    Batch workloads run many queries against one dataset; several
    inputs to the first major iteration are functions of the dataset
    alone and were recomputed per query by the classic loop:

    * the full live-point array (the classic loop fancy-indexed
      ``points[live]`` even when ``live`` was everything — a full
      ``(n, d)`` copy per query per major iteration);
    * the full ambient subspace;
    * the global per-attribute variance / covariance (consumed by
      diagnostics and benchmark code paths).

    All cached values are bit-identical to what a cold engine computes,
    so sharing a precomputation across engines never changes results.
    Instances are read-only after construction and safe to share.
    """

    def __init__(self, dataset: Dataset) -> None:
        self._dataset = dataset
        pts = dataset.points
        self._full_points = pts if pts.flags["C_CONTIGUOUS"] else np.ascontiguousarray(pts)
        self._full_live = np.arange(dataset.size)
        self._full_live.setflags(write=False)
        self._full_subspace = Subspace.full(dataset.dim)
        self._axis_variance: np.ndarray | None = None
        self._covariance: np.ndarray | None = None

    @property
    def dataset(self) -> Dataset:
        """The dataset these precomputations belong to."""
        return self._dataset

    @property
    def full_live(self) -> np.ndarray:
        """``arange(n)`` — the unpruned live index vector (shared)."""
        return self._full_live

    @property
    def full_subspace(self) -> Subspace:
        """The ambient space ``R^d`` (shared)."""
        return self._full_subspace

    def points_for(self, live: np.ndarray) -> np.ndarray:
        """Live-point array; reuses the dataset array for the full set.

        ``dataset.points[live]`` materializes an ``(n_live, d)`` copy.
        When *live* is the identity permutation the copy carries the
        exact same values as the dataset array, so the shared array is
        returned instead (callers treat live points as read-only).
        """
        if live.size == self._dataset.size:
            return self._full_points
        return self._dataset.points[live]

    def axis_variance(self) -> np.ndarray:
        """Global per-attribute variance (lazily computed, cached)."""
        if self._axis_variance is None:
            self._axis_variance = self._full_points.var(axis=0)
        return self._axis_variance

    def covariance(self) -> np.ndarray:
        """Global covariance matrix (lazily computed, cached)."""
        if self._covariance is None:
            from repro.geometry.pca import covariance_matrix

            self._covariance = covariance_matrix(self._full_points)
        return self._covariance


class SearchEngine:
    """Suspendable state machine executing one interactive search.

    Parameters
    ----------
    dataset:
        The searched dataset.
    config:
        Search parameters; defaults reproduce the paper's setup.
    precomputed:
        Optional shared :class:`DatasetPrecomputation` (must wrap the
        same dataset).  :func:`~repro.core.batch.run_batch` and the
        session service pass one instance to every engine over a
        dataset so per-dataset work is done once.
    structural_spans:
        When true (default), the engine opens the classic
        ``search.run`` / ``search.major`` / ``search.minor`` span tree
        and *holds spans open across suspension points*, so a
        sequential driver on one thread reproduces the exact trace
        shape of the old blocking loop.  Callers that keep many engines
        suspended on one thread (the session service) or rebuild one
        for an audit (journal replay) pass ``False`` — held-open spans
        from different engines would otherwise nest into each other —
        and wrap their own per-request spans instead.
    journal:
        Optional :class:`~repro.obs.journal.SessionJournal` flight
        recorder.  When given, the engine appends one record per
        transition (session start, view, decision, resume, result);
        checkpoints embed the journal cursor so a resumed run appends
        to the same file.  ``None`` (default) records nothing and
        costs nothing beyond a branch per transition.
    """

    def __init__(
        self,
        dataset: Dataset,
        config: SearchConfig | None = None,
        *,
        precomputed: DatasetPrecomputation | None = None,
        structural_spans: bool = True,
        journal: Any = None,
    ) -> None:
        if precomputed is not None and precomputed.dataset is not dataset:
            raise ConfigurationError(
                "precomputed cache belongs to a different dataset"
            )
        self._dataset = dataset
        self._config = config or SearchConfig()
        self._shared = precomputed or DatasetPrecomputation(dataset)
        self._structural = structural_spans
        self._journal = journal
        self._phase = EnginePhase.CREATED
        self._state: EngineState | None = None
        self._result: SearchResult | None = None
        # Transient (derived) per-major artifacts — never serialized.
        self._points: np.ndarray | None = None
        self._pending_found = None  # ProjectionSearchResult of pending view
        self._pending_view: ProjectionView | None = None
        # Where the history lists sit in this engine's last checkpoint
        # bytes; repro.core.serialization.checkpoint_to_bytes reuses
        # their text and encodes only what was appended since.
        self._encoded_history: Any = None
        # Open structural spans (context managers + span objects).
        self._run_cm = self._major_cm = self._minor_cm = None
        self._run_span = self._major_span = self._minor_span = NULL_SPAN

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dataset(self) -> Dataset:
        """The searched dataset."""
        return self._dataset

    @property
    def config(self) -> SearchConfig:
        """The active configuration."""
        return self._config

    @property
    def precomputed(self) -> DatasetPrecomputation:
        """The (possibly shared) per-dataset precomputation cache."""
        return self._shared

    @property
    def phase(self) -> EnginePhase:
        """Current lifecycle phase."""
        return self._phase

    @property
    def finished(self) -> bool:
        """True once the run has produced its :class:`SearchResult`."""
        return self._phase == EnginePhase.FINISHED

    @property
    def state(self) -> EngineState:
        """The run's mutable state (raises before :meth:`start`)."""
        if self._state is None:
            raise EngineStateError("engine has not been started")
        return self._state

    @property
    def result(self) -> SearchResult:
        """The final result (raises until the engine is finished)."""
        if self._result is None:
            raise EngineStateError("engine has not finished")
        return self._result

    @property
    def pending_view(self) -> ProjectionView | None:
        """The view awaiting a decision, if any."""
        return self._pending_view

    @property
    def journal(self) -> Any:
        """The attached flight recorder, if any."""
        return self._journal

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, query: np.ndarray) -> ViewRequest | SearchResult:
        """Begin the run; returns the first suspension point (or result).

        Parameters
        ----------
        query:
            ``(d,)`` query point ``Q`` in ambient coordinates.

        Returns
        -------
        ViewRequest | SearchResult
            A :class:`ViewRequest` to answer via :meth:`submit`, or the
            final :class:`SearchResult` when the run terminates without
            needing any decision (e.g. fewer than three points).
        """
        if self._phase != EnginePhase.CREATED:
            raise EngineStateError(f"cannot start an engine in phase {self._phase.value}")
        q = np.asarray(query, dtype=float)
        d = self._dataset.dim
        if q.shape != (d,):
            raise DimensionalityError(
                f"query must have shape ({d},), got {q.shape}"
            )
        config = self._config
        n = self._dataset.size
        support = config.effective_support(d)
        views_per_major = d // 2
        self._state = EngineState(
            query=q,
            live=self._shared.full_live,
            major=0,
            minor=0,
            step=0,
            support=support,
            views_per_major=views_per_major,
            current=None,
            preferences=None,
            accumulator=MeaningfulnessAccumulator(n),
            termination=StabilityTermination(
                support,
                config.overlap_threshold,
                min_iterations=config.min_major_iterations,
                max_iterations=config.max_major_iterations,
            ),
            session=SearchSession(),
            rng=np.random.default_rng(config.rng_seed),
        )
        _RUNS.inc()
        if self._journal is not None:
            # The RNG bit-state is still pristine here (randomness is
            # only consumed inside _compute_view), so the recorded
            # digest identifies the run's full starting conditions.
            self._journal.record_session_start(
                dataset=self._dataset,
                config=config,
                query=q,
                rng_state=self._state.rng.bit_generator.state,
                support=support,
                views_per_major=views_per_major,
            )
        _log.info(
            "search start: n=%d d=%d support=%d views/major=%d",
            n,
            d,
            support,
            views_per_major,
        )
        self._phase = EnginePhase.RUNNING
        self._open_run_span()
        return self._advance(major_start=True)

    def submit(self, decision: UserDecision) -> ViewRequest | SearchResult:
        """Feed one user decision; advance to the next suspension point.

        Parameters
        ----------
        decision:
            The user's reaction to the pending view.  Validated against
            the view's live-point count.

        Returns
        -------
        ViewRequest | SearchResult
            The next view to decide on, or the final result.
        """
        if self._phase != EnginePhase.AWAITING_DECISION:
            raise EngineStateError(
                f"no decision pending (engine phase: {self._phase.value})"
            )
        state = self._state
        view = self._pending_view
        found = self._pending_found
        decision = validate_decision(decision, view)
        _STEPS.inc()
        if decision.accepted:
            _ACCEPTED.inc()
        if self._journal is not None:
            self._journal.record_decision(decision, view, step=state.step)
        self._minor_span.set(
            accepted=decision.accepted,
            selected=decision.selected_count,
        )
        state.preferences.record(
            state.live,
            decision.selected_mask,
            weight=self._config.projection_weight * decision.weight,
        )
        self._close_minor_span()
        # Binned KDE serves the view-*search* phase; a view the user
        # accepted enters the audit trail, so its statistics are
        # recomputed with the exact estimator (deterministic, no RNG —
        # binned replay stays byte-identical).
        recorded_stats = view.profile.statistics
        if decision.accepted and self._config.kde_mode != "exact":
            recorded_stats = view.profile.exact_statistics(view.projected_points)
        state.session.record_minor(
            MinorIterationRecord(
                major_index=state.major,
                minor_index=state.minor,
                subspace=found.projection,
                profile_statistics=recorded_stats,
                accepted=decision.accepted,
                threshold=decision.threshold,
                selected_count=decision.selected_count,
                live_count=state.live.size,
                note=decision.note,
                refinement_dims=found.refinement_dims,
                selected_indices=state.live[decision.selected_mask],
            )
        )
        state.current = found.remainder
        state.minor += 1
        self._pending_view = None
        self._pending_found = None
        state.rng_state_at_view = None
        self._phase = EnginePhase.RUNNING
        return self._advance(major_start=False)

    def close(self) -> None:
        """Release any held-open structural spans (abandoned runs).

        Finishing normally closes spans; call this when dropping an
        unfinished engine while tracing so the span tree stays balanced.
        An unfinished engine awaiting a decision can be resumed in
        place with :meth:`wake`.
        """
        self._close_minor_span()
        self._close_major_span()
        self._close_run_span()
        # The live-point copy is derived state; :meth:`wake` rebuilds it.
        self._points = None

    def wake(
        self, *, journal_context: dict[str, Any] | None = None
    ) -> ViewRequest:
        """Resume this engine in place after :meth:`close` suspended it.

        The in-memory twin of
        :func:`~repro.core.serialization.resume_engine` on this engine's
        own checkpoint: the run counts the resume,
        reopens its journal after the journal's own cursor and writes
        the same ``resume`` and ``view`` records, and returns the same
        request.  Only the state rebuild and the view recompute are
        skipped, because the state and the view are still here.

        *journal_context* is set on the reopened journal
        (:meth:`~repro.obs.journal.SessionJournal.set_context`) before
        it records anything.

        Raises
        ------
        repro.exceptions.EngineStateError
            If the engine is not awaiting a decision.
        """
        if self._phase != EnginePhase.AWAITING_DECISION:
            raise EngineStateError(
                f"only a suspended engine can wake (phase: {self._phase.value})"
            )
        if self._journal is not None:
            self._journal = self._reopen_journal(journal_context)
        # A checkpoint resumes at the boundary before the pending view;
        # _emit_view steps past it again.
        self._state.step -= 1
        self._reenter()
        self._open_minor_span()
        return self._emit_view(self._pending_found, self._pending_view)

    # ------------------------------------------------------------------
    # The state machine proper
    # ------------------------------------------------------------------
    def _advance(self, *, major_start: bool) -> ViewRequest | SearchResult:
        """Run computer-side work until the next suspension or the end."""
        state = self._state
        config = self._config
        at_major_start = major_start
        while True:
            if at_major_start:
                if state.major >= config.max_major_iterations:
                    return self._finalize()
                if state.live.size < 3:
                    state.reason = TerminationReason.EXHAUSTED
                    return self._finalize()
                _MAJORS.inc()
                state.preferences = PreferenceCounter(self._dataset.size)
                self._open_major_span()
                self._points = self._shared.points_for(state.live)
                state.current = self._shared.full_subspace
                state.minor = 0
                at_major_start = False

            if state.minor < state.views_per_major and state.current.dim >= 2:
                return self._compute_view()

            stop = self._finish_major()
            if stop:
                state.reason = self._stop_reason()
                return self._finalize()
            state.major += 1
            at_major_start = True

    def _compute_view(self) -> ViewRequest:
        """Compute the pending view (the only RNG-consuming section)."""
        state = self._state
        config = self._config
        _MINORS.inc()
        state.rng_state_at_view = state.rng.bit_generator.state
        self._open_minor_span()
        with span(
            "engine.step",
            op="compute_view",
            major=state.major,
            minor=state.minor,
        ):
            found = find_query_centered_projection(
                self._points,
                state.query,
                state.current,
                state.support,
                axis_parallel=config.axis_parallel,
                restarts=config.projection_restarts,
                rng=state.rng,
            )
            projected = found.projection.project(self._points)
            query_2d = found.projection.project(state.query)
            profile = VisualProfile.build(
                projected,
                query_2d,
                resolution=config.grid_resolution,
                bandwidth_scale=config.bandwidth_scale,
                kde_mode=config.kde_mode,
            )
            # Precompute the grid's merge tree inside the engine.step
            # span: every connectivity question the user asks about this
            # view (any tau) is then a lookup, and the one-time sweep is
            # attributed to view computation rather than to the user's
            # decision window.
            profile.grid.merge_tree
        view = ProjectionView(
            profile=profile,
            projected_points=projected,
            query_2d=query_2d,
            subspace=found.projection,
            live_indices=state.live,
            major_index=state.major,
            minor_index=state.minor,
            total_points=self._dataset.size,
        )
        return self._emit_view(found, view)

    def _emit_view(
        self, found: ProjectionSearchResult, view: ProjectionView
    ) -> ViewRequest:
        """Suspend on *view*: the tail shared by compute and wake."""
        state = self._state
        self._pending_found = found
        self._pending_view = view
        self._phase = EnginePhase.AWAITING_DECISION
        state.step += 1
        request = ViewRequest(
            view=view,
            major_index=state.major,
            minor_index=state.minor,
            step=state.step,
        )
        if self._journal is not None:
            self._journal.record_view(request, state)
        return request

    def _finish_major(self) -> bool:
        """Statistics, accumulation, pruning, audit; returns *stop*."""
        state = self._state
        config = self._config
        preferences = state.preferences
        with span("search.statistics"):
            population = (
                state.live.size if config.use_live_population else self._dataset.size
            )
            stats = iteration_statistics(
                np.asarray(preferences.pick_sizes, dtype=float),
                population,
                weights=np.asarray(preferences.weights, dtype=float),
            )
            state.accumulator.update(
                state.live, preferences.counts_for(state.live), stats
            )
            probabilities = state.accumulator.averages()
            stop = state.termination.should_stop(probabilities)

        with span("search.prune"):
            live_after = self._prune(state.live, preferences)
        _PRUNED.inc(int(state.live.size - live_after.size))
        accepted_views = sum(1 for s_ in preferences.pick_sizes if s_ > 0)
        self._major_span.set(
            live_after=int(live_after.size),
            accepted_views=accepted_views,
            overlap=state.termination.last_overlap,
        )
        self._close_major_span()
        state.session.record_major(
            MajorIterationRecord(
                index=state.major,
                live_count_before=state.live.size,
                live_count_after=live_after.size,
                pick_counts=tuple(preferences.pick_sizes),
                expected=stats.expected,
                variance=stats.variance,
                accepted_views=accepted_views,
                overlap=state.termination.last_overlap,
            ),
            probabilities,
        )
        _log.debug(
            "major %d: live %d -> %d, overlap=%s",
            state.major,
            state.live.size,
            live_after.size,
            state.termination.last_overlap,
        )
        state.live = live_after
        state.preferences = None
        state.current = None
        self._points = None
        return stop

    def _stop_reason(self) -> TerminationReason:
        """Classic reason resolution when the stability tracker stops."""
        state = self._state
        config = self._config
        if state.termination.iterations < config.max_major_iterations or (
            state.termination.last_overlap is not None
            and state.termination.last_overlap >= config.overlap_threshold
        ):
            return TerminationReason.STABLE
        return TerminationReason.ITERATION_LIMIT

    def _finalize(self) -> SearchResult:
        state = self._state
        probabilities = state.accumulator.averages()
        top = state.accumulator.top_indices(state.support)
        self._run_span.set(
            reason=state.reason.value,
            major_iterations=len(state.session.major_records),
            total_views=state.session.total_views,
        )
        self._close_run_span()
        _log.info(
            "search done: %s after %d major iterations (%d views, %d accepted)",
            state.reason.value,
            len(state.session.major_records),
            state.session.total_views,
            state.session.accepted_views,
        )
        self._result = SearchResult(
            neighbor_indices=top,
            probabilities=probabilities,
            support=state.support,
            session=state.session,
            reason=state.reason,
        )
        self._phase = EnginePhase.FINISHED
        if self._journal is not None:
            self._journal.record_result(self._result)
        return self._result

    def _prune(self, live: np.ndarray, preferences: PreferenceCounter) -> np.ndarray:
        """Drop never-picked points (Fig. 2), unless that empties the set.

        The policy lives in :func:`repro.core.counting.prune_unpicked`
        (shared with the property-test suite); this wrapper only applies
        the ``remove_unpicked`` configuration switch.
        """
        if not self._config.remove_unpicked:
            return live
        return prune_unpicked(live, preferences)

    # ------------------------------------------------------------------
    # Resume support (used by repro.core.serialization)
    # ------------------------------------------------------------------
    def _restore(self, state: EngineState) -> ViewRequest:
        """Install a checkpointed state and recompute the pending view.

        The checkpoint captures the boundary *before* the pending view
        was computed (``state.rng`` already carries the pre-view
        bit-state), so replaying the computation regenerates the
        identical view and the run proceeds exactly as the
        uninterrupted one would have.
        """
        if self._phase != EnginePhase.CREATED:
            raise EngineStateError("can only restore into a fresh engine")
        if state.current is None or state.preferences is None:
            raise EngineStateError("checkpoint state has no pending view")
        self._state = state
        self._reenter()
        return self._compute_view()

    def _reenter(self) -> None:
        """What every resume does before its view: count, record, and
        reopen the structural spans."""
        state = self._state
        self._points = self._shared.points_for(state.live)
        _RESUMES.inc()
        if self._journal is not None:
            self._journal.record_resume(state)
        _log.info(
            "engine resume: major=%d minor=%d live=%d",
            state.major,
            state.minor,
            int(state.live.size),
        )
        self._open_run_span()
        self._open_major_span()

    def _reopen_journal(self, context: dict[str, Any] | None) -> Any:
        """The closed journal reopened after its own cursor, or ``None``.

        Only the file's tail is checked
        (:meth:`~repro.obs.journal.SessionJournal.reopen`).  The journal
        is observability, not state: one that cannot be reopened is
        logged and dropped, and the run continues.
        """
        journal = self._journal
        journal.close()
        try:
            reopened = journal.reopen()
        except (JournalError, OSError) as exc:
            _log.warning(
                "journal reopen failed for %s (%s); continuing without journal",
                journal.path,
                exc,
            )
            return None
        if context:
            reopened.set_context(**context)
        return reopened

    # ------------------------------------------------------------------
    # Structural span bookkeeping
    # ------------------------------------------------------------------
    def _open_run_span(self) -> None:
        if not self._structural:
            return
        state = self._state
        self._run_cm = span(
            "search.run",
            n=int(self._dataset.size),
            dim=int(self._dataset.dim),
            support=state.support,
            views_per_major=state.views_per_major,
        )
        self._run_span = self._run_cm.__enter__()

    def _open_major_span(self) -> None:
        if not self._structural:
            return
        state = self._state
        self._major_cm = span(
            "search.major",
            index=state.major,
            live_before=int(state.live.size),
        )
        self._major_span = self._major_cm.__enter__()

    def _open_minor_span(self) -> None:
        if not self._structural:
            return
        state = self._state
        self._minor_cm = span(
            "search.minor",
            major=state.major,
            minor=state.minor,
            live=int(state.live.size),
            current_dim=state.current.dim,
        )
        self._minor_span = self._minor_cm.__enter__()

    def _close_minor_span(self) -> None:
        if self._minor_cm is not None:
            self._minor_cm.__exit__(None, None, None)
            self._minor_cm = None
        self._minor_span = NULL_SPAN

    def _close_major_span(self) -> None:
        if self._major_cm is not None:
            self._major_cm.__exit__(None, None, None)
            self._major_cm = None
        self._major_span = NULL_SPAN

    def _close_run_span(self) -> None:
        if self._run_cm is not None:
            self._run_cm.__exit__(None, None, None)
            self._run_cm = None
        self._run_span = NULL_SPAN
