"""Process-parallel batch execution with shared dataset precomputation.

``run_batch`` interleaves suspended engines on one core; this module
fans the same workload out over a **spawn-safe process pool** so batch
throughput scales with the hardware.  The design goals, in order:

1. **Byte-identical results.**  Every engine is fully isolated (own
   PCG64 stream seeded from the config, own state), so a query's
   outcome is a pure function of *(dataset, config, query, user)* —
   independent of which process runs it or in what order.  The parity
   suite (``tests/core/test_parallel.py``) checks process-parallel
   results against the in-process scheduler **and** against the
   pre-refactor sequential goldens, element for element.

2. **Share per-dataset work, don't re-derive it.**  The point matrix is
   published once through :class:`multiprocessing.shared_memory.
   SharedMemory` — workers map it zero-copy instead of unpickling an
   ``(n, d)`` array per task — and the parent's
   :meth:`~repro.core.engine.DatasetPrecomputation.export_state`
   (covariance, per-attribute variance) is pickled **once per worker**
   via the pool initializer, so no worker re-derives dataset statistics
   and every engine inside a worker shares one
   :class:`~repro.core.engine.DatasetPrecomputation`.

3. **Survive worker death.**  A worker killed mid-query (OOM killer,
   segfault, operator) breaks the pool; the executor rebuilds it and
   resubmits every unfinished query, charging each one retry.  A query
   that keeps killing workers raises :class:`WorkerCrashError` after
   ``max_retries`` extra attempts.  Shared memory is unlinked in a
   ``finally`` in all cases — no orphaned segments.

Worker-side observability does not vanish: each task brackets its work
in a :class:`~repro.obs.snapshot.TelemetryCollector` and ships back a
picklable :class:`~repro.obs.snapshot.TelemetrySnapshot` — counter
deltas, histogram bucket/sum/count deltas, gauge last-writes, log
summaries, and (when the parent is tracing) the worker's full span
trees.  The parent folds the instruments into its own registry via
:meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot` and adopts
the span trees into the ambient tracer on a **per-worker lane**, so
``python -m repro --trace batch --workers N`` yields one unified trace
whose Chrome export shows one track per worker, alongside the
executor's own ``batch.parallel.*`` spans and counters.  Passing
``telemetry=False`` opts out (one WARNING is emitted the first time a
batch drops worker telemetry).

The entry point is :func:`run_parallel_batch`; prefer calling it
through ``run_batch(..., workers=N)``.
"""

from __future__ import annotations

import json
import os
import pickle
import uuid
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context, shared_memory
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.config import SearchConfig
from repro.core.engine import DatasetPrecomputation, SearchEngine, ViewRequest
from repro.data.dataset import Dataset
from repro.exceptions import ConfigurationError, ReproError
from repro.interaction.base import validate_decision
from repro.interaction.factories import UserFactoryLike, build_user
from repro.obs.export import span_from_dict
from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY, counter
from repro.obs.snapshot import (
    TelemetryCollector,
    TelemetrySnapshot,
    replay_worker_logs,
)
from repro.obs.trace import current_tracer, span, tracing_enabled

__all__ = [
    "run_parallel_batch",
    "WorkerCrashError",
    "SharedDatasetHandle",
    "DEFAULT_MAX_RETRIES",
]

_log = get_logger("core.parallel")

_TASKS = counter("batch.parallel.tasks")
_RETRIES = counter("batch.parallel.retries")
_POOL_RESTARTS = counter("batch.parallel.pool_restarts")

#: One-time guard for the telemetry-drop warning (satellite of the
#: fleet-observability issue): opting out of worker telemetry on a
#: traced/metered batch silently loses worker-side instruments, so the
#: first such batch says so loudly on the ``repro.obs`` logger.
_TELEMETRY_DROP_WARNED = False


def _warn_telemetry_dropped(workers: int) -> None:
    """Emit the one-time worker-telemetry-drop warning."""
    global _TELEMETRY_DROP_WARNED
    if _TELEMETRY_DROP_WARNED:
        return
    _TELEMETRY_DROP_WARNED = True
    get_logger("obs").warning(
        "run_parallel_batch(telemetry=False): worker telemetry (spans, "
        "counters, histograms, gauges, log records) from %d worker "
        "process(es) will be dropped%s; pass telemetry=True to ship it "
        "back to this process (warned once per process)",
        workers,
        " — the active trace will be missing all worker spans"
        if tracing_enabled()
        else "",
    )

#: Extra attempts granted to a query whose worker died underneath it.
DEFAULT_MAX_RETRIES = 1

#: Step at which ``checkpoint_round_trip`` suspends/resumes each run.
_ROUND_TRIP_STEP = 2


class WorkerCrashError(ReproError):
    """A query exhausted its retry budget after repeated worker deaths."""


# ----------------------------------------------------------------------
# Shared-memory dataset publication (parent side)
# ----------------------------------------------------------------------
def _attach_shared_memory(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without claiming ownership.

    Python 3.13+ exposes ``track=False`` so the attach never touches the
    resource tracker.  On older interpreters the attach re-registers the
    name with the tracker — harmless here, because spawn children share
    the *parent's* tracker process and registration is an idempotent
    set-add: the parent's ``unlink()`` in its ``finally`` removes the
    single entry.  (Explicitly unregistering from a worker would be
    wrong: it races other workers and strips the parent's leak guard.)
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # pragma: no cover - Python < 3.13: no track kwarg
        return shared_memory.SharedMemory(name=name)


@dataclass(frozen=True)
class _DatasetSpec:
    """Everything a worker needs to rebuild the dataset (points aside)."""

    shm_name: str
    shape: tuple[int, int]
    dtype: str
    name: str
    labels: np.ndarray | None
    metadata: dict[str, Any]
    precomputed_state: dict[str, Any]


class SharedDatasetHandle:
    """Parent-side owner of one dataset's shared-memory publication.

    Copies the point matrix into a named ``SharedMemory`` segment once
    and derives the per-dataset statistics once; :meth:`spec` is the
    small picklable payload each worker receives through the pool
    initializer.  The creator must call :meth:`cleanup` (the executor
    does so in a ``finally``).
    """

    def __init__(
        self, dataset: Dataset, precomputed: DatasetPrecomputation | None = None
    ) -> None:
        points = np.ascontiguousarray(dataset.points, dtype=float)
        name = f"repro-batch-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self._shm = shared_memory.SharedMemory(
            create=True, size=points.nbytes, name=name
        )
        view = np.ndarray(points.shape, dtype=points.dtype, buffer=self._shm.buf)
        view[:] = points
        shared = precomputed or DatasetPrecomputation(dataset)
        self._spec = _DatasetSpec(
            shm_name=name,
            shape=(int(dataset.size), int(dataset.dim)),
            dtype=str(points.dtype),
            name=dataset.name,
            labels=None if dataset.labels is None else np.array(dataset.labels),
            metadata=dict(dataset.metadata),
            precomputed_state=shared.export_state(compute=True),
        )
        self._closed = False

    @property
    def name(self) -> str:
        """The shared-memory segment name (``repro-batch-*``)."""
        return self._spec.shm_name

    @property
    def nbytes(self) -> int:
        """Size of the published point matrix in bytes."""
        shape = self._spec.shape
        return shape[0] * shape[1] * np.dtype(self._spec.dtype).itemsize

    def spec(self) -> _DatasetSpec:
        """The picklable worker payload."""
        return self._spec

    def cleanup(self) -> None:
        """Close and unlink the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Per-worker environment installed by :func:`_worker_init`.
_WORKER_ENV: dict[str, Any] = {}


def _worker_init(
    spec: _DatasetSpec,
    config: SearchConfig,
    factory_blob: bytes,
    telemetry: bool = True,
    trace: bool = False,
    journal_dir: str | None = None,
    journal_provenance: dict[str, Any] | None = None,
) -> None:
    """Pool initializer: map the shared points, rebuild the dataset.

    Runs exactly once per worker process.  The dataset's point matrix
    is a **read-only zero-copy view** of the parent's shared segment;
    the precomputed statistics are installed rather than re-derived.
    *telemetry* / *trace* mirror the parent's observability state: when
    set, every task brackets its work in a
    :class:`~repro.obs.snapshot.TelemetryCollector` (with a task-scoped
    tracer iff *trace*) and ships the snapshot back with its result.
    """
    shm = _attach_shared_memory(spec.shm_name)
    points = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)
    points.setflags(write=False)
    dataset = Dataset(
        points=points,
        labels=spec.labels,
        name=spec.name,
        metadata=spec.metadata,
    )
    shared = DatasetPrecomputation(dataset)
    shared.install_state(spec.precomputed_state)
    _WORKER_ENV.clear()
    _WORKER_ENV.update(
        {
            "shm": shm,  # keep the mapping alive for the process lifetime
            "dataset": dataset,
            "config": config,
            "shared": shared,
            "user_factory": pickle.loads(factory_blob),
            "telemetry": bool(telemetry),
            "trace": bool(trace),
            "journal_dir": journal_dir,
            "journal_provenance": journal_provenance,
        }
    )


def _drive_worker_engine(
    position: int, query_index: int, checkpoint_round_trip: bool
) -> tuple[int, Any, TelemetrySnapshot | None]:
    """Run one query to completion inside a worker.

    Returns ``(position, BatchEntry, telemetry_snapshot)`` — the
    snapshot carries every counter/histogram/gauge delta, log summary,
    and (when the parent traces) the task's span trees; ``None`` when
    the batch opted out with ``telemetry=False``.  With
    *checkpoint_round_trip* the run is suspended at view step
    ``_ROUND_TRIP_STEP``, serialized through the full JSON checkpoint
    codec, resumed into a fresh engine, and then finished — proving the
    checkpoint path is lossless inside the parallel executor too.
    """
    from repro.core.batch import _finalize_entry  # deferred: avoids cycle

    env = _WORKER_ENV
    if not env:
        raise RuntimeError("worker environment was not initialized")
    dataset: Dataset = env["dataset"]
    config: SearchConfig = env["config"]
    shared: DatasetPrecomputation = env["shared"]
    collector: TelemetryCollector | None = None
    if env.get("telemetry", True):
        collector = TelemetryCollector(trace=env.get("trace", False))
        collector.begin()
    snapshot: TelemetrySnapshot | None = None
    journal = None
    if env.get("journal_dir"):
        # Per-query journal files land directly in the shared directory
        # (the parallel analogue of shipping TelemetrySnapshots home).
        # A retried query recreates its file, so a crash mid-write
        # cannot leave a half-journal behind.
        from repro.core.batch import journal_filename
        from repro.obs.journal import SessionJournal

        journal = SessionJournal.create(
            Path(env["journal_dir"]) / journal_filename(position, query_index),
            provenance=env.get("journal_provenance"),
        )
    try:
        user = build_user(env["user_factory"], dataset, query_index)
        engine = SearchEngine(
            dataset,
            config,
            precomputed=shared,
            structural_spans=False,
            journal=journal,
        )
        event = engine.start(dataset.points[query_index])
        tripped = not checkpoint_round_trip
        while isinstance(event, ViewRequest):
            if not tripped and event.step >= _ROUND_TRIP_STEP:
                from repro.core.serialization import (
                    checkpoint_to_dict,
                    resume_engine,
                )

                payload = json.loads(json.dumps(checkpoint_to_dict(engine)))
                engine.close()
                engine, event = resume_engine(
                    payload,
                    dataset,
                    precomputed=shared,
                    structural_spans=False,
                    journal=journal,
                )
                tripped = True
                continue
            decision = validate_decision(
                user.review_view(event.view), event.view
            )
            event = engine.submit(decision)
        entry = _finalize_entry(query_index, event)
    finally:
        if journal is not None:
            journal.close()
        if collector is not None:
            snapshot = collector.finish()
    return position, entry, snapshot


# ----------------------------------------------------------------------
# Parent-side executor
# ----------------------------------------------------------------------
def _ensure_picklable_factory(user_factory: UserFactoryLike) -> bytes:
    """Serialize the factory once, with an actionable error on failure."""
    try:
        return pickle.dumps(user_factory)
    except Exception as exc:
        raise ConfigurationError(
            "user_factory must be picklable for process-parallel batches "
            "(lambdas and closures are not); pass a module-level callable "
            "or a repro.interaction.factories.DatasetUserFactory such as "
            f"OracleFactory() — pickling failed with: {exc}"
        ) from None


def run_parallel_batch(
    dataset: Dataset,
    config: SearchConfig,
    query_indices: np.ndarray,
    user_factory: UserFactoryLike,
    *,
    workers: int,
    max_retries: int = DEFAULT_MAX_RETRIES,
    checkpoint_round_trip: bool = False,
    precomputed: DatasetPrecomputation | None = None,
    telemetry: bool = True,
    journal_dir: str | None = None,
    journal_provenance: dict[str, Any] | None = None,
):
    """Run every query on a spawn process pool; results in input order.

    Parameters
    ----------
    dataset, config:
        The search target and parameters (identical in every worker).
    query_indices:
        Dataset indices of the query points (validated by the caller,
        :func:`repro.core.batch.run_batch`).
    user_factory:
        A picklable user factory — ideally a
        :class:`~repro.interaction.factories.DatasetUserFactory`, which
        receives the worker's shared dataset instead of embedding its
        own copy.
    workers:
        Process count; clamped to the number of queries.
    max_retries:
        Extra attempts per query after a worker death (default 1).
    checkpoint_round_trip:
        Verification mode: suspend/resume every run through the JSON
        checkpoint codec mid-flight (results must not change).
    precomputed:
        Optional parent-side precomputation whose derived statistics
        seed the workers.
    telemetry:
        Ship worker observability back to this process (default).  Each
        task returns a :class:`~repro.obs.snapshot.TelemetrySnapshot`;
        counters/histograms/gauges are folded into the parent registry,
        worker WARNINGs are replayed, and — when a tracer is active
        here — worker span trees are adopted into it on per-worker
        lanes.  ``False`` drops all of that (a one-time WARNING says
        so).
    journal_dir, journal_provenance:
        Optional per-query session journaling (see
        :func:`repro.core.batch.run_batch`); every worker writes its
        queries' journal files into the shared *journal_dir*.

    Returns
    -------
    repro.core.batch.BatchResult
    """
    from repro.core.batch import BatchResult

    indices = np.asarray(query_indices, dtype=int)
    workers = max(1, int(min(workers, indices.size)))
    factory_blob = _ensure_picklable_factory(user_factory)
    trace_workers = bool(telemetry) and tracing_enabled()
    if not telemetry:
        _warn_telemetry_dropped(workers)
    handle = SharedDatasetHandle(dataset, precomputed)
    _log.info(
        "parallel batch: %d queries on %d workers (shared points: %d bytes in %s)",
        indices.size,
        workers,
        handle.nbytes,
        handle.name,
    )
    entries: dict[int, Any] = {}
    remaining: dict[int, int] = dict(enumerate(indices.tolist()))
    attempts: dict[int, int] = {position: 0 for position in remaining}
    lanes: dict[int, int] = {}  # worker pid -> trace lane (1-based)
    ctx = get_context("spawn")
    try:
        with span(
            "batch.parallel.run",
            queries=int(indices.size),
            workers=workers,
        ) as run_span:
            pools = 0
            while remaining:
                pools += 1
                executor = ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=ctx,
                    initializer=_worker_init,
                    initargs=(
                        handle.spec(),
                        config,
                        factory_blob,
                        telemetry,
                        trace_workers,
                        journal_dir,
                        journal_provenance,
                    ),
                )
                broken = False
                try:
                    broken = _dispatch_round(
                        executor,
                        remaining,
                        entries,
                        checkpoint_round_trip,
                        lanes,
                    )
                finally:
                    # A healthy pool may still be spawning a worker whose
                    # initializer attaches the shared memory; wait for it
                    # before handle.cleanup() unlinks the segment.  Only a
                    # broken pool is abandoned without waiting.
                    executor.shutdown(wait=not broken, cancel_futures=True)
                if not broken:
                    continue  # remaining is empty now
                _POOL_RESTARTS.inc()
                casualties = sorted(remaining)
                for position in casualties:
                    attempts[position] += 1
                    _RETRIES.inc()
                    if attempts[position] > max_retries:
                        raise WorkerCrashError(
                            f"query index {remaining[position]} "
                            f"(position {position}) crashed its worker "
                            f"{attempts[position]} times; giving up after "
                            f"{max_retries} retr"
                            f"{'y' if max_retries == 1 else 'ies'}"
                        )
                _log.warning(
                    "worker pool broke; retrying %d unfinished queries "
                    "(pool restart %d)",
                    len(casualties),
                    pools,
                )
            run_span.set(pool_restarts=pools - 1)
    finally:
        handle.cleanup()
    ordered = tuple(entries[position] for position in sorted(entries))
    return BatchResult(entries=ordered)


def _dispatch_round(
    executor: ProcessPoolExecutor,
    remaining: dict[int, int],
    entries: dict[int, Any],
    checkpoint_round_trip: bool,
    lanes: dict[int, int],
) -> bool:
    """Submit every remaining query; harvest until done or pool death.

    Completed positions are moved from *remaining* into *entries*, and
    each task's :class:`~repro.obs.snapshot.TelemetrySnapshot` is folded
    back: instruments merge into the parent registry, shipped WARNINGs
    are replayed, and — when a tracer is active — the worker's span
    trees are adopted onto the worker's trace lane (*lanes* maps worker
    pid to a stable 1-based lane across retry rounds; lane 0 is the
    parent).  Returns True when the pool broke and a retry round is
    needed.
    """
    with span("batch.parallel.dispatch", queries=len(remaining)):
        futures = {
            executor.submit(
                _drive_worker_engine,
                position,
                query_index,
                checkpoint_round_trip,
            ): position
            for position, query_index in remaining.items()
        }
    pending = set(futures)
    while pending:
        done, pending = wait(pending, return_when=FIRST_EXCEPTION)
        for future in done:
            position = futures[future]
            try:
                pos, entry, snapshot = future.result()
            except BrokenProcessPool:
                return True
            _TASKS.inc()
            with span(
                "batch.parallel.collect",
                query=remaining[position],
            ):
                entries[pos] = entry
                if snapshot is not None:
                    _merge_worker_snapshot(snapshot, lanes)
            del remaining[position]
    return False


def _merge_worker_snapshot(
    snapshot: TelemetrySnapshot, lanes: dict[int, int]
) -> None:
    """Fold one worker task's telemetry into the parent's observability.

    Instruments merge into the process registry, shipped WARNING+
    messages re-surface on ``repro.obs.worker``, and any worker span
    trees are adopted into the ambient tracer on the worker's lane
    (allocated on first sight of the pid, stable thereafter).
    """
    lane = lanes.setdefault(snapshot.worker_pid, len(lanes) + 1)
    REGISTRY.merge_snapshot(snapshot)
    replay_worker_logs(snapshot, lane=lane)
    if snapshot.trace_roots:
        tracer = current_tracer()
        if tracer is not None:
            for payload in snapshot.trace_roots:
                tracer.adopt(span_from_dict(payload), lane=lane)
