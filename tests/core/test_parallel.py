"""Process-parallel batch executor: parity, faults, and cleanup.

The acceptance criteria for ``run_batch(workers=N)``:

* results are **byte-identical** to in-process execution *and* to the
  pre-refactor sequential goldens, for every worker count;
* parity holds with a mid-run checkpoint/resume round trip inside
  every worker;
* a worker killed mid-query is retried (once by default) and the batch
  still completes with identical results; a query that keeps killing
  workers raises :class:`WorkerCrashError`;
* no orphaned shared-memory segments remain in any of those cases
  (asserted in a ``finally``-style fixture check);
* unpicklable factories fail fast with an actionable error;
* worker-side counters are folded into the parent registry.

Everything here runs on the real spawn pool — no mocks — so the suite
is slower than the rest of ``tests/core``; worker counts are kept small
and the dataset/config match the fast golden-batch case.
"""

from __future__ import annotations

import glob
import logging
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.batch import run_batch
from repro.core.config import SearchConfig
from repro.core.parallel import (
    WorkerCrashError,
    run_parallel_batch,
)
from repro.core.search import InteractiveNNSearch
from repro.exceptions import ConfigurationError
from repro.interaction.factories import DatasetUserFactory, OracleFactory
from repro.obs.metrics import REGISTRY, Histogram, counter_values
from repro.obs.trace import finish_trace, start_trace, tracing_enabled

from tests.core.test_engine_golden import GOLDENS
from tests.golden.make_goldens import clustered_dataset

FAST_CONFIG = SearchConfig(
    support=15,
    grid_resolution=30,
    min_major_iterations=2,
    max_major_iterations=2,
    projection_restarts=2,
)


def _leftover_segments() -> list[str]:
    """Shared-memory segments left behind by the executor, if any."""
    if os.path.isdir("/dev/shm"):
        return sorted(glob.glob("/dev/shm/repro-batch-*"))
    return []  # pragma: no cover - non-tmpfs platforms


@pytest.fixture(autouse=True)
def no_orphaned_shared_memory():
    """Every test must leave /dev/shm free of executor segments."""
    before = _leftover_segments()
    try:
        yield
    finally:
        after = _leftover_segments()
        leaked = sorted(set(after) - set(before))
        assert not leaked, f"orphaned shared memory segments: {leaked}"


def _assert_entries_identical(got, expected) -> None:
    assert [e.query_index for e in got] == [e.query_index for e in expected]
    for a, b in zip(got, expected):
        assert a.neighbors.tolist() == b.neighbors.tolist()
        assert a.result.neighbor_indices.tolist() == (
            b.result.neighbor_indices.tolist()
        )
        assert a.result.probabilities.tolist() == (
            b.result.probabilities.tolist()
        )
        assert a.result.reason == b.result.reason
        assert a.diagnosis.meaningful == b.diagnosis.meaningful


# ----------------------------------------------------------------------
# Parity: workers=4 vs workers=1 vs pre-refactor goldens
# ----------------------------------------------------------------------
def test_parallel_matches_sequential_and_golden():
    ds = clustered_dataset()
    golden = GOLDENS["batch"]
    queries = np.asarray(golden["query_indices"], dtype=int)
    search = InteractiveNNSearch(ds, FAST_CONFIG)

    sequential = run_batch(search, queries, OracleFactory(), workers=1)
    parallel = run_batch(search, queries, OracleFactory(), workers=4)

    _assert_entries_identical(parallel.entries, sequential.entries)
    # And both match the pre-refactor sequential goldens exactly.
    assert [e.query_index for e in parallel.entries] == golden["query_indices"]
    for entry, expected in zip(parallel.entries, golden["entries"]):
        assert entry.neighbors.tolist() == expected["neighbors"]
        assert entry.result.neighbor_indices.tolist() == (
            expected["neighbor_indices"]
        )
        assert entry.result.probabilities.tolist() == expected["probabilities"]
        assert entry.result.reason.value == expected["reason"]
        assert bool(entry.diagnosis.meaningful) == expected["meaningful"]


def test_parallel_parity_under_checkpoint_round_trip():
    """Suspend/resume through the JSON codec mid-run in every worker."""
    ds = clustered_dataset()
    queries = np.asarray(GOLDENS["batch"]["query_indices"], dtype=int)
    plain = run_parallel_batch(
        ds, FAST_CONFIG, queries, OracleFactory(), workers=2
    )
    round_tripped = run_parallel_batch(
        ds,
        FAST_CONFIG,
        queries,
        OracleFactory(),
        workers=2,
        checkpoint_round_trip=True,
    )
    _assert_entries_identical(round_tripped.entries, plain.entries)


def test_duplicate_queries_are_supported():
    """Duplicates rerun identical searches — entries repeat verbatim."""
    ds = clustered_dataset()
    queries = np.array([0, 1, 0], dtype=int)
    result = run_parallel_batch(
        ds, FAST_CONFIG, queries, OracleFactory(), workers=2
    )
    assert [e.query_index for e in result.entries] == [0, 1, 0]
    first, _, repeat = result.entries
    assert first.neighbors.tolist() == repeat.neighbors.tolist()
    assert first.result.probabilities.tolist() == (
        repeat.result.probabilities.tolist()
    )


# ----------------------------------------------------------------------
# Fault injection: a worker killed mid-query
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KillOnceFactory(DatasetUserFactory):
    """SIGKILLs its own worker the first time *victim* is attempted.

    The sentinel file records that the kill already happened, so the
    retry proceeds normally.  Deliberately brutal: SIGKILL cannot be
    caught, so the pool genuinely breaks.
    """

    sentinel: str
    victim: int

    def build(self, dataset, query_index):
        if query_index == self.victim and not os.path.exists(self.sentinel):
            with open(self.sentinel, "w") as fh:
                fh.write(str(os.getpid()))
            os.kill(os.getpid(), signal.SIGKILL)
        return OracleFactory().build(dataset, query_index)


@dataclass(frozen=True)
class AlwaysKillFactory(DatasetUserFactory):
    """SIGKILLs the worker on *every* attempt of *victim*."""

    victim: int

    def build(self, dataset, query_index):
        if query_index == self.victim:
            os.kill(os.getpid(), signal.SIGKILL)
        return OracleFactory().build(dataset, query_index)


def _spy_on_pool_shutdown(monkeypatch) -> list[bool]:
    """Record the ``wait`` argument of every pool shutdown."""
    waits: list[bool] = []
    original = ProcessPoolExecutor.shutdown

    def shutdown(self, wait=True, *, cancel_futures=False):
        waits.append(wait)
        return original(self, wait=wait, cancel_futures=cancel_futures)

    monkeypatch.setattr(ProcessPoolExecutor, "shutdown", shutdown)
    return waits


def test_killed_worker_is_retried_and_batch_completes(tmp_path, monkeypatch):
    ds = clustered_dataset()
    queries = np.asarray(GOLDENS["batch"]["query_indices"], dtype=int)
    victim = int(queries[1])
    restarts_before = REGISTRY.counter("batch.parallel.pool_restarts").value
    retries_before = REGISTRY.counter("batch.parallel.retries").value
    shutdown_waits = _spy_on_pool_shutdown(monkeypatch)

    sentinel = tmp_path / "killed-once"
    result = run_parallel_batch(
        ds,
        FAST_CONFIG,
        queries,
        KillOnceFactory(sentinel=str(sentinel), victim=victim),
        workers=2,
    )
    assert sentinel.exists(), "the kill never fired"
    # The batch completed with results identical to the goldens.
    golden = GOLDENS["batch"]
    assert [e.query_index for e in result.entries] == golden["query_indices"]
    for entry, expected in zip(result.entries, golden["entries"]):
        assert entry.result.probabilities.tolist() == expected["probabilities"]
    # The crash was observed and charged.
    assert (
        REGISTRY.counter("batch.parallel.pool_restarts").value
        > restarts_before
    )
    assert REGISTRY.counter("batch.parallel.retries").value > retries_before
    # The broken pool is abandoned; the healthy retry pool is joined.
    assert shutdown_waits[0] is False
    assert shutdown_waits[-1] is True


def test_repeat_crasher_exhausts_retries_and_cleans_up():
    ds = clustered_dataset()
    queries = np.array([0, 1], dtype=int)
    with pytest.raises(WorkerCrashError, match="crashed its worker"):
        run_parallel_batch(
            ds,
            FAST_CONFIG,
            queries,
            AlwaysKillFactory(victim=1),
            workers=2,
            max_retries=1,
        )
    # The autouse fixture asserts no orphaned segments survived the raise.


# ----------------------------------------------------------------------
# Fast-failing misconfiguration
# ----------------------------------------------------------------------
def test_unpicklable_factory_fails_fast():
    ds = clustered_dataset()
    with pytest.raises(ConfigurationError, match="picklable"):
        run_parallel_batch(
            ds,
            FAST_CONFIG,
            np.array([0]),
            lambda qi: None,  # lambdas cannot cross a process boundary
            workers=2,
        )


def test_run_batch_rejects_nonpositive_workers():
    ds = clustered_dataset()
    search = InteractiveNNSearch(ds, FAST_CONFIG)
    with pytest.raises(ConfigurationError, match="workers"):
        run_batch(search, np.array([0]), OracleFactory(), workers=0)


# ----------------------------------------------------------------------
# Worker observability reaches the parent
# ----------------------------------------------------------------------
def test_worker_counters_are_merged_into_parent_registry():
    ds = clustered_dataset()
    queries = np.array([0, 1], dtype=int)
    runs_before = REGISTRY.counter("search.runs").value
    tasks_before = REGISTRY.counter("batch.parallel.tasks").value
    run_parallel_batch(ds, FAST_CONFIG, queries, OracleFactory(), workers=2)
    # Each worker's engine bumped search.runs in *its* process; the
    # deltas must land here.
    assert REGISTRY.counter("search.runs").value >= runs_before + 2
    assert REGISTRY.counter("batch.parallel.tasks").value == tasks_before + 2


# Counters whose totals legitimately depend on the process topology:
# the KDE grid cache is per-process (one shared cache sequentially,
# one per worker in parallel), the merge-tree store rides in that same
# cache (builds/source passes dedupe across queries only within one
# process), and ``batch.*`` belongs to the executor itself, not the
# per-query engine work.
_TOPOLOGY_DEPENDENT_PREFIXES = ("kde.cache.", "connectivity.merge_tree.", "batch.")


def _engine_counter_values() -> dict[str, float]:
    return {
        name: value
        for name, value in counter_values().items()
        if not name.startswith(_TOPOLOGY_DEPENDENT_PREFIXES)
    }


def _histogram_state(name: str) -> tuple[tuple[int, ...], float, int]:
    instrument = REGISTRY.get(name)
    if not isinstance(instrument, Histogram):
        return ((), 0.0, 0)
    return instrument.counts, instrument.sum, instrument.count


def test_parallel_telemetry_parity_with_sequential():
    """Counter totals match across process topologies.

    Engines are isolated, so every query performs identical work no
    matter which process runs it.  With worker snapshots merged back,
    the parent registry after ``workers=4`` must show the same
    per-engine counter deltas as the in-process sequential run.  No
    histogram is observed a fixed number of times per engine whatever
    the process and cache state, so histogram merging is pinned by
    ``tests/obs/test_snapshot.py`` instead.
    """
    ds = clustered_dataset()
    queries = np.array([0, 1, 2, 3], dtype=int)
    search = InteractiveNNSearch(ds, FAST_CONFIG)

    def run_and_delta(workers: int):
        counters_before = _engine_counter_values()
        run_batch(search, queries, OracleFactory(), workers=workers)
        counters_after = _engine_counter_values()
        return {
            name: counters_after[name] - counters_before.get(name, 0.0)
            for name in counters_after
            if counters_after[name] != counters_before.get(name, 0.0)
        }

    seq_counters = run_and_delta(1)
    par_counters = run_and_delta(4)

    assert seq_counters, "sequential run moved no counters?"
    assert par_counters == pytest.approx(seq_counters)


def test_traced_parallel_batch_adopts_worker_spans_on_lanes():
    """``--trace`` on a parallel batch yields one multi-lane trace."""
    ds = clustered_dataset()
    queries = np.array([0, 1, 2, 3], dtype=int)
    start_trace(workload="parity-test")
    try:
        run_parallel_batch(
            ds, FAST_CONFIG, queries, OracleFactory(), workers=2
        )
    finally:
        report = finish_trace()
    assert report is not None
    lanes = report.lanes()
    assert 0 in lanes, "parent spans missing"
    assert len(lanes) >= 2, f"no worker lanes adopted: {lanes}"
    worker_steps = [
        s for s in report.find("engine.step") if s.lane != 0
    ]
    assert worker_steps, "no worker engine.step spans in the trace"
    # Worker subtrees keep their structure (children share the lane).
    parents = [
        s
        for s in report.iter_spans()
        if s.lane != 0 and s.children
    ]
    assert parents
    assert all(
        child.lane == parent.lane
        for parent in parents
        for child in parent.children
    )


def test_untraced_parallel_batch_ships_no_spans():
    """Workers only install a task tracer when the parent traces."""
    ds = clustered_dataset()
    queries = np.array([0, 1], dtype=int)
    assert not tracing_enabled()
    result = run_parallel_batch(
        ds, FAST_CONFIG, queries, OracleFactory(), workers=2
    )
    assert len(result.entries) == 2  # telemetry off-path still works


def test_worker_histograms_and_gauges_are_merged():
    ds = clustered_dataset()
    queries = np.array([0, 1], dtype=int)
    _, _, count_before = _histogram_state("kde.grid.eval_seconds")
    # KDE timing histograms fill only under tracing; workers trace
    # their tasks when the parent does.
    start_trace(workload="histogram-merge")
    try:
        run_parallel_batch(ds, FAST_CONFIG, queries, OracleFactory(), workers=2)
    finally:
        finish_trace()
    _, _, count_after = _histogram_state("kde.grid.eval_seconds")
    assert count_after > count_before, "worker histogram deltas not merged"
    # The workers' KDE caches stored entries; the gauge last-write
    # crossed the boundary.
    gauge = REGISTRY.get("kde.cache.entries")
    assert gauge is not None and gauge.value >= 1


def test_telemetry_opt_out_warns_once_and_drops_data(monkeypatch, caplog):
    import repro.core.parallel as parallel_module

    monkeypatch.setattr(parallel_module, "_TELEMETRY_DROP_WARNED", False)
    ds = clustered_dataset()
    queries = np.array([0], dtype=int)
    runs_before = REGISTRY.counter("search.runs").value
    with caplog.at_level(logging.WARNING, logger="repro.obs"):
        run_parallel_batch(
            ds,
            FAST_CONFIG,
            queries,
            OracleFactory(),
            workers=1,
            telemetry=False,
        )
        first_warnings = [
            r for r in caplog.records if "telemetry" in r.getMessage()
        ]
        run_parallel_batch(
            ds,
            FAST_CONFIG,
            queries,
            OracleFactory(),
            workers=1,
            telemetry=False,
        )
        all_warnings = [
            r for r in caplog.records if "telemetry" in r.getMessage()
        ]
    assert len(first_warnings) == 1, "opt-out did not warn"
    assert len(all_warnings) == 1, "warning not one-time"
    # And the worker's counters were genuinely dropped.
    assert REGISTRY.counter("search.runs").value == runs_before


# ----------------------------------------------------------------------
# Late workers: shared memory outlives every worker of a healthy pool
# ----------------------------------------------------------------------
def test_healthy_pool_is_joined_before_shared_memory_is_unlinked(
    monkeypatch, capfd
):
    """One worker can finish both queries while the second is still
    spawning; unlinking the segment before that worker's initializer
    attaches it made the initializer print a FileNotFoundError
    traceback.  The pool is now joined first, so stderr stays clean."""
    shutdown_waits = _spy_on_pool_shutdown(monkeypatch)
    run_parallel_batch(
        clustered_dataset(),
        FAST_CONFIG,
        np.array([0, 1], dtype=int),
        OracleFactory(),
        workers=2,
    )
    assert shutdown_waits == [True]
    assert "Traceback" not in capfd.readouterr().err
