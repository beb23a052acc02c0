"""Observability overhead — the disabled path must be ~free.

The whole point of baking spans and counters into the hot paths
(``docs/OBSERVABILITY.md``) is that they cost nothing when no tracer is
active.  This microbenchmark pins that down on a medium synthetic
workload:

1. run one full interactive query **with tracing** to count how many
   spans the workload opens and to emit the per-phase baseline
   breakdown into ``benchmarks/results/``;
2. run the identical query **without tracing** to get the production
   wall time;
3. measure the per-call cost of the disabled ``span()`` fast path
   directly (a module-global load + comparison) and assert that
   ``spans_opened * disabled_cost`` is under 5% of the production
   runtime.

The estimate deliberately over-counts: it charges the *call-site*
cost (including keyword-dict construction) for every span the traced
run opened, which upper-bounds what the untraced run actually paid.

A second lane measures the *enabled* cost of the session flight
recorder (``repro.obs.journal``): an identical engine run with and
without a journal attached, best-of-3, held to the same 5% bound.

A third lane prices the session service's per-request observation hook,
one JSONL access-log line, against the real cost of a service request
measured over sockets, held to the same 5% bound; the disabled hook
(no access log, the production default) is reported alongside.
"""

from __future__ import annotations

import time

import numpy as np

from repro import InteractiveNNSearch, OracleUser, SearchConfig
from repro.core.engine import SearchEngine
from repro.core.search import drive
from repro.data.synthetic import ProjectedClusterSpec, generate_projected_clusters
from repro.obs import REGISTRY, SessionJournal, span, tracing_enabled

from bench_utils import format_table, report, report_phase_breakdown

#: The ISSUE's acceptance bound on disabled-path overhead.
MAX_OVERHEAD_FRACTION = 0.05


def _workload():
    """Medium synthetic workload: 1500 points, 12 dims, 3 clusters."""
    spec = ProjectedClusterSpec(
        n_points=1500,
        dim=12,
        n_clusters=3,
        cluster_dim=4,
        axis_parallel=True,
        noise_fraction=0.1,
    )
    data = generate_projected_clusters(spec, np.random.default_rng(41))
    ds = data.dataset
    qi = int(ds.cluster_indices(0)[0])
    config = SearchConfig(
        support=20, min_major_iterations=2, max_major_iterations=2
    )
    return ds, qi, config


def _run_once(ds, qi, config, *, trace: bool):
    user = OracleUser(ds, qi)
    start = time.perf_counter()
    result = InteractiveNNSearch(ds, config).run(
        ds.points[qi], user, trace=trace
    )
    elapsed = time.perf_counter() - start
    return result, elapsed


def _disabled_span_cost(iterations: int = 200_000) -> float:
    """Mean seconds per disabled ``span()`` call (with attributes)."""
    assert not tracing_enabled()
    start = time.perf_counter()
    for index in range(iterations):
        with span("bench.noop", index=index):
            pass
    return (time.perf_counter() - start) / iterations


def test_disabled_instrumentation_overhead(results_dir):
    ds, qi, config = _workload()

    # Warm-up: JIT-free Python, but numpy caches and allocator pools
    # still deserve one pass so both timed runs see the same state.
    _run_once(ds, qi, config, trace=False)

    traced_result, traced_seconds = _run_once(ds, qi, config, trace=True)
    assert traced_result.trace is not None
    spans_opened = sum(1 for _ in traced_result.trace.iter_spans())

    plain_result, plain_seconds = _run_once(ds, qi, config, trace=False)
    assert plain_result.trace is None
    # Tracing must not perturb the search outcome.
    assert np.array_equal(
        plain_result.neighbor_indices, traced_result.neighbor_indices
    )

    per_span = _disabled_span_cost()
    estimated_overhead = spans_opened * per_span
    fraction = estimated_overhead / plain_seconds

    report(
        "obs_overhead",
        format_table(
            ["quantity", "value"],
            [
                ["workload", "1500 pts, 12 dims, 2 major iterations"],
                ["untraced run (s)", f"{plain_seconds:.3f}"],
                ["traced run (s)", f"{traced_seconds:.3f}"],
                ["spans opened (traced)", spans_opened],
                ["disabled span cost (ns)", f"{per_span * 1e9:.0f}"],
                ["estimated disabled overhead (s)", f"{estimated_overhead:.6f}"],
                ["overhead fraction", f"{fraction:.4%}"],
                ["bound", f"{MAX_OVERHEAD_FRACTION:.0%}"],
            ],
        ),
    )
    report_phase_breakdown("obs_overhead_workload", traced_result.trace)

    assert fraction < MAX_OVERHEAD_FRACTION, (
        f"disabled instrumentation overhead {fraction:.2%} exceeds "
        f"{MAX_OVERHEAD_FRACTION:.0%} "
        f"({spans_opened} spans x {per_span * 1e9:.0f} ns "
        f"vs {plain_seconds:.3f} s workload)"
    )


def test_journal_overhead(results_dir, tmp_path):
    """Flight-recorder journaling stays within the 5% overhead bound.

    Same workload as the span benchmark, driven through the engine
    directly so the journaled lane differs only in the ``journal=``
    argument.  Best-of-3 on both lanes smooths scheduler noise; the
    journaled run must produce the identical neighbor set (journaling
    is pure observation) and cost less than
    :data:`MAX_OVERHEAD_FRACTION` extra wall time.
    """
    ds, qi, config = _workload()

    def run(journal=None):
        user = OracleUser(ds, qi)
        engine = SearchEngine(ds, config, journal=journal)
        start = time.perf_counter()
        result = drive(engine, ds.points[qi], user)
        elapsed = time.perf_counter() - start
        if journal is not None:
            journal.close()
        return result, elapsed

    run()  # warm-up: numpy caches, allocator pools

    plain_times, journaled_times = [], []
    plain_result = journaled_result = None
    for trial in range(3):
        plain_result, seconds = run()
        plain_times.append(seconds)
        journal = SessionJournal.create(
            tmp_path / f"bench-journal-{trial}.jsonl"
        )
        journaled_result, seconds = run(journal)
        journaled_times.append(seconds)

    assert np.array_equal(
        plain_result.neighbor_indices, journaled_result.neighbor_indices
    ), "journaling must not perturb the search outcome"

    plain_best = min(plain_times)
    journaled_best = min(journaled_times)
    overhead = (journaled_best - plain_best) / plain_best

    report(
        "journal_overhead",
        format_table(
            ["quantity", "value"],
            [
                ["workload", "1500 pts, 12 dims, 2 major iterations"],
                ["plain best-of-3 (s)", f"{plain_best:.3f}"],
                ["journaled best-of-3 (s)", f"{journaled_best:.3f}"],
                ["overhead fraction", f"{overhead:+.4%}"],
                ["bound", f"{MAX_OVERHEAD_FRACTION:.0%}"],
            ],
        ),
    )

    assert overhead < MAX_OVERHEAD_FRACTION, (
        f"journaling overhead {overhead:.2%} exceeds "
        f"{MAX_OVERHEAD_FRACTION:.0%} "
        f"({plain_best:.3f}s plain vs {journaled_best:.3f}s journaled)"
    )


def test_request_observation_overhead(results_dir, tmp_path):
    """The access-log line stays under 5% of a request.

    ``SessionService._observe_request`` runs once per HTTP request and
    writes one JSONL access-log line (route, status, latency, request
    ID); with the access log disabled, the production default, it is a
    no-op.  This lane measures its per-call cost directly, both ways,
    and holds the logged cost to :data:`MAX_OVERHEAD_FRACTION` of the
    *real* mean request cost, measured by driving a small session
    fleet over sockets.
    """
    import asyncio

    from repro.data.synthetic import case1_dataset
    from repro.obs import AccessLogWriter
    from repro.service.app import ServiceRuntime, SessionService
    from repro.service.client import RemoteSessionDriver, ServiceClient

    ds = case1_dataset(np.random.default_rng(17), n_points=200).dataset
    config = SearchConfig(
        support=8,
        grid_resolution=24,
        min_major_iterations=1,
        max_major_iterations=1,
        projection_restarts=2,
    )
    service = SessionService()
    service.register_dataset("bench", ds)
    n_sessions = 8

    async def one(port: int, index: int) -> int:
        async with ServiceClient("127.0.0.1", port) as client:
            driver = RemoteSessionDriver(
                client, user=OracleUser(ds, index), config=config
            )
            await driver.run("bench", query_index=index)
            return driver.steps

    async def fleet(port: int) -> int:
        steps = await asyncio.gather(
            *(one(port, i) for i in range(n_sessions))
        )
        return sum(steps) + n_sessions  # one create + one POST per step

    with ServiceRuntime(service) as runtime:
        start = time.perf_counter()
        requests = asyncio.run(fleet(runtime.port))
        wall = time.perf_counter() - start
    mean_request_seconds = wall / requests

    observe_kwargs = dict(
        method="POST",
        path="/sessions/sess-0123456789abcdef/decision",
        route="/sessions/{id}/decision",
        status=200,
        elapsed=0.012,
        bytes_in=512,
        bytes_out=2048,
        request_id="req-benchbenchbenchbe",
        session_id="sess-0123456789abcdef",
    )

    iterations = 50_000
    start = time.perf_counter()
    for _ in range(iterations):
        service._observe_request(**observe_kwargs)
    per_call_disabled = (time.perf_counter() - start) / iterations

    logged = SessionService(
        access_log=AccessLogWriter(tmp_path / "bench_access.jsonl")
    )
    log_iterations = 5_000
    start = time.perf_counter()
    for _ in range(log_iterations):
        logged._observe_request(**observe_kwargs)
    per_call_logged = (time.perf_counter() - start) / log_iterations
    logged.close()

    fraction = per_call_logged / mean_request_seconds
    report(
        "request_observation_overhead",
        format_table(
            ["quantity", "value"],
            [
                ["service requests timed", requests],
                ["mean request (ms)", f"{mean_request_seconds * 1e3:.2f}"],
                ["observe, no access log (ns)", f"{per_call_disabled * 1e9:.0f}"],
                ["observe + access log (ns)", f"{per_call_logged * 1e9:.0f}"],
                ["overhead fraction", f"{fraction:.4%}"],
                ["bound", f"{MAX_OVERHEAD_FRACTION:.0%}"],
            ],
        ),
    )

    assert fraction < MAX_OVERHEAD_FRACTION, (
        f"per-request access-log overhead {fraction:.2%} exceeds "
        f"{MAX_OVERHEAD_FRACTION:.0%} ({per_call_logged * 1e9:.0f} ns "
        f"per call vs {mean_request_seconds * 1e3:.2f} ms per request)"
    )


def test_counters_populated_by_workload():
    """The always-on counters move when a search runs."""
    runs = REGISTRY.counter("search.runs")
    minors = REGISTRY.counter("search.minor_iterations")
    before_runs, before_minors = runs.value, minors.value
    ds, qi, config = _workload()
    _run_once(ds, qi, config, trace=False)
    assert runs.value == before_runs + 1
    assert minors.value > before_minors
