"""Benchmark — session-service latency at 1000+ concurrent sessions.

Boots the asyncio session service on an ephemeral port, then opens one
real TCP connection per session and drives all of them concurrently
from a single client event loop: even-numbered sessions replay
:class:`~repro.interaction.heuristic.HeuristicUser` decision streams,
odd-numbered ones :class:`~repro.interaction.oracle.OracleUser` — the
two simulated humans the in-process harnesses use, now talking over
sockets.  Every HTTP round trip is timed individually.

Reported: wall clock, request throughput, per-request latency
percentiles (p50 / p90 / p99 / max) overall **and per route
template**, sessions completed, and the hard acceptance gates —
**zero failed requests** across the whole run (any non-2xx response
or transport error fails the bench) and **every response carrying the
echoed** ``X-Request-Id``.  The run writes a structured JSONL access
log (``--access-log``; CI keeps it as an
artifact), so any latency outlier in the percentiles can be joined to
its exact request by ID.

Latency here includes server-side queueing: handlers run engine work
inline on one event loop, so the percentiles measure exactly what a
human waiting on a view would experience under this concurrency.

Artifacts (``repro.bench`` schema, uploaded by the CI load lane):
``benchmarks/results/service_load.json`` and ``service_load.txt``.

Usage::

    PYTHONPATH=src python benchmarks/bench_service_load.py            # 1000
    PYTHONPATH=src python benchmarks/bench_service_load.py --sessions 200
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np

from repro.core.config import SearchConfig
from repro.data.synthetic import case1_dataset
from repro.interaction.heuristic import HeuristicUser
from repro.interaction.oracle import OracleUser
from repro.service.app import ServiceRuntime, SessionService, route_template
from repro.service.client import RemoteSessionDriver, ServiceClient

from bench_utils import RESULTS_DIR, format_table, report
from regression import BENCH_FORMAT, BENCH_SCHEMA_VERSION

N_SESSIONS = 1000

#: Deliberately light per-view work: the bench measures the service
#: under concurrency, not the projection search.
LOAD_CONFIG = dict(
    support=8,
    grid_resolution=24,
    min_major_iterations=1,
    max_major_iterations=1,
    projection_restarts=2,
)

DATASET_SEED = 11
DATASET_POINTS = 200


def _raise_fd_limit(needed: int) -> None:
    """Two sockets per session (client + server end) live in this one
    process; default CI soft limits (1024) are far too low."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < needed:
        resource.setrlimit(
            resource.RLIMIT_NOFILE, (min(max(needed, 4096), hard), hard)
        )


class TimingClient(ServiceClient):
    """ServiceClient recording per-route latency + request-ID echo.

    Every round trip's latency lands both in the flat list (overall
    percentiles) and in a per-route-template bucket; any response whose
    ``X-Request-Id`` header does not echo the ID this client sent
    counts against the ``missing_request_id`` gate.
    """

    def __init__(
        self,
        host: str,
        port: int,
        latencies: list[float],
        by_route: dict[str, list[float]],
        id_mismatches: list[str],
    ) -> None:
        super().__init__(host, port)
        self._latencies = latencies
        self._by_route = by_route
        self._id_mismatches = id_mismatches

    async def request(self, method, path, payload=None):
        start = time.perf_counter()
        status, decoded = await super().request(method, path, payload)
        elapsed = time.perf_counter() - start
        self._latencies.append(elapsed)
        route, _ = route_template(path.split("?", 1)[0])
        self._by_route.setdefault(route, []).append(elapsed)
        echoed = self.last_response_headers.get("x-request-id")
        if echoed != self.last_request_id:
            self._id_mismatches.append(
                f"{method} {path}: sent {self.last_request_id}, "
                f"got {echoed!r}"
            )
        return status, decoded


def _user_for(index: int, dataset, query_index: int):
    if index % 2 == 0:
        return HeuristicUser()
    return OracleUser(dataset, query_index)


async def _one_session(
    port: int,
    index: int,
    dataset,
    latencies: list[float],
    by_route: dict[str, list[float]],
    id_mismatches: list[str],
    failures: list[str],
) -> int:
    query_index = index % dataset.size
    try:
        client = TimingClient(
            "127.0.0.1", port, latencies, by_route, id_mismatches
        )
        async with client:
            driver = RemoteSessionDriver(
                client,
                user=_user_for(index, dataset, query_index),
                config=SearchConfig(**LOAD_CONFIG, rng_seed=index),
            )
            final = await driver.run("bench", query_index=query_index)
            if final["type"] != "search_result":
                failures.append(f"session {index}: terminal {final['type']}")
            return driver.steps
    except Exception as exc:  # noqa: BLE001 - every failure is the result
        failures.append(f"session {index}: {type(exc).__name__}: {exc}")
        return 0


def _percentiles(values: list[float]) -> dict[str, float]:
    arr = np.sort(np.asarray(values, dtype=float))

    def pct(q: float) -> float:
        return float(np.percentile(arr, q)) if arr.size else 0.0

    return {
        "p50": pct(50),
        "p90": pct(90),
        "p99": pct(99),
        "max": float(arr[-1]) if arr.size else 0.0,
        "mean": float(arr.mean()) if arr.size else 0.0,
    }


def run_load(
    n_sessions: int, access_log: str | Path | None = None
) -> dict[str, Any]:
    _raise_fd_limit(2 * n_sessions + 256)
    dataset = case1_dataset(
        np.random.default_rng(DATASET_SEED), n_points=DATASET_POINTS
    ).dataset
    service = SessionService(access_log=access_log)
    service.register_dataset("bench", dataset)

    latencies: list[float] = []
    by_route: dict[str, list[float]] = {}
    id_mismatches: list[str] = []
    failures: list[str] = []

    async def fan_out(port: int) -> list[int]:
        return await asyncio.gather(
            *(
                _one_session(
                    port,
                    i,
                    dataset,
                    latencies,
                    by_route,
                    id_mismatches,
                    failures,
                )
                for i in range(n_sessions)
            )
        )

    with ServiceRuntime(service) as runtime:
        start = time.perf_counter()
        steps = asyncio.run(fan_out(runtime.port))
        wall = time.perf_counter() - start
    service.close()

    overall = _percentiles(latencies)
    completed = sum(1 for s in steps if s > 0)
    requests = len(latencies)
    access_lines = (
        service.access_log.lines_written
        if service.access_log is not None
        else 0
    )
    return {
        "format": BENCH_FORMAT,
        "schema_version": BENCH_SCHEMA_VERSION,
        "name": "service_load",
        "quick": False,
        "workload": {
            "sessions": n_sessions,
            "dataset_points": DATASET_POINTS,
            "dataset_seed": DATASET_SEED,
            **LOAD_CONFIG,
        },
        "workloads": {
            "service_load": {
                "wall_seconds": wall,
                "queries_per_second": n_sessions / wall if wall else 0.0,
                "requests": requests,
                "requests_per_second": requests / wall if wall else 0.0,
                "sessions_completed": completed,
                "failed_requests": len(failures),
                "missing_request_id": len(id_mismatches),
                "access_log_lines": access_lines,
                "decision_steps_total": int(sum(steps)),
                "latency_seconds": overall,
                "routes": {
                    route: {
                        "requests": len(values),
                        "latency_seconds": _percentiles(values),
                    }
                    for route, values in sorted(by_route.items())
                },
                "cache": {"hits": 0, "misses": 0, "hit_rate": 0.0},
                "phases": {},
            }
        },
        "failures": (failures + id_mismatches)[:20],
    }


def render(doc: dict[str, Any]) -> str:
    cell = doc["workloads"]["service_load"]
    lat = cell["latency_seconds"]
    rows = [
        ["sessions", doc["workload"]["sessions"]],
        ["completed", cell["sessions_completed"]],
        ["failed requests", cell["failed_requests"]],
        ["missing request ids", cell["missing_request_id"]],
        ["access log lines", cell["access_log_lines"]],
        ["requests", cell["requests"]],
        ["wall s", f"{cell['wall_seconds']:.2f}"],
        ["requests/s", f"{cell['requests_per_second']:.1f}"],
        ["sessions/s", f"{cell['queries_per_second']:.1f}"],
        ["latency p50 ms", f"{lat['p50'] * 1e3:.2f}"],
        ["latency p90 ms", f"{lat['p90'] * 1e3:.2f}"],
        ["latency p99 ms", f"{lat['p99'] * 1e3:.2f}"],
        ["latency max ms", f"{lat['max'] * 1e3:.2f}"],
    ]
    for route, stats in cell["routes"].items():
        r = stats["latency_seconds"]
        rows.append(
            [
                f"{route} p50/p90/p99 ms",
                f"{r['p50'] * 1e3:.2f} / {r['p90'] * 1e3:.2f} / "
                f"{r['p99'] * 1e3:.2f}  (n={stats['requests']})",
            ]
        )
    return format_table(["metric", "value"], rows)


def _check(doc: dict[str, Any], n_sessions: int) -> None:
    cell = doc["workloads"]["service_load"]
    assert cell["failed_requests"] == 0, (
        f"{cell['failed_requests']} failed requests: "
        f"{doc['failures']}"
    )
    assert cell["sessions_completed"] == n_sessions
    assert cell["missing_request_id"] == 0, (
        f"{cell['missing_request_id']} responses without the echoed "
        f"X-Request-Id: {doc['failures']}"
    )


def _run_and_report(n_sessions: int) -> dict[str, Any]:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    access_log = RESULTS_DIR / "service_access.jsonl"
    access_log.unlink(missing_ok=True)  # fresh log per run, not appended
    doc = run_load(n_sessions, access_log=access_log)
    report("service_load", render(doc))
    (RESULTS_DIR / "service_load.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True)
    )
    return doc


def test_service_load_1k_sessions():
    """CI load lane: 1000 concurrent sessions, zero failed requests."""
    doc = _run_and_report(N_SESSIONS)
    _check(doc, N_SESSIONS)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sessions", type=int, default=N_SESSIONS)
    parser.add_argument(
        "--access-log",
        type=str,
        default=None,
        help="JSONL access-log destination (default: "
        "benchmarks/results/service_access.jsonl)",
    )
    args = parser.parse_args(argv)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    if args.access_log is not None:
        access_log = Path(args.access_log)
        access_log.unlink(missing_ok=True)
        doc = run_load(args.sessions, access_log=access_log)
        report("service_load", render(doc))
        (RESULTS_DIR / "service_load.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True)
        )
    else:
        doc = _run_and_report(args.sessions)
    _check(doc, args.sessions)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
