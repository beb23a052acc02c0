"""Perf-regression harness: pinned workload matrix vs committed baseline.

The interactive pipeline's responsiveness budget lives in its per-phase
costs (KDE gridding, merge-tree connectivity, projection search); this script pins a
small workload matrix, measures it through the tracing substrate, and
diffs the result against a committed baseline so perf regressions are
caught as a readable table instead of being discovered in production.

Modes
-----
``record``
    Run the matrix and write the schema-versioned baseline
    (``BENCH_core.json`` at the repo root by default).  Commit the file.
``check``
    Run the matrix, compare against the committed baseline, print a
    per-metric diff table, write the current measurement and the table
    under ``benchmarks/results/``, and exit non-zero when any compared
    metric regressed by more than ``--threshold`` (default 25%).

Workload matrix (``--quick`` halves the sizes and drops a cell):

* ``sequential``      — ``run_batch`` over the pinned query mix
* ``sequential_nocache`` — sequential with the KDE grid cache disabled
* ``service``         — oracle-driven sessions over the asyncio HTTP
  session service (real sockets, checkpoint/resume per decision); its
  request and finished-session counts gate with the other counters
* ``scaling_binned`` — the approximate density mode
  (``SearchConfig.kde_mode="binned"``) on a slice of the pinned query
  mix, with the grid cache disabled so its work counter
  (``kde.binned.cells``) is an exact function of the workload and gates
  drift in the binned evaluator

Each cell records wall seconds, queries/second, the KDE cache hits,
misses and hit rate, the deterministic work counters
(``connectivity.merge_tree.builds`` and ``engine.steps``), and the
per-phase trace aggregate (count,
wall/cpu/self totals) for the key pipeline phases; the document also
carries peak RSS (self and children) from :func:`resource.getrusage`.

Wall-clock comparisons across *different machines* are meaningless —
baselines are per-environment artifacts.  Structural *counts*, by
contrast, are deterministic for a pinned workload on any machine:
engine steps, merge-tree builds, KDE cache hits and misses, and phase
span counts catch behavioral
regressions (e.g. a consumer building more grids or taking more steps)
independent of machine speed.
``check --counters-only`` compares only those, which is what CI runs as
a *blocking* gate; the wall-time diff remains a warning-level report.

Usage::

    PYTHONPATH=src python benchmarks/regression.py record
    PYTHONPATH=src python benchmarks/regression.py check --threshold 0.5
    PYTHONPATH=src python benchmarks/regression.py check --counters-only
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: Schema version of the BENCH_*.json baseline document.
BENCH_SCHEMA_VERSION = 1

#: Baseline document format tag.
BENCH_FORMAT = "repro.bench"

#: Default relative slowdown tolerated before ``check`` fails.
DEFAULT_THRESHOLD = 0.25

#: Ignore phases faster than this in the baseline when diffing wall
#: time — sub-millisecond totals are dominated by clock noise.
MIN_COMPARED_SECONDS = 5e-3

#: The per-phase spans the harness tracks (see docs/OBSERVABILITY.md).
KEY_PHASES = (
    "engine.step",
    "projection.find",
    "kde.grid",
    "connectivity.merge_tree.build",
    "batch.finalize",
)

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_core.json"
RESULTS_DIR = Path(__file__).resolve().parent / "results"


# ----------------------------------------------------------------------
# Workload matrix
# ----------------------------------------------------------------------
def _build_workload(points: int, queries: int, seed: int):
    """The pinned dataset / config / duplicated query mix."""
    from repro.core.config import SearchConfig
    from repro.data.synthetic import (
        ProjectedClusterSpec,
        generate_projected_clusters,
    )

    spec = ProjectedClusterSpec(
        n_points=points,
        dim=10,
        n_clusters=3,
        cluster_dim=4,
        axis_parallel=True,
        noise_fraction=0.1,
    )
    data = generate_projected_clusters(spec, np.random.default_rng(seed))
    dataset = data.dataset
    rng = np.random.default_rng(seed + 1)
    clustered = np.concatenate(
        [dataset.cluster_indices(label) for label in range(3)]
    )
    distinct = rng.choice(
        clustered, size=max(2, queries // 4), replace=False
    )
    query_indices = rng.choice(distinct, size=queries, replace=True)
    config = SearchConfig(
        support=15,
        grid_resolution=30,
        min_major_iterations=2,
        max_major_iterations=2,
        projection_restarts=2,
    )
    return dataset, config, query_indices


def _run_cell(
    dataset,
    config,
    query_indices,
    *,
    runner: Callable[..., Any],
    extra_counters: dict[str, str] | None = None,
) -> dict[str, Any]:
    """Run one matrix cell under its own tracer; return its record.

    ``extra_counters`` maps record field names to metric-registry
    counter names whose deltas the cell should additionally report
    (e.g. the binned-KDE work counter of the scaling lane).
    """
    from repro.core.search import InteractiveNNSearch
    from repro.obs.metrics import counter_values
    from repro.obs.trace import Tracer

    search = InteractiveNNSearch(dataset, config)
    before = counter_values()
    tracer = Tracer()
    start = time.perf_counter()
    with tracer.activate():
        runner(search)
    wall = time.perf_counter() - start
    after = counter_values()
    hits = after.get("kde.cache.hit", 0.0) - before.get("kde.cache.hit", 0.0)
    misses = after.get("kde.cache.miss", 0.0) - before.get(
        "kde.cache.miss", 0.0
    )
    lookups = hits + misses
    tree_builds = after.get("connectivity.merge_tree.builds", 0.0) - before.get(
        "connectivity.merge_tree.builds", 0.0
    )
    steps = after.get("engine.steps", 0.0) - before.get("engine.steps", 0.0)
    aggregate = tracer.report().aggregate()
    phases = {
        name: {
            "count": int(entry["count"]),
            "wall_total": entry["wall_total"],
            "wall_mean": entry["wall_mean"],
            "cpu_total": entry["cpu_total"],
            "self_wall_total": entry["self_wall_total"],
        }
        for name, entry in aggregate.items()
        if name in KEY_PHASES
    }
    counters = {
        "merge_tree_builds": int(tree_builds),
        "engine_steps": int(steps),
    }
    for field, metric in (extra_counters or {}).items():
        counters[field] = int(after.get(metric, 0.0) - before.get(metric, 0.0))
    return {
        "wall_seconds": wall,
        "queries_per_second": len(query_indices) / wall if wall else 0.0,
        "cache": {
            "hits": int(hits),
            "misses": int(misses),
            "hit_rate": hits / lookups if lookups else 0.0,
        },
        "counters": counters,
        "phases": phases,
    }


def _run_service_cell(
    dataset, config, query_indices, *, sessions: int
) -> dict[str, Any]:
    """Service lane: oracle-driven sessions over the HTTP service.

    Boots :class:`~repro.service.app.SessionService` on an ephemeral
    port and fans *sessions* concurrent
    :class:`~repro.service.client.RemoteSessionDriver` runs at it — the
    checkpoint/resume-per-decision hot path under real sockets.  The
    record carries the same deterministic counters as the in-process
    cells plus three service-level ones (``service_requests``,
    ``service_errors``, ``sessions_finished``), all exact for the
    pinned workload; ``service_errors`` is exact 0, so any response
    with status >= 400 on the hot path trips it.  Two more count the
    hot-path waste the store's kept engines remove:
    ``view_recomputes`` (resumes that recomputed their view) and
    ``fingerprint_hashes`` (SHA-256 passes over the dataset), both
    exact 0.  ``profile_builds`` counts density
    profiles built on either side of the socket: one per served view,
    since the client decodes the server's grid instead of rebuilding it.
    """
    import asyncio

    from repro.interaction.oracle import OracleUser
    from repro.obs.metrics import counter_values
    from repro.service.app import ServiceRuntime, SessionService
    from repro.service.client import RemoteSessionDriver, ServiceClient

    chosen = [int(q) for q in query_indices[:sessions]]
    service = SessionService()
    service.register_dataset("bench", dataset)
    before = counter_values()
    start = time.perf_counter()
    with ServiceRuntime(service) as runtime:

        async def one(query_index: int) -> int:
            async with ServiceClient("127.0.0.1", runtime.port) as client:
                driver = RemoteSessionDriver(
                    client,
                    user=OracleUser(dataset, query_index),
                    config=config,
                )
                final = await driver.run("bench", query_index=query_index)
                if final["type"] != "search_result":
                    raise AssertionError(
                        f"session for query {query_index} ended with "
                        f"{final['type']}"
                    )
                return driver.steps

        async def fan_out() -> list[int]:
            return await asyncio.gather(*(one(qi) for qi in chosen))

        asyncio.run(fan_out())
    wall = time.perf_counter() - start
    after = counter_values()

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    tree_builds = delta("connectivity.merge_tree.builds")
    steps = delta("engine.steps")
    hits = delta("kde.cache.hit")
    misses = delta("kde.cache.miss")
    lookups = hits + misses
    return {
        "wall_seconds": wall,
        "queries_per_second": len(chosen) / wall if wall else 0.0,
        "cache": {
            "hits": int(hits),
            "misses": int(misses),
            "hit_rate": hits / lookups if lookups else 0.0,
        },
        "counters": {
            "merge_tree_builds": int(tree_builds),
            "engine_steps": int(steps),
            "service_requests": int(delta("service.requests")),
            "service_errors": int(delta("service.errors")),
            "sessions_finished": int(delta("service.sessions.finished")),
            "view_recomputes": int(delta("service.view_recomputes")),
            "fingerprint_hashes": int(delta("data.fingerprint.hashes")),
            "profile_builds": int(delta("profile.builds")),
        },
        # Engine work runs on the server thread, outside the
        # harness-thread tracer; counters above cover determinism.
        "phases": {},
        "sessions": len(chosen),
    }


def run_matrix(
    *,
    points: int = 1200,
    queries: int = 32,
    seed: int = 42,
    quick: bool = False,
    name: str = "core",
    presized: bool = False,
) -> dict[str, Any]:
    """Run every matrix cell; return the schema-versioned document.

    ``presized`` means *points*/*queries* are final (they came from a
    recorded baseline's workload section, which already reflects any
    quick halving); ``quick`` then only trims the cell matrix.  Without
    it, ``check --quick`` would halve the baseline's already-halved
    sizes and diff two different workloads.
    """
    import resource

    from repro.core.batch import run_batch
    from repro.density.cache import disabled_density_cache
    from repro.interaction.oracle import OracleUser

    if quick and not presized:
        points = max(400, points // 2)
        queries = max(8, queries // 2)
    dataset, config, query_indices = _build_workload(points, queries, seed)

    def factory(query_index):
        return OracleUser(dataset, query_index)

    def sequential(search):
        return run_batch(search, query_indices, factory)

    def sequential_nocache(search):
        with disabled_density_cache():
            return run_batch(search, query_indices, factory)

    cells: dict[str, Callable[..., Any]] = {
        "sequential": sequential,
        "sequential_nocache": sequential_nocache,
    }
    if quick:
        del cells["sequential_nocache"]

    workloads: dict[str, dict[str, Any]] = {}
    for cell_name, runner in cells.items():
        print(f"  running {cell_name} ...", flush=True)
        workloads[cell_name] = _run_cell(
            dataset, config, query_indices, runner=runner
        )
        print(
            f"    {workloads[cell_name]['wall_seconds']:.2f}s "
            f"({workloads[cell_name]['queries_per_second']:.2f} q/s)",
            flush=True,
        )
    service_sessions = 4 if quick else 8
    print(f"  running service ({service_sessions} sessions) ...", flush=True)
    workloads["service"] = _run_service_cell(
        dataset, config, query_indices, sessions=service_sessions
    )
    print(
        f"    {workloads['service']['wall_seconds']:.2f}s "
        f"({workloads['service']['queries_per_second']:.2f} q/s)",
        flush=True,
    )
    scaling_queries = [int(q) for q in query_indices[: 4 if quick else 8]]
    print("  running scaling_binned ...", flush=True)

    def scaling_runner(search):
        # Cache disabled so the binned work counter is an exact function
        # of the workload, not of whatever grids the earlier cells
        # happened to leave in the process-wide cache.
        with disabled_density_cache():
            return run_batch(search, scaling_queries, factory)

    workloads["scaling_binned"] = _run_cell(
        dataset,
        dataclasses.replace(config, kde_mode="binned"),
        scaling_queries,
        runner=scaling_runner,
        extra_counters={"kde_binned_cells": "kde.binned.cells"},
    )
    print(
        f"    {workloads['scaling_binned']['wall_seconds']:.2f}s "
        f"({workloads['scaling_binned']['queries_per_second']:.2f} q/s)",
        flush=True,
    )
    usage_self = resource.getrusage(resource.RUSAGE_SELF)
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "format": BENCH_FORMAT,
        "schema_version": BENCH_SCHEMA_VERSION,
        "name": name,
        "quick": quick,
        "workload": {
            "points": points,
            "queries": queries,
            "seed": seed,
            "support": config.support,
            "grid_resolution": config.grid_resolution,
        },
        # ru_maxrss is kilobytes on Linux.
        "peak_rss_bytes": {
            "self": int(usage_self.ru_maxrss) * 1024,
            "children": int(usage_children.ru_maxrss) * 1024,
        },
        "workloads": workloads,
    }


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def compare(
    baseline: dict[str, Any],
    current: dict[str, Any],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    counters_only: bool = False,
) -> tuple[list[dict[str, Any]], list[str]]:
    """Diff two measurement documents.

    Returns ``(rows, regressions)``: one row per compared metric
    (workload, metric, baseline, current, relative delta, status) and
    the list of human-readable regression descriptions.  A wall-time
    metric regresses when ``current > baseline * (1 + threshold)`` and
    the baseline is above :data:`MIN_COMPARED_SECONDS`, and deterministic
    phase *counts* regress on any mismatch.  A baseline cell missing
    from *current* regresses too, in every mode: its gates would
    otherwise vanish without a trace.  A cell only *current* has is
    not compared.

    With ``counters_only=True``, wall-time and rate metrics are skipped
    entirely: the remaining count comparisons are deterministic
    for a pinned workload and therefore machine-independent, which is
    what lets CI run them as a blocking gate against the committed
    baseline.
    """
    rows: list[dict[str, Any]] = []
    regressions: list[str] = []

    def add(workload: str, metric: str, base: float, cur: float, kind: str):
        if counters_only and kind != "count":
            return
        if base <= 0:
            delta = 0.0 if cur <= 0 else float("inf")
        else:
            delta = (cur - base) / base
        if kind == "count":
            regressed = int(base) != int(cur)
        elif kind == "seconds":
            regressed = base > MIN_COMPARED_SECONDS and delta > threshold
        else:  # rate: lower is worse
            regressed = base > 0 and (base - cur) / base > threshold
        status = "REGRESSION" if regressed else "ok"
        if kind == "seconds" and not regressed and delta < -threshold:
            status = "improved"
        rows.append(
            {
                "workload": workload,
                "metric": metric,
                "baseline": base,
                "current": cur,
                "delta": delta,
                "kind": kind,
                "status": status,
            }
        )
        if regressed:
            if kind == "count":
                detail = f"{int(base)} -> {int(cur)}"
            elif kind == "rate":
                detail = f"{base:.1%} -> {cur:.1%}"
            else:
                detail = f"{base:.3f}s -> {cur:.3f}s (+{delta:.0%})"
            regressions.append(f"{workload}/{metric}: {detail}")

    base_workloads = baseline.get("workloads", {})
    cur_workloads = current.get("workloads", {})
    for workload in sorted(set(base_workloads) - set(cur_workloads)):
        rows.append(
            {
                "workload": workload,
                "metric": "cell",
                "baseline": 1.0,
                "current": 0.0,
                "delta": -1.0,
                "kind": "count",
                "status": "MISSING",
            }
        )
        regressions.append(f"{workload}: cell missing from the current run")
    for workload in sorted(set(base_workloads) & set(cur_workloads)):
        base_cell = base_workloads[workload]
        cur_cell = cur_workloads[workload]
        add(
            workload,
            "wall_seconds",
            float(base_cell["wall_seconds"]),
            float(cur_cell["wall_seconds"]),
            "seconds",
        )
        add(
            workload,
            "cache.hit_rate",
            float(base_cell["cache"]["hit_rate"]),
            float(cur_cell["cache"]["hit_rate"]),
            "rate",
        )
        # The cells run in a fixed order against one process-wide KDE
        # grid cache, so every cell's lookups, and which of them hit,
        # are a pure function of the pinned workload.
        for name in ("hits", "misses"):
            add(
                workload,
                f"cache.{name}",
                float(base_cell["cache"][name]),
                float(cur_cell["cache"][name]),
                "count",
            )
        base_counters = base_cell.get("counters", {})
        cur_counters = cur_cell.get("counters", {})
        exact = ["engine_steps", "merge_tree_builds"]
        if workload == "service":
            # The HTTP request count (creates + decisions), the error
            # count (exact 0: every response on the pinned oracle path
            # is a success, so any status >= 400 fails it) and the
            # finished-session count are exact for the pinned oracle
            # streams — a routing, resume, or error-path regression
            # moves them.  Every
            # checkpoint stays hot, so no decision recomputes its view
            # or re-hashes the dataset (both exact 0).  Profiles are
            # built by the server only, one per view: a client that
            # ran the KDE again would double the count.
            exact += [
                "service_requests",
                "service_errors",
                "sessions_finished",
                "view_recomputes",
                "fingerprint_hashes",
                "profile_builds",
            ]
        if workload == "scaling_binned":
            # Binned-KDE work: blurred grid cells.  The cell runs with
            # the density cache disabled, so the delta is an exact
            # function of the pinned workload — any drift means the
            # binned evaluator changed how much work it does.
            exact.append("kde_binned_cells")
        for name in exact:
            if name in base_counters and name in cur_counters:
                add(
                    workload,
                    f"counters.{name}",
                    float(base_counters[name]),
                    float(cur_counters[name]),
                    "count",
                )
        base_phases = base_cell.get("phases", {})
        cur_phases = cur_cell.get("phases", {})
        for phase in sorted(set(base_phases) & set(cur_phases)):
            add(
                workload,
                f"{phase}.count",
                float(base_phases[phase]["count"]),
                float(cur_phases[phase]["count"]),
                "count",
            )
            add(
                workload,
                f"{phase}.wall_total",
                float(base_phases[phase]["wall_total"]),
                float(cur_phases[phase]["wall_total"]),
                "seconds",
            )
    return rows, regressions


def render_diff_table(rows: list[dict[str, Any]]) -> str:
    """Fixed-width diff table over :func:`compare` rows."""
    headers = ["workload", "metric", "baseline", "current", "delta", "status"]
    table = [headers]
    for row in rows:
        if row["kind"] == "count":
            base = str(int(row["baseline"]))
            cur = str(int(row["current"]))
        elif row["kind"] == "rate":
            base = f"{row['baseline']:.1%}"
            cur = f"{row['current']:.1%}"
        else:
            base = f"{row['baseline'] * 1e3:.1f}ms"
            cur = f"{row['current'] * 1e3:.1f}ms"
        delta = (
            f"{row['delta']:+.1%}" if row["delta"] != float("inf") else "+inf"
        )
        table.append(
            [row["workload"], row["metric"], base, cur, delta, row["status"]]
        )
    widths = [
        max(len(line[col]) for line in table) for col in range(len(headers))
    ]
    lines = []
    for index, line in enumerate(table):
        lines.append(
            "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(line))
        )
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def load_baseline(path: Path) -> dict[str, Any]:
    """Read and validate a baseline document; raises ``ValueError``."""
    payload = json.loads(path.read_text())
    if payload.get("format") != BENCH_FORMAT:
        raise ValueError(
            f"{path} is not a {BENCH_FORMAT} document "
            "(record one with: python benchmarks/regression.py record)"
        )
    if payload.get("schema_version") != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path} has schema_version {payload.get('schema_version')}; "
            f"this harness speaks {BENCH_SCHEMA_VERSION} — re-record the "
            "baseline"
        )
    return payload


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="performance regression harness (record / check)"
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("record", "check"):
        p = sub.add_parser(mode)
        p.add_argument(
            "--baseline",
            type=Path,
            default=DEFAULT_BASELINE,
            help=f"baseline JSON path (default: {DEFAULT_BASELINE})",
        )
        p.add_argument("--name", default="core", help="baseline name tag")
        p.add_argument("--points", type=int, default=1200)
        p.add_argument("--queries", type=int, default=32)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument(
            "--quick",
            action="store_true",
            help="halved sizes, reduced matrix (CI mode)",
        )
    check = sub.choices["check"]
    check.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help=f"tolerated relative slowdown (default {DEFAULT_THRESHOLD})",
    )
    check.add_argument(
        "--out-dir",
        type=Path,
        default=RESULTS_DIR,
        help="directory receiving the current JSON + diff table",
    )
    check.add_argument(
        "--counters-only",
        action="store_true",
        help=(
            "compare only deterministic count metrics (engine steps, "
            "merge-tree builds, service and KDE work counts, phase "
            "counts); "
            "machine-independent, suitable as a blocking CI gate"
        ),
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    ``record`` exits 0 after writing the baseline.  ``check`` exits 0
    when every compared metric is within threshold, 1 on regression,
    and 2 when the baseline is missing or incompatible.
    """
    args = _build_parser().parse_args(argv)
    if args.mode == "record":
        print(f"recording baseline '{args.name}' ...")
        payload = run_matrix(
            points=args.points,
            queries=args.queries,
            seed=args.seed,
            quick=args.quick,
            name=args.name,
        )
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"baseline written to {args.baseline}")
        return 0

    # check
    try:
        baseline = load_baseline(args.baseline)
    except FileNotFoundError:
        print(
            f"no baseline at {args.baseline}; record one first with: "
            "python benchmarks/regression.py record",
            file=sys.stderr,
        )
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(f"checking against baseline '{baseline.get('name')}' ...")
    current = run_matrix(
        points=int(baseline["workload"].get("points", args.points)),
        queries=int(baseline["workload"].get("queries", args.queries)),
        seed=int(baseline["workload"].get("seed", args.seed)),
        quick=bool(baseline.get("quick", args.quick)),
        name=str(baseline.get("name", args.name)),
        presized=True,
    )
    rows, regressions = compare(
        baseline,
        current,
        threshold=args.threshold,
        counters_only=bool(getattr(args, "counters_only", False)),
    )
    table = render_diff_table(rows)
    print()
    print(table)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    current_path = args.out_dir / f"BENCH_{current['name']}_current.json"
    current_path.write_text(
        json.dumps(current, indent=2, sort_keys=True) + "\n"
    )
    (args.out_dir / f"BENCH_{current['name']}_diff.txt").write_text(
        table + "\n"
    )
    print(f"\ncurrent measurement written to {current_path}")
    if regressions:
        print(
            f"\n{len(regressions)} regression(s) beyond "
            f"{args.threshold:.0%}:",
            file=sys.stderr,
        )
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"\nno regressions beyond {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
