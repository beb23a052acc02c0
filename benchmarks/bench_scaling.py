"""Scaling — wall-clock behaviour with N and d, and the million-point lane.

Not a paper experiment; characterizes the implementation so users know
what to expect.  Three lanes:

* **Curves** (the pytest fixtures below): one full interactive query,
  driven through the :class:`~repro.core.engine.SearchEngine` state
  machine, timed across data sizes and dimensionalities.
* **Per-view latency** (:func:`measure_view_latency`): a single
  ``VisualProfile.build`` on a projected 2-D cloud at ``n`` points for
  every ``kde_mode`` — the number that must stay flat in *n* for the
  binned mode.  At ``n = 10**6`` and the paper's ``p = 40`` the
  binned mode must be at least ``MIN_BINNED_SPEEDUP``× faster than
  exact (``test_million_point_view_latency``, ``-m million``).
* **Recall-vs-latency frontier** (:func:`run_frontier`): full
  oracle-driven searches per density mode on a pinned workload,
  reporting mean per-view seconds against neighbor-set recall relative
  to the exact-mode run — the ann-benchmarks-style trade-off curve.

``python benchmarks/bench_scaling.py --out frontier.json`` emits the
frontier plus the per-view latency lane as one ``repro.bench`` document
(and a PNG when matplotlib is importable); the scheduled
``scaling-frontier`` CI job uploads it as an artifact.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import OracleUser, SearchConfig
from repro.core.engine import SearchEngine
from repro.core.search import drive
from repro.data.synthetic import ProjectedClusterSpec, generate_projected_clusters
from repro.density.cache import disabled_density_cache
from repro.density.profiles import VisualProfile
from repro.obs.metrics import counter_values
from repro.obs.trace import Tracer
from repro.viz.export import export_table

from bench_utils import RESULTS_DIR, format_table, report

#: Document format shared with ``benchmarks/regression.py`` baselines.
FRONTIER_FORMAT = "repro.bench"
FRONTIER_SCHEMA_VERSION = 1

#: Grid resolution of the per-view latency lane (the paper's ``p``).
VIEW_RESOLUTION = 40

#: Required exact/binned per-view speedup at a million points.
MIN_BINNED_SPEEDUP = 20.0

#: Required neighbor-set recall of every frontier lane.
MIN_FRONTIER_RECALL = 0.95


def _workload(n_points: int, dim: int, seed: int = 5):
    spec = ProjectedClusterSpec(
        n_points=n_points,
        dim=dim,
        n_clusters=4,
        cluster_dim=max(2, dim // 4),
        axis_parallel=True,
        noise_fraction=0.1,
    )
    data = generate_projected_clusters(spec, np.random.default_rng(seed))
    ds = data.dataset
    qi = int(ds.cluster_indices(0)[0])
    return ds, qi


def _run_query(ds, qi, config):
    """One full search through the non-blocking engine state machine."""
    engine = SearchEngine(ds, config)
    return drive(engine, ds.points[qi], OracleUser(ds, qi))


def _time_one_query(ds, qi) -> float:
    config = SearchConfig(
        support=25, min_major_iterations=2, max_major_iterations=2
    )
    start = time.perf_counter()
    _run_query(ds, qi, config)
    return time.perf_counter() - start


@pytest.fixture(scope="module")
def scaling_results(results_dir):
    by_n = {}
    for n in (1000, 2000, 4000):
        ds, qi = _workload(n, 16)
        by_n[n] = _time_one_query(ds, qi)
    by_d = {}
    for d in (8, 16, 32):
        ds, qi = _workload(2000, d)
        by_d[d] = _time_one_query(ds, qi)
    text = (
        format_table(
            ["N (d=16)", "seconds / query"],
            [[n, f"{t:.2f}"] for n, t in by_n.items()],
        )
        + "\n\n"
        + format_table(
            ["d (N=2000)", "seconds / query"],
            [[d, f"{t:.2f}"] for d, t in by_d.items()],
        )
        + "\n(2 major iterations; cost is dominated by the d/2 density "
        "profiles per iteration, each O(p*N) kernel work)"
    )
    report("scaling", text)
    export_table(
        [{"axis": "N", "value": n, "seconds": t} for n, t in by_n.items()]
        + [{"axis": "d", "value": d, "seconds": t} for d, t in by_d.items()],
        results_dir / "scaling.csv",
    )
    return {"by_n": by_n, "by_d": by_d}


def test_scaling_subquadratic_in_n(scaling_results):
    """4x the points costs well under 16x the time (not O(N^2))."""
    by_n = scaling_results["by_n"]
    assert by_n[4000] < 10 * max(by_n[1000], 1e-3)


def test_scaling_reasonable_in_d(scaling_results):
    """4x the dimensionality costs under ~12x (d/2 views, deeper refinement)."""
    by_d = scaling_results["by_d"]
    assert by_d[32] < 12 * max(by_d[8], 1e-3)


def test_interactive_query_latency_practical(scaling_results):
    """A paper-scale query stays in interactive territory (< 30 s here)."""
    assert scaling_results["by_n"][4000] < 30.0


def test_scaling_benchmark(benchmark, scaling_results):
    ds, qi = _workload(2000, 16)
    config = SearchConfig(
        support=25, min_major_iterations=1, max_major_iterations=1
    )

    result = benchmark.pedantic(
        lambda: _run_query(ds, qi, config),
        rounds=1,
        iterations=1,
    )
    assert result.neighbor_indices.size > 0


# ----------------------------------------------------------------------
# Per-view latency at scale
# ----------------------------------------------------------------------
def _projected_cloud(n: int, seed: int = 11):
    """A deterministic 2-D "projected view" at scale: 3-lobe mixture.

    Stands in for what the engine hands ``VisualProfile.build`` after
    projecting an ``n``-point dataset — per-view cost depends only on
    the 2-D cloud, so the lane needs no high-dimensional generation.
    """
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [4.0, 1.0], [-3.0, 3.0]])
    lobes = rng.integers(0, centers.shape[0], size=n)
    pts = centers[lobes] + rng.standard_normal((n, 2))
    return pts, centers[0].copy()


def measure_view_latency(
    n: int,
    *,
    resolution: int = VIEW_RESOLUTION,
    repeats: int = 3,
    seed: int = 11,
) -> dict:
    """Best-of-*repeats* ``VisualProfile.build`` seconds per kde_mode."""
    pts, query = _projected_cloud(n, seed)
    modes: dict[str, dict] = {}
    with disabled_density_cache():
        for mode in ("exact", "binned"):
            best = math.inf
            for _ in range(repeats):
                start = time.perf_counter()
                VisualProfile.build(
                    pts, query, resolution=resolution, kde_mode=mode
                )
                best = min(best, time.perf_counter() - start)
            modes[mode] = {"view_seconds": best}
    return {
        "n": int(n),
        "resolution": int(resolution),
        "modes": modes,
        "binned_speedup": modes["exact"]["view_seconds"]
        / max(modes["binned"]["view_seconds"], 1e-12),
    }


@pytest.mark.million
@pytest.mark.slow
def test_million_point_view_latency():
    """Binned per-view latency at n=10^6, p=40 beats exact by >= 20x."""
    lat = measure_view_latency(1_000_000, repeats=2)
    assert lat["binned_speedup"] >= MIN_BINNED_SPEEDUP, lat


# ----------------------------------------------------------------------
# Recall-vs-latency frontier
# ----------------------------------------------------------------------
def run_frontier(
    *,
    n_points: int = 8000,
    dim: int = 16,
    n_queries: int = 3,
    seed: int = 5,
) -> dict:
    """Full searches per density mode; recall vs the exact-mode lane.

    Every lane runs the same pinned oracle queries with the grid cache
    disabled (so per-view seconds measure evaluation, not reuse).  The
    exact lane's neighbor sets are ground truth; each approximate
    lane's ``recall_vs_exact`` is the mean fraction of those neighbors
    it recovers.  Lanes carry the binned-KDE work counter so the
    scheduled CI job can cross-check it against ``BENCH_core.json``.
    """
    ds, _ = _workload(n_points, dim, seed)
    queries = [
        int(ds.cluster_indices(c % 4)[0]) for c in range(n_queries)
    ]
    base = SearchConfig(
        support=25, min_major_iterations=2, max_major_iterations=2
    )
    lanes = []
    exact_neighbors: dict[int, set[int]] = {}
    for mode in ("exact", "binned"):
        config = dataclasses.replace(base, kde_mode=mode)
        tracer = Tracer()
        before = counter_values()
        start = time.perf_counter()
        with tracer.activate(), disabled_density_cache():
            results = {qi: _run_query(ds, qi, config) for qi in queries}
        wall = time.perf_counter() - start
        after = counter_values()
        build = tracer.report().aggregate().get("profile.build", {})
        views = int(build.get("count", 0))
        if mode == "exact":
            exact_neighbors = {
                qi: set(map(int, r.neighbor_indices))
                for qi, r in results.items()
            }
            recall = 1.0
        else:
            recalls = [
                len(set(map(int, r.neighbor_indices)) & exact_neighbors[qi])
                / max(len(exact_neighbors[qi]), 1)
                for qi, r in results.items()
            ]
            recall = float(np.mean(recalls))
        lanes.append(
            {
                "mode": mode,
                "wall_seconds": wall,
                "views": views,
                "view_seconds_mean": float(build.get("wall_total", 0.0))
                / max(views, 1),
                "recall_vs_exact": recall,
                "counters": {
                    "kde_binned_cells": int(
                        after.get("kde.binned.cells", 0.0)
                        - before.get("kde.binned.cells", 0.0)
                    ),
                },
            }
        )
    return {
        "format": FRONTIER_FORMAT,
        "schema_version": FRONTIER_SCHEMA_VERSION,
        "name": "scaling_frontier",
        "workload": {
            "points": n_points,
            "dim": dim,
            "queries": n_queries,
            "seed": seed,
            "support": base.support,
            "grid_resolution": base.grid_resolution,
        },
        "lanes": lanes,
    }


def frontier_table(doc: dict) -> str:
    """Human-readable lane table for the frontier document."""
    rows = [
        [
            lane["mode"],
            f"{lane['view_seconds_mean'] * 1e3:.2f}",
            f"{lane['recall_vs_exact']:.3f}",
            lane["views"],
        ]
        for lane in doc["lanes"]
    ]
    return format_table(
        ["mode", "view ms", "recall", "views"], rows
    )


def write_frontier_plot(doc: dict, path: Path) -> bool:
    """Recall-vs-latency scatter; returns False if matplotlib is absent."""
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return False
    fig, ax = plt.subplots(figsize=(6, 4))
    for lane in doc["lanes"]:
        label = lane["mode"]
        ax.scatter(
            lane["view_seconds_mean"] * 1e3, lane["recall_vs_exact"]
        )
        ax.annotate(
            label,
            (lane["view_seconds_mean"] * 1e3, lane["recall_vs_exact"]),
            textcoords="offset points",
            xytext=(4, 4),
            fontsize=8,
        )
    ax.set_xscale("log")
    ax.set_xlabel("per-view latency (ms, lower is better)")
    ax.set_ylabel("recall vs exact-mode neighbors")
    ax.set_title(
        f"KDE mode frontier (n={doc['workload']['points']}, "
        f"p={doc['workload']['grid_resolution']})"
    )
    ax.grid(True, alpha=0.3)
    fig.tight_layout()
    path.parent.mkdir(parents=True, exist_ok=True)
    fig.savefig(path, dpi=120)
    plt.close(fig)
    return True


@pytest.fixture(scope="module")
def frontier_doc():
    # Trimmed sizes: the frontier's assertions care about recall, not
    # absolute latency, and exact lanes dominate the wall clock.
    return run_frontier(n_points=3000, n_queries=2)


def test_frontier_recall_meets_floor(frontier_doc):
    """Every lane recovers >= 95% of exact-mode neighbors."""
    lanes = frontier_doc["lanes"]
    assert any(lane["mode"] == "binned" for lane in lanes)
    for lane in lanes:
        assert lane["recall_vs_exact"] >= MIN_FRONTIER_RECALL, lane


def test_frontier_counters_active(frontier_doc):
    """The binned lane actually exercised its evaluator."""
    by_mode = {lane["mode"]: lane for lane in frontier_doc["lanes"]}
    assert by_mode["binned"]["counters"]["kde_binned_cells"] > 0
    assert by_mode["exact"]["counters"] == {"kde_binned_cells": 0}


def test_frontier_document_schema(frontier_doc, results_dir):
    assert frontier_doc["format"] == FRONTIER_FORMAT
    assert frontier_doc["schema_version"] == FRONTIER_SCHEMA_VERSION
    report("scaling_frontier", frontier_table(frontier_doc))
    (results_dir / "scaling_frontier.json").write_text(
        json.dumps(frontier_doc, indent=2, sort_keys=True) + "\n"
    )


# ----------------------------------------------------------------------
# CLI entry point (the scheduled scaling-frontier CI job)
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Record the KDE-mode recall-vs-latency frontier"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=RESULTS_DIR / "scaling_frontier.json",
        help="output JSON path",
    )
    parser.add_argument(
        "--plot",
        type=Path,
        default=None,
        help="optional PNG path (skipped when matplotlib is missing)",
    )
    parser.add_argument(
        "--latency-n",
        type=int,
        default=1_000_000,
        help="points for the per-view latency lane",
    )
    parser.add_argument("--frontier-points", type=int, default=8000)
    parser.add_argument("--queries", type=int, default=3)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink both lanes for smoke runs",
    )
    args = parser.parse_args(argv)

    latency_n = args.latency_n
    frontier_points = args.frontier_points
    queries = args.queries
    repeats = 3
    if args.quick:
        latency_n = min(latency_n, 200_000)
        frontier_points = min(frontier_points, 3000)
        queries = min(queries, 2)
        repeats = 2

    print(f"per-view latency lane: n={latency_n}, p={VIEW_RESOLUTION}")
    latency = measure_view_latency(latency_n, repeats=repeats)
    for mode, entry in latency["modes"].items():
        print(f"  {mode:<11} {entry['view_seconds'] * 1e3:10.2f} ms/view")
    print(f"  binned speedup over exact: {latency['binned_speedup']:.1f}x")

    print(f"frontier lane: n={frontier_points}, queries={queries}")
    doc = run_frontier(
        n_points=frontier_points, n_queries=queries, seed=args.seed
    )
    doc["view_latency"] = latency
    print(frontier_table(doc))

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    if args.plot is not None:
        if write_frontier_plot(doc, args.plot):
            print(f"wrote {args.plot}")
        else:
            print("matplotlib unavailable; skipped plot")

    ok = latency["binned_speedup"] >= MIN_BINNED_SPEEDUP and all(
        lane["recall_vs_exact"] >= MIN_FRONTIER_RECALL
        for lane in doc["lanes"]
    )
    if not ok:
        print("FRONTIER GATE FAILED", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
