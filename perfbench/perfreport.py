"""Reduce one run's measurements to the metrics ``BENCHMARK.json`` names.

Nothing here imports the program: it works on the plain lists and spans
an ``Outcome`` (see :mod:`workloads`) carries, so it can be tested alone.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any

from perfstats import percentile, tail_percentile
from perftrace import format_table, layer_table, root_of, self_times, unexplained

#: Fraction of a view's or request's time that wrapped layers may leave
#: unexplained before the traced run flags it.
UNEXPLAINED_LIMIT = 0.15

END_TO_END_UNITS = {
    "view_p50_ms": "ms",
    "view_p90_ms": "ms",
    "first_view_p50_ms": "ms",
    "sessions_per_s": "1/s",
    "setup_s": "s",
    "neighbor_precision": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "engine.self_ms.p50": "ms",
    "engine.views_per_session": "count",
    "engine.accepted_share": "ratio",
    "projections.find_ms.p50": "ms",
    "projections.find_share": "ratio",
    "projections.find_calls_per_view": "count",
    "geometry.discrimination_calls_per_view": "count",
    "density.profile_build_ms.p50": "ms",
    "density.exact_statistics_share": "ratio",
    "density.exact_statistics_calls": "count",
    "density.merge_tree_ms.p50": "ms",
    "density.merge_tree_builds": "count",
    "density.cache_hit_rate": "ratio",
    "density.binned_cells": "count",
    "interaction.review_ms.p50": "ms",
    "data.load_s": "s",
    "data.fingerprint_share": "ratio",
    "data.fingerprint_calls_per_request": "count",
    "checkpoint.encode_share": "ratio",
    "checkpoint.decode_share": "ratio",
    "checkpoint.bytes.p50": "bytes",
    "serialization.resume_share": "ratio",
    "service.server_share": "ratio",
    "service.loop_wait_share": "ratio",
    "service.wire_encode_share": "ratio",
    "service.response_bytes.p50": "bytes",
    "service.client_rebuild_share": "ratio",
    "store.get_share": "ratio",
    "store.put_share": "ratio",
    "trace.overhead_share": "ratio",
}

#: Layers whose time is reported as a share of the traced views' latency.
_LAYER_SHARES = {
    "data.fingerprint": "data.fingerprint_share",
    "checkpoint.encode": "checkpoint.encode_share",
    "checkpoint.decode": "checkpoint.decode_share",
    "serialization.resume": "serialization.resume_share",
    "service.wire_encode": "service.wire_encode_share",
    "store.get": "store.get_share",
    "store.put": "store.put_share",
    "projections.find": "projections.find_share",
    "density.exact_statistics": "density.exact_statistics_share",
}


def sessions_completed(completed_steps: list[int], cut_steps: list[int]) -> float:
    """Completed sessions, plus each session the window cut short counted
    by the share of a completed session's operations it had made."""
    if not completed_steps:
        return 0.0
    mean_steps = statistics.fmean(completed_steps)
    return len(completed_steps) + sum(min(1.0, s / mean_steps) for s in cut_steps)


def end_to_end(out: Any) -> tuple[dict[str, float], list[str]]:
    """Metric values and the reasons any of them could not be measured."""
    missing = []
    if not out.view_ms:
        return {}, ["no view was measured"]
    p90 = tail_percentile(out.view_ms, 90)
    if p90 is None:
        missing.append(f"view_p90_ms: only {len(out.view_ms)} views, fewer than ten beyond p90")
    if not out.completed_steps:
        missing.append("no session completed")
    if missing:
        return {}, missing
    values = {
        "view_p50_ms": percentile(out.view_ms, 50),
        "view_p90_ms": p90,
        "first_view_p50_ms": percentile(out.first_view_ms, 50),
        "sessions_per_s": sessions_completed(out.completed_steps, out.cut_steps) / out.window_s,
        "setup_s": statistics.median(out.setup_s),
        "neighbor_precision": statistics.fmean(out.precision),
        "peak_rss_mb": out.peak_rss_mb,
    }
    return values, []


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(out: Any, service: bool) -> tuple[dict[str, float], str, list[dict[str, Any]]]:
    """Per-layer metrics, the human-readable self-time table, and the
    views/requests whose unexplained self time exceeds the limit."""
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    client = out.client_spans
    client_roots = root_of(client)
    view_root = "client.view" if service else "engine.submit"
    views = [s for s in client if s["parent"] is None and s["name"] == view_root]
    base_ms = sum(s["end"] - s["start"] for s in views) * 1e3

    if service:
        server = out.server_spans
        server_roots = root_of(server)
        requests = {
            s["key"]: s
            for s in server
            if s["parent"] is None
            and s["name"] == "service.dispatch"
            and s["attrs"].get("route") == "decision"
        }
        round_trips = [s for s in client if s["name"] == "service.round_trip"]
        matched = [
            (rt, requests[rt["attrs"].get("request_id")])
            for rt in round_trips
            if rt["attrs"].get("request_id") in requests
        ]
        server_ms = sum(r["end"] - r["start"] for _, r in matched) * 1e3
        rt_ms = sum(rt["end"] - rt["start"] for rt, _ in matched) * 1e3
        rebuild_ms = sum(
            s["end"] - s["start"] for s in client if s["name"] == "service.client_rebuild"
        ) * 1e3
        values["service.server_share"] = _ratio(server_ms, base_ms)
        values["service.loop_wait_share"] = _ratio(rt_ms - server_ms, base_ms)
        values["service.client_rebuild_share"] = _ratio(rebuild_ms, base_ms)
        request_ids = {id(r) for _, r in matched}
        in_requests = [s for s in server if id(server_roots[s["id"]]) in request_ids]
        n_requests = len(matched)
        view_spans = in_requests
        selfs = self_times(server)
        response_bytes = [r["attrs"].get("bytes", 0) for _, r in matched]
        if response_bytes:
            values["service.response_bytes.p50"] = percentile(response_bytes, 50)
        encoded = [s["attrs"]["bytes"] for s in in_requests if s["name"] == "checkpoint.encode"]
        if encoded:
            values["checkpoint.bytes.p50"] = percentile(encoded, 50)
        values["data.fingerprint_calls_per_request"] = _ratio(
            sum(1 for s in in_requests if s["name"] == "data.fingerprint"), n_requests
        )
        loads = [s["end"] - s["start"] for s in server if s["name"] == "data.load"]
        per_process = [server, client]
        table = format_table(
            f"server, {n_requests} traced decision requests "
            f"(self/base: share of {base_ms:.0f} ms of view latency)",
            layer_table(in_requests),
            base_ms,
        ) + "\n" + format_table("client", layer_table(client), base_ms)
        flagged = unexplained(server, {"service.dispatch"}, UNEXPLAINED_LIMIT) + unexplained(
            client, {"client.view"}, UNEXPLAINED_LIMIT
        )
        view_count = n_requests
    else:
        view_spans = [s for s in client if client_roots[s["id"]]["name"] == "engine.submit"]
        selfs = self_times(client)
        loads = list(out.data_load_s)
        per_process = [client]
        table = format_table(
            f"{len(views)} traced views (self/base: share of {base_ms:.0f} ms)",
            layer_table(client),
            base_ms,
        )
        flagged = unexplained(client, {"engine.submit"}, UNEXPLAINED_LIMIT)
        view_count = len(views)

    totals: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in view_spans:
        totals[s["name"]] += (s["end"] - s["start"]) * 1e3
        calls[s["name"]] += 1
    for layer, metric in _LAYER_SHARES.items():
        if service or layer in ("projections.find", "density.exact_statistics"):
            values[metric] = _ratio(totals[layer], base_ms)
    values["projections.find_calls_per_view"] = _ratio(calls["projections.find"], view_count)
    values["density.exact_statistics_calls"] = _ratio(calls["density.exact_statistics"], view_count)

    submit_selfs = [selfs[s["id"]] * 1e3 for s in view_spans if s["name"] == "engine.submit"]
    if submit_selfs:
        values["engine.self_ms.p50"] = percentile(submit_selfs, 50)

    def p50_of(name: str) -> float:
        durations = [
            (s["end"] - s["start"]) * 1e3 for spans in per_process for s in spans if s["name"] == name
        ]
        return percentile(durations, 50) if durations else 0.0

    values["projections.find_ms.p50"] = p50_of("projections.find")
    values["density.profile_build_ms.p50"] = p50_of("density.profile_build")
    values["density.merge_tree_ms.p50"] = p50_of("density.merge_tree")
    if out.review_ms:
        values["interaction.review_ms.p50"] = percentile(out.review_ms, 50)
    if loads:
        values["data.load_s"] = statistics.median(loads)

    ops = out.window_ops
    c = out.counters
    values["engine.views_per_session"] = (
        statistics.fmean(out.completed_steps) - 1 if out.completed_steps else 0.0
    )
    values["engine.accepted_share"] = _ratio(out.accepted, out.decisions)
    values["geometry.discrimination_calls_per_view"] = _ratio(c["geometry.discrimination_calls"], ops)
    values["density.merge_tree_builds"] = _ratio(c["connectivity.merge_tree.builds"], ops)
    values["density.binned_cells"] = _ratio(c["kde.binned.cells"], ops)
    values["density.cache_hit_rate"] = _ratio(c["kde.cache.hit"], c["kde.cache.hit"] + c["kde.cache.miss"])

    traced = [v for v, t in zip(out.view_ms, out.view_traced) if t]
    untraced = [v for v, t in zip(out.view_ms, out.view_traced) if not t]
    if traced and untraced:
        plain = percentile(untraced, 50)
        values["trace.overhead_share"] = (percentile(traced, 50) - plain) / plain
    return values, table, flagged
