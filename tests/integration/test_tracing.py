"""Integration: tracing covers the whole pipeline and never perturbs it.

The ISSUE's acceptance bar: a traced ``InteractiveNNSearch`` run must
produce spans for every major and minor iteration (plus the projection
search, KDE, and connectivity phases underneath), and running with
tracing disabled must yield byte-identical neighbor output.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import InteractiveNNSearch, OracleUser, SearchConfig
from repro.obs import REGISTRY, Tracer, finish_trace
from repro.obs.metrics import counter_values


@pytest.fixture(autouse=True)
def _clean_tracer():
    finish_trace()
    yield
    finish_trace()


def _run(small_clustered, *, trace: bool):
    dataset = small_clustered.dataset
    query_index = int(dataset.cluster_indices(0)[0])
    config = SearchConfig(
        support=15, min_major_iterations=2, max_major_iterations=3
    )
    user = OracleUser(dataset, query_index)
    return InteractiveNNSearch(dataset, config).run(
        dataset.points[query_index], user, trace=trace
    )


class TestTracedRun:
    def test_spans_cover_every_iteration(self, small_clustered):
        result = _run(small_clustered, trace=True)
        report = result.trace
        assert report is not None
        session = result.session

        majors = report.find("search.major")
        minors = report.find("search.minor")
        assert len(majors) == len(session.major_records)
        assert len(minors) == len(session.minor_records)

        # Each minor span is tagged with its (major, minor) coordinates
        # and they match the session records one-to-one, in order.
        coords = [(s.attributes["major"], s.attributes["minor"]) for s in minors]
        assert coords == [
            (r.major_index, r.minor_index) for r in session.minor_records
        ]

    def test_pipeline_phases_present_and_nested(self, small_clustered):
        report = _run(small_clustered, trace=True).trace
        names = set(report.span_names())
        assert {
            "search.run",
            "search.major",
            "search.minor",
            "projection.find",
            "kde.grid",
            "connectivity.merge_tree.build",
            "user.decision",
        } <= names
        # The search.run span is the single root and contains everything.
        assert [r.name for r in report.roots] == ["search.run"]
        total_spans = sum(1 for _ in report.iter_spans())
        root_spans = sum(1 for _ in report.roots[0].iter_spans())
        assert root_spans == total_spans

    def test_span_attributes_match_session(self, small_clustered):
        result = _run(small_clustered, trace=True)
        majors = result.trace.find("search.major")
        for span_node, record in zip(majors, result.session.major_records):
            assert span_node.attributes["live_before"] == record.live_count_before
            assert span_node.attributes["live_after"] == record.live_count_after

    def test_timing_is_sane(self, small_clustered):
        report = _run(small_clustered, trace=True).trace
        for node in report.iter_spans():
            assert node.end_wall >= node.start_wall
            assert node.self_wall >= -1e-9
        root = report.roots[0]
        assert root.wall >= max(c.wall for c in root.children)


class TestDisabledTracing:
    def test_results_byte_identical(self, small_clustered):
        traced = _run(small_clustered, trace=True)
        plain = _run(small_clustered, trace=False)
        assert plain.trace is None
        assert traced.trace is not None
        assert np.array_equal(plain.neighbor_indices, traced.neighbor_indices)
        assert np.array_equal(plain.probabilities, traced.probabilities)
        assert plain.reason == traced.reason

    def test_no_global_tracer_left_behind(self, small_clustered):
        _run(small_clustered, trace=True)
        assert finish_trace() is None


class TestAmbientTracer:
    def test_run_joins_ambient_trace(self, small_clustered):
        """With an outer tracer active, ``trace=True`` nests instead of
        creating a second tracer, and ``result.trace`` stays ``None``."""
        tracer = Tracer()
        with tracer.activate():
            result = _run(small_clustered, trace=True)
        assert result.trace is None
        report = tracer.report()
        assert "search.run" in report.span_names()
        assert len(report.find("search.major")) == len(
            result.session.major_records
        )


class TestCountersAndSummary:
    def test_counters_advance(self, small_clustered):
        runs = REGISTRY.counter("search.runs")
        majors = REGISTRY.counter("search.major_iterations")
        before = (runs.value, majors.value)
        result = _run(small_clustered, trace=False)
        assert runs.value == before[0] + 1
        assert majors.value == before[1] + len(result.session.major_records)

    def test_result_summary_consistent(self, small_clustered):
        result = _run(small_clustered, trace=False)
        summary = result.summary()
        session = result.session
        assert summary["major_iterations"] == len(session.major_records)
        assert summary["total_views"] == session.total_views
        assert summary["accepted_views"] == session.accepted_views
        assert summary["termination_reason"] == result.reason.value
        assert len(summary["pruning_trajectory"]) == (
            len(session.major_records) + 1
        )
        assert summary["pruning_trajectory"][0] >= summary["pruning_trajectory"][-1]
        assert 0.0 <= summary["acceptance_rate"] <= 1.0


class TestProcessHistory:
    def test_work_does_not_depend_on_earlier_runs(self, small_clustered):
        """A, then B, then A again in one process: every run builds its
        own profiles, grids and merge trees, and A repeats exactly."""
        dataset = small_clustered.dataset
        config = SearchConfig(
            support=15, min_major_iterations=2, max_major_iterations=2
        )

        def run(query_index):
            before = counter_values()
            tracer = Tracer()
            with tracer.activate():
                result = InteractiveNNSearch(dataset, config).run(
                    dataset.points[query_index], OracleUser(dataset, query_index)
                )
            after = counter_values()
            work = {
                name: after.get(name, 0.0) - before.get(name, 0.0)
                for name in ("profile.builds", "connectivity.merge_tree.builds")
            }
            work["kde.grid"] = len(tracer.report().find("kde.grid"))
            return result, work

        a = int(dataset.cluster_indices(0)[0])
        b = int(dataset.cluster_indices(1)[0])
        first, first_work = run(a)
        _, other_work = run(b)
        again, again_work = run(a)
        assert first_work["profile.builds"] > 0
        assert first_work == other_work == again_work
        assert np.array_equal(first.neighbor_indices, again.neighbor_indices)
        assert np.array_equal(first.probabilities, again.probabilities)
        assert first.reason == again.reason
