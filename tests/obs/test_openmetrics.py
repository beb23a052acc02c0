"""OpenMetrics exposition, metrics files, the JSON payload, and the digest."""

from __future__ import annotations

import json

from repro.obs.metrics import METRICS_SCHEMA_VERSION, MetricsRegistry
from repro.obs.openmetrics import (
    render_metrics_digest,
    render_openmetrics,
    render_openmetrics_snapshot,
    write_metrics,
)


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("batch.steps").inc(8)
    registry.gauge("service.store.memory.entries").set(25)
    h = registry.histogram("kde.grid.eval_seconds", buckets=(0.01, 0.1, 1.0))
    for value in (0.005, 0.05, 0.5, 5.0):
        h.observe(value)
    return registry


class TestRendering:
    def test_counter_total_suffix(self):
        text = render_openmetrics(_populated_registry())
        assert "# TYPE repro_batch_steps counter" in text
        assert "repro_batch_steps_total 8" in text

    def test_gauge_verbatim(self):
        text = render_openmetrics(_populated_registry())
        assert "# TYPE repro_service_store_memory_entries gauge" in text
        assert "repro_service_store_memory_entries 25" in text

    def test_histogram_cumulative_buckets(self):
        text = render_openmetrics(_populated_registry())
        assert 'repro_kde_grid_eval_seconds_bucket{le="0.01"} 1' in text
        assert 'repro_kde_grid_eval_seconds_bucket{le="0.1"} 2' in text
        assert 'repro_kde_grid_eval_seconds_bucket{le="1.0"} 3' in text
        assert 'repro_kde_grid_eval_seconds_bucket{le="+Inf"} 4' in text
        assert "repro_kde_grid_eval_seconds_count 4" in text
        assert "repro_kde_grid_eval_seconds_sum 5.555" in text

    def test_quantile_gauge_family(self):
        text = render_openmetrics(_populated_registry())
        assert "# TYPE repro_kde_grid_eval_seconds_quantile gauge" in text
        assert 'repro_kde_grid_eval_seconds_quantile{q="0.5"}' in text
        assert 'repro_kde_grid_eval_seconds_quantile{q="0.99"}' in text

    def test_ends_with_eof(self):
        assert render_openmetrics(_populated_registry()).endswith("# EOF\n")

    def test_empty_registry_is_just_eof(self):
        assert render_openmetrics(MetricsRegistry()) == "# EOF\n"

    def test_dotted_names_sanitized(self):
        text = render_openmetrics(_populated_registry())
        # No raw dots survive in metric names.
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            assert "." not in line.split(" ", 1)[0].split("{", 1)[0]

    def test_live_render_reflects_later_increments(self):
        registry = _populated_registry()
        assert "repro_batch_steps_total 8" in render_openmetrics(registry)
        registry.counter("batch.steps").inc(1)
        assert "repro_batch_steps_total 9" in render_openmetrics(registry)

    def test_snapshot_render_matches_registry_render(self):
        """A ``metrics.json`` payload re-renders to the same exposition."""
        registry = _populated_registry()
        payload = json.loads(json.dumps(registry.to_dict()))
        text = render_openmetrics_snapshot(payload["metrics"])
        assert text == render_openmetrics(registry)
        assert "repro_service_store_memory_entries 25" in text

    def test_unknown_instrument_type_is_skipped(self):
        snapshot = _populated_registry().snapshot()
        snapshot["mystery"] = {"type": "summary", "value": 1}
        text = render_openmetrics_snapshot(snapshot)
        assert "mystery" not in text
        assert text.endswith("# EOF\n")


class TestMetricsJsonPayload:
    """The document ``GET /metrics.json`` and ``--metrics-out *.json`` carry."""

    def test_metrics_json_payload_shape(self):
        payload = _populated_registry().to_dict()
        assert set(payload) == {"format", "schema_version", "metrics"}
        assert payload["format"] == "repro.metrics"
        assert payload["schema_version"] == METRICS_SCHEMA_VERSION
        metrics = payload["metrics"]
        assert list(metrics) == sorted(metrics)
        assert metrics["batch.steps"] == {"type": "counter", "value": 8.0}
        assert metrics["service.store.memory.entries"]["type"] == "gauge"
        histogram = metrics["kde.grid.eval_seconds"]
        assert histogram["type"] == "histogram"
        assert histogram["count"] == 4
        assert len(histogram["counts"]) == len(histogram["buckets"]) + 1
        # The payload is plain JSON: it survives a round trip unchanged.
        assert json.loads(json.dumps(payload)) == payload


class TestWriteMetrics:
    def test_prom_suffix_writes_text(self, tmp_path):
        path = write_metrics(
            tmp_path / "metrics.prom", _populated_registry()
        )
        content = path.read_text()
        assert content.endswith("# EOF\n")
        assert "repro_batch_steps_total" in content

    def test_json_suffix_writes_schema_versioned_document(self, tmp_path):
        path = write_metrics(
            tmp_path / "metrics.json", _populated_registry()
        )
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro.metrics"
        assert payload["schema_version"] == METRICS_SCHEMA_VERSION
        assert (
            payload["metrics"]["batch.steps"]["value"] == 8.0
        )

    def test_parent_directories_created(self, tmp_path):
        path = write_metrics(
            tmp_path / "deep" / "dir" / "m.prom", MetricsRegistry()
        )
        assert path.exists()


class TestDigest:
    def test_histogram_percentiles(self):
        registry = MetricsRegistry()
        h = registry.histogram("kde.grid.eval_seconds", buckets=(0.01, 0.1))
        for _ in range(10):
            h.observe(0.05)
        digest = render_metrics_digest(registry)
        assert "kde.grid.eval_seconds: n=10" in digest
        assert "ms" in digest  # seconds histograms shown in milliseconds

    def test_empty_registry_fallback(self):
        digest = render_metrics_digest(MetricsRegistry())
        assert "(no instruments populated)" in digest


