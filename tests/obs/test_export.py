"""Tests for the trace exporters: JSON round trip, Chrome format, flame."""

from __future__ import annotations

import json

import pytest

from repro.obs.export import (
    TRACE_SCHEMA_VERSION,
    ascii_flame,
    dict_to_trace,
    load_trace,
    save_chrome_trace,
    save_trace,
    to_chrome_trace,
    trace_to_dict,
)
from repro.obs.trace import Span, TraceReport, Tracer, finish_trace


@pytest.fixture(autouse=True)
def _clean_tracer():
    finish_trace()
    yield
    finish_trace()


def _sample_report():
    """A small trace with nesting, attributes, and two roots."""
    tracer = Tracer()
    with tracer.activate():
        with tracer.span("search.run", n=100) as run:
            run.set(support=10)
            with tracer.span("search.major", index=0):
                with tracer.span("kde.grid", resolution=32):
                    pass
        with tracer.span("search.prune"):
            pass
    return tracer.report(command="test")


class TestJsonRoundTrip:
    def test_dict_round_trip_is_lossless(self):
        report = _sample_report()
        payload = trace_to_dict(report)
        rebuilt = dict_to_trace(payload)
        assert trace_to_dict(rebuilt) == payload

    def test_payload_is_json_serializable(self):
        payload = trace_to_dict(_sample_report())
        decoded = json.loads(json.dumps(payload))
        assert decoded["schema_version"] == TRACE_SCHEMA_VERSION
        assert decoded["metadata"] == {"command": "test"}

    def test_structure_preserved(self):
        rebuilt = dict_to_trace(trace_to_dict(_sample_report()))
        assert [r.name for r in rebuilt.roots] == ["search.run", "search.prune"]
        run = rebuilt.roots[0]
        assert run.attributes == {"n": 100, "support": 10}
        assert [c.name for c in run.children] == ["search.major"]
        assert run.children[0].children[0].name == "kde.grid"

    def test_save_and_load(self, tmp_path):
        report = _sample_report()
        path = save_trace(report, tmp_path / "sub" / "trace.json")
        assert path.exists()
        loaded = load_trace(path)
        assert trace_to_dict(loaded) == trace_to_dict(report)

    def test_saved_file_is_valid_json(self, tmp_path):
        path = save_trace(_sample_report(), tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert payload["roots"][0]["name"] == "search.run"

    def test_missing_optional_fields_tolerated(self):
        report = dict_to_trace(
            {
                "schema_version": TRACE_SCHEMA_VERSION,
                "roots": [
                    {
                        "name": "a",
                        "start_wall": 0.0,
                        "end_wall": 1.0,
                        "start_cpu": 0.0,
                        "end_cpu": 0.5,
                    }
                ],
            }
        )
        root = report.roots[0]
        assert root.attributes == {}
        assert root.children == []
        assert report.metadata == {}


class TestChromeFormat:
    def test_one_complete_event_per_span(self):
        report = _sample_report()
        chrome = to_chrome_trace(report)
        spans = list(report.iter_spans())
        complete = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == len(spans) == len(chrome["traceEvents"])
        assert {e["pid"] for e in complete} == {0}

    def test_timestamps_relative_and_microseconds(self):
        report = _sample_report()
        events = [
            e
            for e in to_chrome_trace(report)["traceEvents"]
            if e["ph"] == "X"
        ]
        ts = [e["ts"] for e in events]
        assert min(ts) == pytest.approx(0.0)
        by_name = {e["name"]: e for e in events}
        run = next(s for s in report.iter_spans() if s.name == "search.run")
        assert by_name["search.run"]["dur"] == pytest.approx(run.wall * 1e6)

    def test_category_is_name_prefix(self):
        events = to_chrome_trace(_sample_report())["traceEvents"]
        by_name = {e["name"]: e for e in events}
        assert by_name["kde.grid"]["cat"] == "kde"
        assert by_name["search.run"]["cat"] == "search"

    def test_attributes_become_args(self):
        events = to_chrome_trace(_sample_report())["traceEvents"]
        by_name = {e["name"]: e for e in events}
        assert by_name["kde.grid"]["args"] == {"resolution": 32}

    def test_save_chrome_trace(self, tmp_path):
        path = save_chrome_trace(_sample_report(), tmp_path / "chrome.json")
        payload = json.loads(path.read_text())
        assert "traceEvents" in payload
        assert payload["otherData"] == {"command": "test"}


class TestAsciiFlame:
    def test_mentions_every_span_name(self):
        report = _sample_report()
        text = ascii_flame(report)
        for name in report.span_names():
            assert name in text

    def test_children_indented_under_parent(self):
        text = ascii_flame(_sample_report())
        lines = text.splitlines()
        run_line = next(l for l in lines if l.startswith("search.run"))
        major_line = next(l for l in lines if "search.major" in l)
        assert major_line.startswith("  ")
        assert not run_line.startswith(" ")

    def test_header_counts_spans(self):
        report = _sample_report()
        n = sum(1 for _ in report.iter_spans())
        assert f"{n} spans" in ascii_flame(report)

    def test_max_depth_truncates(self):
        tree = ascii_flame(_sample_report(), max_depth=1).split("\n\n")[0]
        assert "search.run" in tree
        assert "search.major" not in tree

    def test_attributes_rendered(self):
        assert "resolution=32" in ascii_flame(_sample_report())


# ----------------------------------------------------------------------
# Edge cases: zero-duration spans, non-finite attributes, multi-lane
# ----------------------------------------------------------------------
def _zero_duration_report():
    """A span that opened and closed within one clock tick."""
    span = Span(
        name="instant",
        start_wall=10.0,
        end_wall=10.0,
        start_cpu=1.0,
        end_cpu=1.0,
    )
    return TraceReport(roots=(span,), metadata={})


def _nonfinite_attr_report():
    span = Span(
        name="weird",
        start_wall=0.0,
        end_wall=1.0,
        attributes={
            "ratio": float("nan"),
            "bound": float("inf"),
            "neg": float("-inf"),
            "nested": {"deep": float("nan"), "fine": 3},
            "listed": [1.0, float("inf")],
            "ok": 2.5,
        },
    )
    return TraceReport(roots=(span,), metadata={"noise": float("nan")})


class TestZeroDurationSpans:
    def test_ascii_flame_handles_zero_total(self):
        text = ascii_flame(_zero_duration_report())
        assert "instant" in text
        assert "0.00 ms" in text

    def test_chrome_event_has_zero_duration(self):
        events = [
            e
            for e in to_chrome_trace(_zero_duration_report())["traceEvents"]
            if e["ph"] == "X"
        ]
        assert events[0]["dur"] == 0.0
        assert events[0]["ts"] == 0.0

    def test_json_round_trip(self):
        payload = trace_to_dict(_zero_duration_report())
        assert trace_to_dict(dict_to_trace(payload)) == payload


class TestNonFiniteAttributes:
    def test_chrome_trace_is_strict_json(self, tmp_path):
        path = save_chrome_trace(
            _nonfinite_attr_report(), tmp_path / "chrome.json"
        )
        # Strict parsing: reject nan/inf literals outright.
        payload = json.loads(
            path.read_text(), parse_constant=lambda c: pytest.fail(c)
        )
        args = next(
            e for e in payload["traceEvents"] if e["ph"] == "X"
        )["args"]
        assert args["ratio"] == "nan"
        assert args["bound"] == "inf"
        assert args["neg"] == "-inf"
        assert args["nested"] == {"deep": "nan", "fine": 3}
        assert args["listed"] == [1.0, "inf"]
        assert args["ok"] == 2.5

    def test_metadata_sanitized_too(self):
        chrome = to_chrome_trace(_nonfinite_attr_report())
        assert chrome["otherData"]["noise"] == "nan"

    def test_ascii_flame_does_not_crash(self):
        assert "weird" in ascii_flame(_nonfinite_attr_report())


class TestLegacyArchives:
    def test_version2_archives_with_lanes_load(self, tmp_path):
        expected = trace_to_dict(_sample_report())
        payload = json.loads(json.dumps(expected))
        payload["schema_version"] = 2
        run = payload["roots"][0]
        for lane, node in enumerate((run, run["children"][0]), start=1):
            node["lane"] = lane
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(payload))
        assert trace_to_dict(load_trace(path)) == expected

    def test_version1_archives_load(self):
        payload = trace_to_dict(_sample_report())
        payload["schema_version"] = 1
        report = dict_to_trace(payload)
        assert [r.name for r in report.roots] == ["search.run", "search.prune"]
