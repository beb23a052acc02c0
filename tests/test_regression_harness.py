"""Unit tests for the perf-regression harness (``benchmarks/regression.py``).

The harness itself runs real workloads; these tests exercise the
comparison logic, the baseline schema validation, and the ``record`` /
``check`` CLI exit-code contract with a stubbed ``run_matrix`` so the
suite stays fast and machine-independent.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = REPO_ROOT / "benchmarks"
if str(BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS))

import regression  # noqa: E402
from regression import (  # noqa: E402
    BENCH_FORMAT,
    BENCH_SCHEMA_VERSION,
    MIN_COMPARED_SECONDS,
    compare,
    load_baseline,
    render_diff_table,
)


def _payload(
    *,
    wall: float = 1.0,
    count: int = 64,
    name: str = "core",
) -> dict:
    """A minimal but schema-complete measurement document."""
    return {
        "format": BENCH_FORMAT,
        "schema_version": BENCH_SCHEMA_VERSION,
        "name": name,
        "quick": True,
        "workload": {
            "points": 400,
            "queries": 8,
            "seed": 42,
            "support": 15,
            "grid_resolution": 30,
        },
        "peak_rss_bytes": {"self": 1 << 20, "children": 0},
        "workloads": {
            "sequential": {
                "wall_seconds": wall,
                "queries_per_second": 8 / wall,
                "phases": {
                    "engine.step": {
                        "count": count,
                        "wall_total": wall * 0.8,
                        "wall_mean": wall * 0.8 / max(count, 1),
                        "cpu_total": wall * 0.7,
                        "self_wall_total": wall * 0.1,
                    },
                },
            },
        },
    }


class TestCompare:
    def test_identical_documents_have_no_regressions(self):
        base = _payload()
        rows, regressions = compare(base, copy.deepcopy(base))
        assert regressions == []
        assert all(row["status"] == "ok" for row in rows)
        metrics = {(r["workload"], r["metric"]) for r in rows}
        assert ("sequential", "wall_seconds") in metrics
        assert ("sequential", "engine.step.count") in metrics
        assert ("sequential", "engine.step.wall_total") in metrics

    def test_slowdown_beyond_threshold_regresses(self):
        rows, regressions = compare(
            _payload(wall=1.0), _payload(wall=1.6), threshold=0.25
        )
        assert any("wall_seconds" in line for line in regressions)
        row = next(r for r in rows if r["metric"] == "wall_seconds")
        assert row["status"] == "REGRESSION"
        assert row["delta"] == pytest.approx(0.6)

    def test_slowdown_within_threshold_is_ok(self):
        _, regressions = compare(
            _payload(wall=1.0), _payload(wall=1.1), threshold=0.25
        )
        assert not any("wall_seconds" in line for line in regressions)

    def test_speedup_marked_improved(self):
        rows, regressions = compare(
            _payload(wall=1.0), _payload(wall=0.5), threshold=0.25
        )
        assert regressions == []
        row = next(r for r in rows if r["metric"] == "wall_seconds")
        assert row["status"] == "improved"

    def test_phase_count_mismatch_always_regresses(self):
        _, regressions = compare(
            _payload(count=64), _payload(count=65), threshold=10.0
        )
        assert any("engine.step.count: 64 -> 65" in r for r in regressions)

    def test_sub_millisecond_baselines_ignored_for_wall_time(self):
        tiny = MIN_COMPARED_SECONDS / 10
        _, regressions = compare(
            _payload(wall=tiny), _payload(wall=tiny * 100), threshold=0.25
        )
        assert not any("wall" in line for line in regressions)
        # Counts are still enforced at any speed.
        _, regressions = compare(
            _payload(wall=tiny, count=1), _payload(wall=tiny, count=2)
        )
        assert any("count" in line for line in regressions)

    @pytest.mark.parametrize("counters_only", [False, True])
    def test_baseline_workload_missing_from_current_regresses(
        self, counters_only
    ):
        base = _payload()
        base["workloads"]["extra"] = base["workloads"]["sequential"]
        rows, regressions = compare(
            base, _payload(), counters_only=counters_only
        )
        assert regressions == ["extra: cell missing from the current run"]
        missing = [r for r in rows if r["workload"] == "extra"]
        assert [r["status"] for r in missing] == ["MISSING"]
        assert "MISSING" in render_diff_table(rows)

    def test_workload_only_in_current_is_skipped(self):
        current = _payload()
        current["workloads"]["extra"] = current["workloads"]["sequential"]
        rows, regressions = compare(_payload(), current)
        assert regressions == []
        assert not any(r["workload"] == "extra" for r in rows)

    @staticmethod
    def _with_counters(doc, *, steps=64, builds=10):
        doc["workloads"]["sequential"]["counters"] = {
            "merge_tree_builds": builds,
            "engine_steps": steps,
        }
        return doc

    def test_engine_steps_are_exact(self):
        base = self._with_counters(_payload(), steps=64)
        _, regressions = compare(base, self._with_counters(_payload(), steps=64))
        assert regressions == []
        for drifted in (63, 65):
            _, regressions = compare(
                base, self._with_counters(_payload(), steps=drifted)
            )
            assert any(f"engine_steps: 64 -> {drifted}" in r for r in regressions)

    def test_service_hot_path_counters_are_exact(self):
        def service_doc(**counters):
            doc = _payload()
            cell = doc["workloads"].pop("sequential")
            cell["counters"] = {
                "view_recomputes": 0,
                "fingerprint_hashes": 0,
                **counters,
            }
            doc["workloads"]["service"] = cell
            return doc

        base = service_doc()
        _, regressions = compare(base, service_doc())
        assert regressions == []
        for name in ("view_recomputes", "fingerprint_hashes"):
            _, regressions = compare(base, service_doc(**{name: 3}))
            assert any(f"{name}: 0 -> 3" in r for r in regressions)

    def test_merge_tree_builds_are_exact(self):
        base = self._with_counters(_payload(), builds=10)
        drifted = self._with_counters(_payload(), builds=11)
        _, regressions = compare(base, drifted, counters_only=True)
        assert regressions == ["sequential/counters.merge_tree_builds: 10 -> 11"]

    @pytest.mark.parametrize("counters_only", [False, True])
    def test_baseline_counter_missing_from_current_regresses(
        self, counters_only
    ):
        base = self._with_counters(_payload())
        cur = self._with_counters(_payload())
        del cur["workloads"]["sequential"]["counters"]["merge_tree_builds"]
        rows, regressions = compare(base, cur, counters_only=counters_only)
        assert regressions == [
            "sequential/counters.merge_tree_builds missing from the current run"
        ]
        row = next(
            r for r in rows if r["metric"] == "counters.merge_tree_builds"
        )
        assert row["status"] == "MISSING"
        # A counter only the current run has is not compared.
        _, regressions = compare(cur, base, counters_only=counters_only)
        assert regressions == []

    def test_counters_only_skips_wall_metrics(self):
        base = self._with_counters(_payload(wall=1.0))
        cur = self._with_counters(_payload(wall=9.0))
        rows, regressions = compare(
            base, cur, threshold=0.25, counters_only=True
        )
        assert regressions == []
        assert rows, "counters-only mode must still compare counts"
        assert all(r["kind"] == "count" for r in rows)


class TestRenderDiffTable:
    def test_units_and_alignment(self):
        rows, _ = compare(_payload(wall=1.0), _payload(wall=1.6))
        table = render_diff_table(rows)
        lines = table.splitlines()
        assert lines[0].split()[:2] == ["workload", "metric"]
        assert set(lines[1]) <= {"-", " "}
        assert "1000.0ms" in table  # seconds rendered as ms
        assert "+60.0%" in table  # relative delta
        assert "REGRESSION" in table


class TestLoadBaseline:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps(_payload()))
        assert load_baseline(path)["name"] == "core"

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError, match="repro.bench"):
            load_baseline(path)

    def test_wrong_schema_version_rejected(self, tmp_path):
        doc = _payload()
        doc["schema_version"] = BENCH_SCHEMA_VERSION + 1
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="re-record"):
            load_baseline(path)

    def test_committed_repo_baseline_is_valid(self):
        """The checked-in BENCH_core.json parses under current schema."""
        doc = load_baseline(REPO_ROOT / "BENCH_core.json")
        assert doc["name"] == "core"
        assert "sequential" in doc["workloads"]


class TestMainModes:
    def _stub_matrix(self, monkeypatch, payload):
        monkeypatch.setattr(
            regression, "run_matrix", lambda **kwargs: copy.deepcopy(payload)
        )

    def test_record_writes_baseline(self, capsys, tmp_path, monkeypatch):
        self._stub_matrix(monkeypatch, _payload())
        baseline = tmp_path / "BENCH_test.json"
        code = regression.main(["record", "--baseline", str(baseline)])
        assert code == 0
        assert "baseline written to" in capsys.readouterr().out
        assert json.loads(baseline.read_text())["format"] == BENCH_FORMAT

    def test_check_ok_exits_zero_and_writes_artifacts(
        self, capsys, tmp_path, monkeypatch
    ):
        self._stub_matrix(monkeypatch, _payload())
        baseline = tmp_path / "BENCH_test.json"
        baseline.write_text(json.dumps(_payload()))
        out_dir = tmp_path / "results"
        code = regression.main(
            [
                "check",
                "--baseline",
                str(baseline),
                "--out-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "no regressions" in out
        assert (out_dir / "BENCH_core_current.json").exists()
        assert "REGRESSION" not in (
            out_dir / "BENCH_core_diff.txt"
        ).read_text()

    def test_check_regression_exits_one(self, capsys, tmp_path, monkeypatch):
        self._stub_matrix(monkeypatch, _payload(wall=2.0))
        baseline = tmp_path / "BENCH_test.json"
        baseline.write_text(json.dumps(_payload(wall=1.0)))
        code = regression.main(
            [
                "check",
                "--baseline",
                str(baseline),
                "--out-dir",
                str(tmp_path / "results"),
                "--threshold",
                "0.25",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "regression(s) beyond 25%" in captured.err
        assert "wall_seconds" in captured.err
        assert "REGRESSION" in captured.out  # diff table on stdout

    def test_check_counters_only_fails_on_a_dropped_cell(
        self, capsys, tmp_path, monkeypatch
    ):
        self._stub_matrix(monkeypatch, _payload())
        doc = _payload()
        doc["workloads"]["service"] = doc["workloads"]["sequential"]
        baseline = tmp_path / "BENCH_test.json"
        baseline.write_text(json.dumps(doc))
        code = regression.main(
            [
                "check",
                "--baseline",
                str(baseline),
                "--out-dir",
                str(tmp_path / "results"),
                "--counters-only",
            ]
        )
        assert code == 1
        assert "service: cell missing" in capsys.readouterr().err

    def test_check_missing_baseline_exits_two(self, capsys, tmp_path):
        code = regression.main(
            ["check", "--baseline", str(tmp_path / "nope.json")]
        )
        assert code == 2
        assert "record one first" in capsys.readouterr().err

    def test_check_invalid_baseline_exits_two(self, capsys, tmp_path):
        bogus = tmp_path / "BENCH.json"
        bogus.write_text(json.dumps({"format": "nope"}))
        code = regression.main(["check", "--baseline", str(bogus)])
        assert code == 2
        assert "repro.bench" in capsys.readouterr().err

    def test_check_replays_baseline_workload_params(
        self, capsys, tmp_path, monkeypatch
    ):
        seen = {}

        def spy(**kwargs):
            seen.update(kwargs)
            return _payload()

        monkeypatch.setattr(regression, "run_matrix", spy)
        baseline = tmp_path / "BENCH_test.json"
        doc = _payload()
        doc["workload"].update(points=777, queries=11, seed=5)
        baseline.write_text(json.dumps(doc))
        assert (
            regression.main(["check", "--baseline", str(baseline),
                             "--out-dir", str(tmp_path / "r")])
            == 0
        )
        assert seen["points"] == 777
        assert seen["queries"] == 11
        assert seen["seed"] == 5
        assert seen["quick"] is True
