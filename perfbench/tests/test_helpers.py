"""Tests of the benchmark's helpers (no program run needed).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfreport import end_to_end, sessions_completed  # noqa: E402
from perfstats import (  # noqa: E402
    ErrorTally,
    min_samples_for_tail,
    percentile,
    quartile_spread,
    tail_percentile,
    worsening,
)
from perftrace import (  # noqa: E402
    SpanRecorder,
    covered_time,
    is_active,
    layer_table,
    reset_active,
    self_times,
    set_active,
    unexplained,
)
from perfwindow import ProbeGate, Window  # noqa: E402


def _span(id_, parent, name, start, end, key=None):
    return {"id": id_, "parent": parent, "name": name, "key": key,
            "start": start, "end": end, "attrs": {}}


# -- percentile rule ----------------------------------------------------------
def test_percentile_matches_linear_interpolation():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([5], 90) == 5
    assert percentile(list(range(11)), 90) == pytest.approx(9.0)


def test_tail_percentile_needs_ten_samples_beyond():
    assert min_samples_for_tail(90) == 100
    assert tail_percentile([float(i) for i in range(100)], 90) is not None
    assert tail_percentile([float(i) for i in range(90)], 90) is None
    assert tail_percentile([], 90) is None


def test_tail_percentile_counts_only_samples_strictly_above():
    # 200 samples, but the top 30 all equal the p90 value: none is beyond it.
    samples = [float(i) for i in range(170)] + [500.0] * 30
    assert tail_percentile(samples, 90) is None


def test_end_to_end_refuses_a_p90_without_its_tail():
    out = SimpleNamespace(view_ms=[1.0] * 50, completed_steps=[31], cut_steps=[],
                          first_view_ms=[1.0], window_s=1.0, setup_s=[0.1],
                          precision=[1.0], peak_rss_mb=10.0)
    values, missing = end_to_end(out)
    assert values == {}
    assert any("view_p90_ms" in m for m in missing)


# -- self time ----------------------------------------------------------------
def test_self_time_subtracts_nested_children_only_once():
    spans = [
        _span(0, None, "root", 0.0, 10.0),
        _span(1, 0, "child", 1.0, 5.0),
        _span(2, 1, "grandchild", 2.0, 4.0),
        _span(3, 0, "child", 6.0, 7.0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[1] == pytest.approx(4.0 - 2.0)
    assert selfs[2] == pytest.approx(2.0)


def test_self_time_merges_overlapping_children():
    # Two children overlapping on [3, 5], one sticking out of the parent.
    spans = [
        _span(0, None, "root", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 5.0),
        _span(2, 0, "b", 3.0, 8.0),
        _span(3, 0, "c", 9.0, 12.0),
    ]
    assert covered_time(0.0, 10.0, [(1.0, 5.0), (3.0, 8.0), (9.0, 12.0)]) == pytest.approx(8.0)
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_unexplained_flags_roots_over_the_limit():
    spans = [
        _span(0, None, "view", 0.0, 10.0, key="a"),
        _span(1, 0, "layer", 0.0, 9.0),
        _span(2, None, "view", 20.0, 30.0, key="b"),
        _span(3, 2, "layer", 20.0, 25.0),
    ]
    flagged = unexplained(spans, {"view"}, 0.15)
    assert [f["key"] for f in flagged] == ["b"]
    table = layer_table(spans)
    assert table["layer"]["calls"] == 2
    assert table["view"]["self_ms"] == pytest.approx((1.0 + 5.0) * 1e3)


# -- recorder -----------------------------------------------------------------
class _Target:
    @classmethod
    def build(cls, x):
        return x + 1

    def method(self, x):
        return self.build(x) * 2

    async def serve(self, x):
        await asyncio.sleep(0)
        return self.method(x)


def test_recorder_nests_patched_calls_and_restores_them():
    recorder = SpanRecorder("test")
    original = _Target.__dict__["build"]
    recorder.patch(_Target, "build", "build")
    recorder.patch(_Target, "method", "method")
    token = set_active(True)
    try:
        with recorder.span("root", key="k"):
            assert _Target().method(1) == 4
    finally:
        reset_active(token)
    names = {s["name"]: s for s in recorder.spans}
    assert names["build"]["parent"] == names["method"]["id"]
    assert names["method"]["parent"] == names["root"]["id"]
    assert names["build"]["key"] == "k"
    recorder.restore()
    assert _Target.__dict__["build"] is original


def test_recording_is_switched_per_task():
    recorder = SpanRecorder("test")
    recorder.patch(_Target, "serve", "serve")
    recorder.patch(_Target, "method", "method")

    async def task(traced: bool) -> int:
        set_active(traced)
        return await _Target().serve(1)

    async def main():
        return await asyncio.gather(task(True), task(False))

    try:
        assert asyncio.run(main()) == [4, 4]
    finally:
        recorder.restore()
    assert sorted(s["name"] for s in recorder.spans) == ["method", "serve"]
    assert not is_active()


def test_recorder_marks_failed_calls():
    recorder = SpanRecorder("test")
    token = set_active(True)
    try:
        with pytest.raises(ValueError):
            with recorder.span("boom"):
                raise ValueError("x")
    finally:
        reset_active(token)
    assert recorder.spans[0]["attrs"]["error"] is True
    assert recorder.spans[0]["end"] is not None


# -- error accounting ---------------------------------------------------------
def test_error_rate_counts_failed_operations_and_sessions_without_result():
    tally = ErrorTally()
    for _ in range(8):
        tally.ok()
    tally.fail("non-2xx")
    assert (tally.attempted, tally.failed) == (9, 1)
    # The session's last operation was counted as attempted already.
    tally.session_without_result("ended without search_result")
    assert (tally.attempted, tally.failed) == (9, 2)
    assert tally.rate == pytest.approx(2 / 9)
    assert ErrorTally().rate == 0.0


# -- throughput and acceptance arithmetic -------------------------------------
def test_sessions_completed_counts_cut_sessions_by_progress():
    assert sessions_completed([31, 31], [31 // 2 + 1, 0]) == pytest.approx(2 + 16 / 31)
    assert sessions_completed([], [5]) == 0.0
    assert sessions_completed([10], [25]) == 2.0


def test_quartile_spread_and_worsening():
    med, q1, q3, spread = quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert med == 3.0
    assert spread == pytest.approx((q3 - q1) / 3.0)
    assert worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert worsening(2.0, 1.5, "higher") == pytest.approx(0.25)


# -- measuring window and first-view probes -----------------------------------
class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_window_spreads_probes_and_stops_its_clock_off_the_load():
    clock = _Clock()
    window = Window(10.0, probes=5, min_views=3, max_stretch=2.0, clock=clock)
    clock.now = 1.9
    assert not window.probe_due()
    clock.now = 2.0
    assert window.probe_due()
    with window.off_clock():
        clock.now = 7.0  # a probe taking 5 s does not count
    window.probed()
    assert window.elapsed() == pytest.approx(2.0)
    assert not window.probe_due()
    clock.now = 14.0  # 9 s of window time: probe 2 (due at 4 s) is late
    assert window.probe_due() and window.probes == 1
    assert not window.time_up(views=10)
    clock.now = 15.0
    assert not window.time_up(views=2)  # stretches for views
    assert window.time_up(views=3)
    clock.now = 25.0
    assert window.time_up(views=0)  # but no further than max_stretch
    for _ in range(4):
        window.probed()
    assert not window.probe_due()  # all five taken


def test_probe_gate_runs_probes_only_when_no_request_is_in_flight():
    clock = _Clock()
    window = Window(5.0, probes=5, min_views=0, max_stretch=1.0, clock=clock)
    in_flight: set[str] = set()
    probed_at = []

    async def probe() -> None:
        assert not in_flight
        probed_at.append(window.elapsed())
        clock.now += 0.5  # off the window's clock

    gate = ProbeGate(window, 2, probe)

    async def connection(name: str, requests: int) -> None:
        try:
            for _ in range(requests):
                await gate.checkpoint()
                in_flight.add(name)
                clock.now += 0.3
                await asyncio.sleep(0)  # the other connection's turn
                in_flight.discard(name)
        finally:
            await gate.leave()

    async def main():
        await asyncio.wait_for(asyncio.gather(connection("a", 5), connection("b", 12)), timeout=5)

    asyncio.run(main())
    # 17 requests of 0.3 s: 5.1 s of window time, probes due at 1, 2, 3, 4, 5 s;
    # after "a" leaves, "b" alone reaches the later ones.
    assert len(probed_at) >= 4
    assert all(at >= due for at, due in zip(probed_at, [1.0, 2.0, 3.0, 4.0, 5.0]))
    assert window.paused == pytest.approx(0.5 * len(probed_at))
    assert window.elapsed() == pytest.approx(17 * 0.3)


def test_probe_gate_lets_a_leaving_connection_release_the_parked_one():
    clock = _Clock()
    window = Window(1.0, probes=1, min_views=0, max_stretch=1.0, clock=clock)
    probes = []

    async def probe() -> None:
        probes.append(clock.now)

    gate = ProbeGate(window, 2, probe)

    async def parked() -> str:
        clock.now = 1.0
        await gate.checkpoint()  # due; the other connection is busy
        return "released"

    async def leaving() -> None:
        await asyncio.sleep(0)
        await gate.leave()

    async def main():
        return await asyncio.wait_for(asyncio.gather(parked(), leaving()), timeout=5)

    assert asyncio.run(main())[0] == "released"
    assert probes == [1.0]
