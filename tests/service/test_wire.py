"""The full wire view: what the client decodes is what the server computed.

Two layers:

* **Parity over HTTP** — an oracle session is served and, in lockstep,
  run by an in-process engine.  For every view the decoded
  :class:`~repro.interaction.base.ProjectionView` equals the engine's
  byte for byte (points, live set, basis, density grid and axes,
  estimator bandwidth), the statistics are equal and the oracle
  decides identically on both.  Decoding evaluates no density.
* **Corrupt detail** — a damaged or old-format view detail raises a
  named :class:`~repro.exceptions.ServiceError`, never a numpy or
  base64 exception and never a silently wrong view.
"""

from __future__ import annotations

import base64
import copy
import dataclasses
import json

import numpy as np
import pytest

from repro.core.config import SearchConfig
from repro.core.engine import SearchEngine, ViewRequest
from repro.exceptions import ServiceError
from repro.interaction.base import validate_decision
from repro.interaction.oracle import OracleUser
from repro.obs.metrics import counter_values
from repro.obs.trace import Tracer
from repro.service.client import ServiceClient
from repro.service.wire import (
    decision_to_payload,
    decode_array,
    encode_array,
    view_event,
    view_from_event,
)

from tests.service.conftest import run_async

QUERY_INDEX = 5


def _config(kde_mode: str) -> SearchConfig:
    """Two major iterations, so pruning shrinks the live set mid-run."""
    return SearchConfig(
        support=10,
        grid_resolution=30,
        min_major_iterations=2,
        max_major_iterations=2,
        projection_restarts=2,
        kde_mode=kde_mode,
    )


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _decode_quietly(event, config):
    """``view_from_event`` with the density counters and spans it moved."""
    before = counter_values()
    tracer = Tracer()
    with tracer.activate():
        view = view_from_event(event, config)
    after = counter_values()
    moved = {
        name
        for name in ("profile.builds", "kde.cache.hit", "kde.cache.miss")
        if after.get(name, 0.0) != before.get(name, 0.0)
    }
    spans = set(tracer.report().span_names())
    return view, moved, spans


@pytest.mark.parametrize("kde_mode", ["exact", "binned"])
def test_served_views_equal_the_in_process_engine(
    server, small_service_dataset, kde_mode
):
    dataset = small_service_dataset
    config = _config(kde_mode)
    engine = SearchEngine(dataset, config, structural_spans=False)
    local = engine.start(np.asarray(dataset.points[QUERY_INDEX], dtype=float))
    user = OracleUser(dataset, QUERY_INDEX)

    async def scenario():
        views = 0
        async with ServiceClient("127.0.0.1", server.port) as client:
            created = await client.expect(
                201,
                "POST",
                "/sessions",
                {
                    "dataset": "small",
                    "query_index": QUERY_INDEX,
                    "config": config.to_dict(),
                    "view": "full",
                },
            )
            session_id, event = created["session"], created["event"]
            nonlocal local
            while event["type"] == "view_request":
                assert isinstance(local, ViewRequest)
                remote, moved, spans = _decode_quietly(event, config)
                assert moved == set()
                assert not spans & {"profile.build", "kde.grid"}
                served = local.view
                for name in ("projected_points", "live_indices", "query_2d"):
                    assert _same_bytes(
                        getattr(remote, name), getattr(served, name)
                    ), name
                assert _same_bytes(remote.subspace.basis, served.subspace.basis)
                rg, sg = remote.profile.grid, served.profile.grid
                for name in ("density", "grid_x", "grid_y"):
                    assert _same_bytes(getattr(rg, name), getattr(sg, name)), name
                assert _same_bytes(rg.estimator.bandwidth, sg.estimator.bandwidth)
                assert rg.bounds == sg.bounds and rg.mode == sg.mode == kde_mode
                assert remote.profile.statistics == served.profile.statistics
                assert (remote.major_index, remote.minor_index) == (
                    served.major_index,
                    served.minor_index,
                )
                assert remote.total_points == served.total_points

                decision = validate_decision(user.review_view(remote), remote)
                twin = validate_decision(user.review_view(served), served)
                assert decision.accepted == twin.accepted
                assert decision.threshold == twin.threshold
                assert np.array_equal(decision.selected_mask, twin.selected_mask)

                response = await client.expect(
                    200,
                    "POST",
                    f"/sessions/{session_id}/decision",
                    decision_to_payload(decision, remote, step=event["step"]),
                )
                event = response["event"]
                local = engine.submit(twin)
                views += 1
        assert event["type"] == "search_result"
        assert not isinstance(local, ViewRequest)
        assert event["neighbor_indices"] == [
            int(i) for i in local.neighbor_indices
        ]
        return views

    assert run_async(scenario()) > config.min_major_iterations


def test_decoded_view_supports_point_queries(small_service_dataset):
    """The adopted grid keeps a working estimator: exact point
    densities and exact statistics agree with the server's view."""
    config = _config("binned")
    engine = SearchEngine(small_service_dataset, config, structural_spans=False)
    event = engine.start(small_service_dataset.points[QUERY_INDEX])
    wire = json.loads(
        json.dumps(view_event("s", event, engine.state, include_view=True))
    )
    remote = view_from_event(wire, config)
    served = event.view
    assert remote.profile.grid.histogram is None
    probe = served.projected_points[:7]
    assert _same_bytes(
        remote.profile.grid.density_at(probe),
        served.profile.grid.density_at(probe),
    )
    assert remote.profile.exact_statistics(
        remote.projected_points
    ) == served.profile.exact_statistics(served.projected_points)


# ----------------------------------------------------------------------
# Corrupt or malformed view detail
# ----------------------------------------------------------------------
CONFIG = _config("exact")


@pytest.fixture(scope="module")
def wire_event(small_service_dataset):
    """A full view event exactly as a client receives it."""
    engine = SearchEngine(small_service_dataset, CONFIG, structural_spans=False)
    event = engine.start(small_service_dataset.points[QUERY_INDEX])
    return json.loads(
        json.dumps(view_event("s", event, engine.state, include_view=True))
    )


def _flip_byte(array_payload: dict, index: int) -> None:
    raw = bytearray(base64.b64decode(array_payload["data"]))
    raw[index] ^= 0x01
    array_payload["data"] = base64.b64encode(bytes(raw)).decode("ascii")


def _truncate(detail):
    detail["projected_points"]["data"] = detail["projected_points"]["data"][:-3]


def _drop_padding(detail):
    detail["density"]["data"] = detail["density"]["data"].rstrip("=") + "!"


def _short_by_one_value(detail):
    raw = base64.b64decode(detail["grid_x"]["data"])[:-8]
    detail["grid_x"]["data"] = base64.b64encode(raw).decode("ascii")


def _wrong_dtype(detail):
    detail["live_indices"]["dtype"] = "<i4"


def _big_endian(detail):
    detail["density"]["dtype"] = ">f8"


def _wrong_shape(detail):
    p = CONFIG.grid_resolution
    detail["density"]["shape"] = [p - 1, p + 1]


def _live_count_mismatch(detail):
    detail["live_indices"]["shape"] = [detail["live_indices"]["shape"][0] - 1]


def _flipped_density(detail):
    _flip_byte(detail["density"], 100)


def _flipped_live(detail):
    _flip_byte(detail["live_indices"], 0)


def _missing_density(detail):
    del detail["density"]


def _missing_bandwidth(detail):
    del detail["bandwidth"]


def _extra_array_key(detail):
    detail["grid_y"]["order"] = "C"


def _old_list_format(detail):
    n = detail["projected_points"]["shape"][0]
    detail["projected_points"] = [[0.0, 0.0]] * n


def _bad_bandwidth(detail):
    detail["bandwidth"] = [0.1]


def _nonpositive_bandwidth(detail):
    detail["bandwidth"] = [0.0, -1.0]


@pytest.mark.parametrize(
    "damage",
    [
        _truncate,
        _drop_padding,
        _short_by_one_value,
        _wrong_dtype,
        _big_endian,
        _wrong_shape,
        _live_count_mismatch,
        _flipped_density,
        _flipped_live,
        _missing_density,
        _missing_bandwidth,
        _extra_array_key,
        _old_list_format,
        _bad_bandwidth,
        _nonpositive_bandwidth,
    ],
)
def test_corrupt_detail_raises_a_named_error(wire_event, damage):
    event = copy.deepcopy(wire_event)
    view_from_event(copy.deepcopy(event), CONFIG)  # intact: decodes
    damage(event["view"])
    with pytest.raises(ServiceError) as info:
        view_from_event(event, CONFIG)
    assert info.value.code == "view_detail_corrupt"


@pytest.mark.parametrize(
    "damage",
    [
        lambda event: event.pop("density_digest"),
        lambda event: event["stats"].pop("peak_density"),
        lambda event: event.__setitem__("view", [1, 2]),
    ],
)
def test_malformed_event_raises_a_named_error(wire_event, damage):
    event = copy.deepcopy(wire_event)
    damage(event)
    with pytest.raises(ServiceError) as info:
        view_from_event(event, CONFIG)
    assert info.value.code == "view_detail_corrupt"


def test_grid_of_another_resolution_is_rejected(wire_event):
    other = dataclasses.replace(CONFIG, grid_resolution=31)
    with pytest.raises(ServiceError) as info:
        view_from_event(copy.deepcopy(wire_event), other)
    assert info.value.code == "view_detail_corrupt"
    assert "density" in str(info.value)


def test_digest_event_has_no_detail(wire_event):
    event = copy.deepcopy(wire_event)
    del event["view"]
    with pytest.raises(ServiceError) as info:
        view_from_event(event, CONFIG)
    assert info.value.code == "view_detail_missing"


@pytest.mark.parametrize(
    "array, dtype",
    [
        (np.arange(12, dtype=np.int64).reshape(3, 4), "<i8"),
        (np.linspace(-1.0, 1.0, 10).reshape(5, 2), "<f8"),
        (np.empty((0, 2)), "<f8"),
    ],
)
def test_array_codec_round_trips(array, dtype):
    payload = json.loads(json.dumps(encode_array(array, dtype)))
    back = decode_array(payload, "x", dtype, (None,) * array.ndim)
    assert _same_bytes(back, array)
    assert not back.flags.writeable
