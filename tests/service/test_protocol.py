"""Protocol-conformance suite for the session service.

Two layers:

* **Golden-journal conformance** — the committed flight-recorder
  journal is replayed *through the HTTP API*.  Every view event the
  server returns must reproduce the journaled view under the replay's
  own comparator (byte-exact on the recording platform; KDE-grid
  drift within the stated bound elsewhere, since the committed golden
  carries no platform stamp), and every view event and the terminal
  result must be byte-identical to an in-process engine on the same
  host driven by the same decision stream.
* **Shape validation** — JSON-schema-style assertions over every
  request/response pair, including the error envelopes (unknown
  session -> 404, malformed decision -> 400, decided-twice -> 409).
"""

from __future__ import annotations

import base64
import json

import numpy as np
import pytest

from repro.core.engine import SearchEngine
from repro.obs.journal import array_digest, read_journal
from repro.obs.replay import ViewComparator
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.wire import decision_from_payload, result_event, view_event

from tests.service.conftest import (
    FAST_CONFIG,
    query_of,
    run_async,
)

GOLDEN_JOURNAL = "tests/golden/session_journal_golden.jsonl"

#: Required keys of a digest view event (the journal's view payload
#: plus the wire framing).
VIEW_EVENT_KEYS = {
    "type",
    "session",
    "step",
    "major",
    "minor",
    "live_count",
    "live_digest",
    "basis_digest",
    "density_digest",
    "rng_digest",
    "stats",
}

RESULT_EVENT_KEYS = {"type", "session", "reason", "support", "neighbor_indices", "result"}

ERROR_KEYS = {"status", "code", "message", "request_id"}


def _client_for(server) -> ServiceClient:
    return ServiceClient("127.0.0.1", server.port)


async def _create(client, body):
    return await client.expect(201, "POST", "/sessions", body)


def _assert_error(decoded, status, code=None):
    assert set(decoded) == {"error"}
    envelope = decoded["error"]
    assert set(envelope) == ERROR_KEYS
    assert envelope["status"] == status
    if code is not None:
        assert envelope["code"] == code


class TestGoldenJournalConformance:
    @pytest.fixture(scope="class")
    def golden_records(self):
        return read_journal(GOLDEN_JOURNAL)

    def test_http_replay_matches_journal_and_in_process(
        self, server, golden_dataset, golden_records
    ):
        """The full golden decision stream over HTTP: every view event
        reproduces the journal under the replay comparator, and every
        event is byte-identical to an in-process engine run."""
        start = next(r for r in golden_records if r.type == "session_start")
        views = [r for r in golden_records if r.type == "view"]
        decisions = [r for r in golden_records if r.type == "decision"]
        journaled_result = next(
            r for r in golden_records if r.type == "result"
        )
        assert len(views) == len(decisions)
        decision_payloads = [
            {
                key: decision.payload[key]
                for key in (
                    "step",
                    "accepted",
                    "selected_indices",
                    "threshold",
                    "weight",
                    "note",
                )
            }
            for decision in decisions
        ]

        async def replay():
            async with _client_for(server) as client:
                created = await _create(
                    client,
                    {
                        "dataset": "golden",
                        "config": start.payload["config"],
                        "query": start.payload["query"],
                        "view": "digest",
                    },
                )
                session_id = created["session"]
                event = created["event"]
                transcript = [event]
                for payload in decision_payloads:
                    response = await client.expect(
                        200,
                        "POST",
                        f"/sessions/{session_id}/decision",
                        payload,
                    )
                    event = response["event"]
                    transcript.append(event)
                return session_id, transcript

        session_id, transcript = run_async(replay())
        final = transcript.pop()

        # Every HTTP view event reproduces the journaled view, in the
        # tier the journal's platform stamp allows.
        comparator = ViewComparator.for_journal(golden_records)
        assert len(transcript) == len(views)
        for wire_event, record in zip(transcript, views):
            assert wire_event["type"] == "view_request"
            assert wire_event["session"] == session_id
            divergence, _ = comparator.compare(record, wire_event)
            assert divergence is None, (
                f"step {record.payload['step']}: {divergence.detail}"
            )

        # The terminal event agrees with the journaled result record...
        assert final["type"] == "search_result"
        assert final["reason"] == journaled_result.payload["reason"]
        assert final["support"] == journaled_result.payload["support"]
        assert (
            final["neighbor_indices"]
            == journaled_result.payload["neighbor_indices"]
        )
        probabilities = np.asarray(
            final["result"]["probabilities"], dtype=float
        )
        assert (
            array_digest(probabilities)
            == journaled_result.payload["probabilities_digest"]
        )

        # ...and every HTTP event, the terminal one included, is
        # byte-identical in every field to an in-process engine on this
        # host fed the same decisions.
        engine = SearchEngine(
            golden_dataset, comparator.config, structural_spans=False
        )
        event = engine.start(np.asarray(start.payload["query"], dtype=float))
        for wire_event, payload in zip(transcript, decision_payloads):
            local = view_event(
                session_id, event, engine.state, include_view=False
            )
            assert json.dumps(wire_event, sort_keys=True) == json.dumps(
                local, sort_keys=True
            ), f"step {payload['step']}: the server's view differs"
            _, decision = decision_from_payload(payload, event.view)
            event = engine.submit(decision)
        assert json.dumps(final, sort_keys=True) == json.dumps(
            result_event(session_id, event), sort_keys=True
        )


class TestResponseShapes:
    def test_create_session_shape(self, server, small_service_dataset):
        async def scenario():
            async with _client_for(server) as client:
                created = await _create(
                    client,
                    {
                        "dataset": "small",
                        "config": FAST_CONFIG,
                        "query": query_of(small_service_dataset),
                        "view": "full",
                    },
                )
                return created

        created = run_async(scenario())
        assert set(created) == {"session", "event"}
        assert created["session"].startswith("sess-")
        event = created["event"]
        assert set(event) == VIEW_EVENT_KEYS | {"view"}
        assert event["type"] == "view_request"
        assert event["step"] == 1 and event["major"] == 0 and event["minor"] == 0
        for digest_key in ("live_digest", "basis_digest", "density_digest", "rng_digest"):
            assert (
                isinstance(event[digest_key], str)
                and len(event[digest_key]) == 64
            )
        view = event["view"]
        assert set(view) == {
            "projected_points",
            "live_indices",
            "density",
            "grid_x",
            "grid_y",
            "bandwidth",
            "query_2d",
            "basis",
            "total_points",
        }
        n = event["live_count"]
        p = FAST_CONFIG["grid_resolution"]
        for key, dtype, shape in (
            ("projected_points", "<f8", [n, 2]),
            ("live_indices", "<i8", [n]),
            ("density", "<f8", [p, p]),
            ("grid_x", "<f8", [p]),
            ("grid_y", "<f8", [p]),
        ):
            array = view[key]
            assert set(array) == {"dtype", "shape", "data"}
            assert array["dtype"] == dtype and array["shape"] == shape
            assert len(base64.b64decode(array["data"])) == 8 * int(np.prod(shape))
        assert len(view["bandwidth"]) == 2
        assert len(view["query_2d"]) == 2
        assert view["total_points"] == small_service_dataset.size

    def test_digest_mode_omits_view_detail(self, server, small_service_dataset):
        async def scenario():
            async with _client_for(server) as client:
                return await _create(
                    client,
                    {
                        "dataset": "small",
                        "config": FAST_CONFIG,
                        "query": query_of(small_service_dataset),
                    },
                )

        created = run_async(scenario())
        assert set(created["event"]) == VIEW_EVENT_KEYS

    def test_introspection_shape(self, server, small_service_dataset):
        async def scenario():
            async with _client_for(server) as client:
                created = await _create(
                    client,
                    {
                        "dataset": "small",
                        "config": FAST_CONFIG,
                        "query": query_of(small_service_dataset),
                    },
                )
                sid = created["session"]
                snapshot = await client.expect(200, "GET", f"/sessions/{sid}")
                listing = await client.expect(200, "GET", "/sessions")
                health = await client.expect(200, "GET", "/healthz")
                return sid, snapshot, listing, health

        sid, snapshot, listing, health = run_async(scenario())
        assert snapshot["session"] == sid
        assert snapshot["status"] == "awaiting_decision"
        assert snapshot["step"] == 1
        assert snapshot["checkpoint_stored"] is True
        assert snapshot["event"]["type"] == "view_request"
        assert {"support", "rng_seed", "grid_resolution", "bandwidth_scale"} == set(
            snapshot["config"]
        )
        assert any(s["session"] == sid for s in listing["sessions"])
        assert health["status"] == "ok"
        assert {"status", "uptime_seconds", "schema_version", "datasets",
                "sessions", "store"} == set(health)
        assert health["sessions"]["awaiting_decision"] >= 1

    def test_delete_session(self, server, small_service_dataset):
        async def scenario():
            async with _client_for(server) as client:
                created = await _create(
                    client,
                    {
                        "dataset": "small",
                        "config": FAST_CONFIG,
                        "query": query_of(small_service_dataset),
                    },
                )
                sid = created["session"]
                status, body = await client.request(
                    "DELETE", f"/sessions/{sid}"
                )
                after, after_body = await client.request(
                    "GET", f"/sessions/{sid}"
                )
                return status, body, after, after_body

        status, body, after, after_body = run_async(scenario())
        assert status == 204 and body in (None, b"")
        assert after == 404
        _assert_error(after_body, 404, "unknown_session")

    def test_metrics_endpoints(self, server):
        async def scenario():
            async with _client_for(server) as client:
                status_text, text = await client.request("GET", "/metrics")
                status_json, payload = await client.request(
                    "GET", "/metrics.json"
                )
                return status_text, text, status_json, payload

        status_text, text, status_json, payload = run_async(scenario())
        assert status_text == 200
        body = text.decode("utf-8") if isinstance(text, bytes) else text
        assert body.rstrip().endswith("# EOF")
        assert "repro_service_requests_total" in body
        assert status_json == 200
        assert payload["format"] == "repro.metrics"
        assert "service.requests" in payload["metrics"]


class TestErrorEnvelopes:
    def test_unknown_session_is_404(self, server):
        async def scenario():
            async with _client_for(server) as client:
                get = await client.request("GET", "/sessions/sess-missing")
                decide = await client.request(
                    "POST",
                    "/sessions/sess-missing/decision",
                    {"step": 1, "accepted": False},
                )
                delete = await client.request(
                    "DELETE", "/sessions/sess-missing"
                )
                return get, decide, delete

        get, decide, delete = run_async(scenario())
        for status, decoded in (get, decide, delete):
            assert status == 404
            _assert_error(decoded, 404, "unknown_session")

    def test_unknown_dataset_is_404(self, server):
        async def scenario():
            async with _client_for(server) as client:
                return await client.request(
                    "POST",
                    "/sessions",
                    {"dataset": "nope", "query_index": 0},
                )

        status, decoded = run_async(scenario())
        assert status == 404
        _assert_error(decoded, 404, "unknown_dataset")

    def test_unknown_path_is_404(self, server):
        for path in ("/nope", "/slo"):
            status, decoded = run_async(self._simple(server, "GET", path))
            assert status == 404
            _assert_error(decoded, 404, "unknown_path")

    def test_wrong_method_is_405(self, server):
        status, decoded = run_async(
            self._simple(server, "PUT", "/sessions", {})
        )
        assert status == 405
        _assert_error(decoded, 405, "method_not_allowed")

    @staticmethod
    async def _simple(server, method, path, payload=None):
        async with ServiceClient("127.0.0.1", server.port) as client:
            return await client.request(method, path, payload)

    @pytest.mark.parametrize(
        "body,code",
        [
            ({"query_index": 0}, "malformed_body"),  # no dataset
            ({"dataset": "small"}, "malformed_body"),  # no query
            (
                {"dataset": "small", "query_index": 0, "query": [1.0]},
                "malformed_body",  # both query forms
            ),
            (
                {"dataset": "small", "query_index": 10**6},
                "malformed_body",  # out of range
            ),
            (
                {"dataset": "small", "query": [1.0, 2.0]},
                "malformed_body",  # wrong dimensionality
            ),
            (
                {"dataset": "small", "query_index": 0, "view": "sometimes"},
                "malformed_body",
            ),
            (
                {
                    "dataset": "small",
                    "query_index": 0,
                    "config": {"support": -3},
                },
                "malformed_config",
            ),
            (
                {
                    "dataset": "small",
                    "query_index": 0,
                    "config": {"no_such_knob": 1},
                },
                "malformed_config",
            ),
        ],
    )
    def test_malformed_create_is_400(self, server, body, code):
        status, decoded = run_async(
            self._simple(server, "POST", "/sessions", body)
        )
        assert status == 400
        _assert_error(decoded, 400, code)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("grid_resolution", 30.5),
            ("support", 12.5),
            ("support", "x"),
            ("support", True),
            ("axis_parallel", "yes"),
            ("bandwidth_scale", False),
        ],
    )
    def test_mistyped_config_is_400_naming_the_field(
        self, server, field, value
    ):
        status, decoded = run_async(
            self._simple(
                server,
                "POST",
                "/sessions",
                {
                    "dataset": "small",
                    "query_index": 0,
                    "config": dict(FAST_CONFIG, **{field: value}),
                },
            )
        )
        assert status == 400
        _assert_error(decoded, 400, "malformed_config")
        assert decoded["error"]["message"].startswith(f"{field} must be")

    def test_retired_kde_config_inputs(self, server):
        """Old clients still send ``kde_subsample``: it is accepted and
        ignored.  The retired ``kde_mode="subsampled"`` is a 400."""
        legacy = dict(FAST_CONFIG, kde_subsample=4096)
        status, decoded = run_async(
            self._simple(
                server,
                "POST",
                "/sessions",
                {"dataset": "small", "query_index": 0, "config": legacy},
            )
        )
        assert status == 201
        assert decoded["event"]["type"] == "view_request"
        status, decoded = run_async(
            self._simple(
                server,
                "POST",
                "/sessions",
                {
                    "dataset": "small",
                    "query_index": 0,
                    "config": dict(legacy, kde_mode="subsampled"),
                },
            )
        )
        assert status == 400
        _assert_error(decoded, 400, "malformed_config")
        assert "subsampled" in decoded["error"]["message"]

    def test_unparseable_json_is_400(self, server):
        async def scenario():
            async with _client_for(server) as client:
                reader, writer = client._reader, client._writer
                raw = b"this is not json"
                head = (
                    "POST /sessions HTTP/1.1\r\n"
                    f"Content-Length: {len(raw)}\r\n"
                    "\r\n"
                ).encode()
                writer.write(head + raw)
                await writer.drain()
                status_line = await reader.readuntil(b"\n")
                status = int(status_line.split()[1])
                while (await reader.readuntil(b"\n")).strip():
                    pass
                return status

        assert run_async(scenario()) == 400

    @pytest.mark.parametrize(
        "head,code",
        [
            (b"Content-Length: 1_0\r\n", "malformed_content_length"),
            (b"Content-Length: +3\r\n", "malformed_content_length"),
            (b"Content-Length: \xb3\r\n", "malformed_content_length"),
            (
                b"Content-Length: 3\r\nContent-Length: 5\r\n",
                "malformed_content_length",
            ),
            (b"Content-Length : 3\r\n", "malformed_header"),
        ],
    )
    def test_ambiguous_content_length_is_400(self, server, head, code):
        """RFC 9110 section 8.6 and RFC 9112 sections 5.1 and 6.3."""

        async def scenario():
            async with _client_for(server) as client:
                reader, writer = client._reader, client._writer
                writer.write(
                    b"POST /sessions HTTP/1.1\r\n" + head + b"\r\n0123456789"
                )
                await writer.drain()
                status_line = await reader.readuntil(b"\n")
                length = 0
                while line := (await reader.readuntil(b"\n")).strip():
                    name, _, value = line.partition(b":")
                    if name.lower() == b"content-length":
                        length = int(value)
                body = await reader.readexactly(length)
                return int(status_line.split()[1]), json.loads(body)

        status, decoded = run_async(scenario())
        assert status == 400
        _assert_error(decoded, 400, code)

    def test_malformed_decisions_are_400(self, server, small_service_dataset):
        async def scenario():
            async with _client_for(server) as client:
                created = await _create(
                    client,
                    {
                        "dataset": "small",
                        "config": FAST_CONFIG,
                        "query": query_of(small_service_dataset),
                    },
                )
                sid = created["session"]
                step = created["event"]["step"]
                bad_bodies = [
                    {"step": "one", "accepted": True},  # step not int
                    {"step": step},  # accepted missing
                    {"step": step, "accepted": "yes"},  # accepted not bool
                    {
                        "step": step,
                        "accepted": True,
                        "selected_indices": ["a"],
                    },
                    {
                        "step": step,
                        "accepted": True,
                        # out of the live set
                        "selected_indices": [10**7],
                    },
                    {
                        "step": step,
                        "accepted": False,
                        "weight": -1.0,
                    },
                    {
                        "step": step,
                        "accepted": False,
                        "threshold": "high",
                    },
                    {
                        "step": step,
                        "accepted": False,
                        "note": 42,
                    },
                ]
                results = []
                for body in bad_bodies:
                    results.append(
                        await client.request(
                            "POST", f"/sessions/{sid}/decision", body
                        )
                    )
                # The session survives all of it.
                snapshot = await client.expect(200, "GET", f"/sessions/{sid}")
                return results, snapshot

        results, snapshot = run_async(scenario())
        for status, decoded in results:
            assert status == 400
            _assert_error(decoded, 400, "malformed_decision")
        assert snapshot["status"] == "awaiting_decision"

    def test_decided_twice_is_409(self, server, small_service_dataset):
        async def scenario():
            async with _client_for(server) as client:
                created = await _create(
                    client,
                    {
                        "dataset": "small",
                        "config": FAST_CONFIG,
                        "query": query_of(small_service_dataset),
                    },
                )
                sid = created["session"]
                step = created["event"]["step"]
                reject = {"step": step, "accepted": False}
                await client.expect(
                    200, "POST", f"/sessions/{sid}/decision", reject
                )
                # Same step again: stale.
                replayed = await client.request(
                    "POST", f"/sessions/{sid}/decision", reject
                )
                ahead = await client.request(
                    "POST",
                    f"/sessions/{sid}/decision",
                    {"step": step + 10, "accepted": False},
                )
                return replayed, ahead

        replayed, ahead = run_async(scenario())
        assert replayed[0] == 409
        _assert_error(replayed[1], 409, "already_decided")
        assert ahead[0] == 409
        _assert_error(ahead[1], 409, "future_step")

    def test_decision_after_finish_is_409(
        self, server, small_service_dataset
    ):
        async def scenario():
            async with _client_for(server) as client:
                created = await _create(
                    client,
                    {
                        "dataset": "small",
                        "config": FAST_CONFIG,
                        "query": query_of(small_service_dataset),
                    },
                )
                sid = created["session"]
                event = created["event"]
                while event["type"] == "view_request":
                    response = await client.expect(
                        200,
                        "POST",
                        f"/sessions/{sid}/decision",
                        {"step": event["step"], "accepted": False},
                    )
                    event = response["event"]
                assert set(event) == RESULT_EVENT_KEYS
                late = await client.request(
                    "POST",
                    f"/sessions/{sid}/decision",
                    {"step": event.get("step", 0), "accepted": False},
                )
                snapshot = await client.expect(200, "GET", f"/sessions/{sid}")
                return late, snapshot

        late, snapshot = run_async(scenario())
        assert late[0] == 409
        _assert_error(late[1], 409, "already_finished")
        assert snapshot["status"] == "finished"
        assert snapshot["checkpoint_stored"] is False

    def test_client_error_carries_envelope(self, server):
        async def scenario():
            async with _client_for(server) as client:
                await client.expect(200, "GET", "/sessions/sess-missing")

        with pytest.raises(ServiceClientError) as excinfo:
            run_async(scenario())
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_session"
