"""Request correlation, access log and health surfaces.

Covers the observability contract end to end over real sockets: every
response carries ``X-Request-Id``, one ID joins the access log to the
journal, and the client's timeout/retry ladder behaves.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.config import SearchConfig
from repro.interaction.oracle import OracleUser
from repro.obs.metrics import counter_values
from repro.obs.replay import inspect_journal
from repro.service.app import ServiceRuntime, SessionService, route_template
from repro.service.client import (
    RemoteSessionDriver,
    ServiceClient,
    ServiceClientError,
)
from repro.service.http import REQUEST_ID_HEADER

from .conftest import FAST_CONFIG, query_of, run_async

ID_HEADER = REQUEST_ID_HEADER.lower()

#: Every route the service serves, with a representative request.
ALL_ROUTES = [
    ("GET", "/healthz"),
    ("GET", "/metrics"),
    ("GET", "/metrics.json"),
    ("GET", "/datasets"),
    ("GET", "/sessions"),
    ("GET", "/sessions/sess-missing"),
    ("DELETE", "/sessions/sess-missing"),
    ("POST", "/sessions/sess-missing/decision", {"x": 1}),
    ("POST", "/sessions", {"bad": "body"}),
    ("GET", "/no/such/route"),
]


class TestRouteTemplate:
    @pytest.mark.parametrize(
        "path,expected",
        [
            ("/healthz", ("/healthz", None)),
            ("/slo", ("(unmatched)", None)),
            ("/sessions", ("/sessions", None)),
            ("/sessions/sess-ab12", ("/sessions/{id}", "sess-ab12")),
            (
                "/sessions/sess-ab12/decision",
                ("/sessions/{id}/decision", "sess-ab12"),
            ),
            ("/no/such/route", ("(unmatched)", None)),
            ("/sessions/a/b/c", ("(unmatched)", None)),
        ],
    )
    def test_mapping(self, path, expected):
        assert route_template(path) == expected


class TestRequestIdEcho:
    def test_every_route_echoes_client_id(self, server):
        async def scenario():
            seen = []
            async with ServiceClient("127.0.0.1", server.port) as client:
                for method, path, *payload in ALL_ROUTES:
                    await client.request(
                        method, path, payload[0] if payload else None
                    )
                    seen.append(
                        (
                            path,
                            client.last_request_id,
                            client.last_response_headers.get(ID_HEADER),
                        )
                    )
            return seen

        for path, sent, echoed in run_async(scenario()):
            assert echoed == sent, f"no echo for {path}"

    def test_error_envelopes_carry_request_id(self, server):
        async def scenario():
            out = []
            async with ServiceClient("127.0.0.1", server.port) as client:
                for method, path, *payload in ALL_ROUTES:
                    status, decoded = await client.request(
                        method, path, payload[0] if payload else None
                    )
                    if status >= 400:
                        out.append((decoded, client.last_request_id))
            return out

        envelopes = run_async(scenario())
        assert envelopes  # the matrix includes 400s and 404s
        for decoded, sent in envelopes:
            assert decoded["error"]["request_id"] == sent

    async def _raw(self, server, raw_bytes: bytes) -> tuple[int, dict, bytes]:
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        writer.write(raw_bytes)
        await writer.drain()
        status_line = await reader.readuntil(b"\n")
        status = int(status_line.split()[1])
        headers = {}
        while True:
            line = (await reader.readuntil(b"\n")).strip()
            if not line:
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = await reader.readexactly(int(headers.get("content-length", 0)))
        writer.close()
        await writer.wait_closed()
        return status, headers, body

    def test_invalid_supplied_id_is_replaced(self, server):
        raw = (
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
            b"X-Request-Id: has spaces!\r\n\r\n"
        )
        status, headers, _ = run_async(self._raw(server, raw))
        assert status == 200
        minted = headers[ID_HEADER]
        assert minted.startswith("req-") and len(minted) == 24

    def test_early_parse_failure_still_stamped(self, server):
        # An oversized header line dies in read_request before any
        # HttpRequest exists; the envelope and header still carry a
        # (freshly minted) request ID.
        raw = (
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
            b"X-Junk: " + b"a" * 20_000 + b"\r\n\r\n"
        )
        status, headers, body = run_async(self._raw(server, raw))
        assert status == 400
        envelope = json.loads(body)["error"]
        assert envelope["code"] == "header_too_long"
        assert envelope["request_id"] == headers[ID_HEADER]
        assert headers[ID_HEADER].startswith("req-")

    def test_parse_failure_is_counted_and_logged(self, tmp_path):
        log_path = tmp_path / "access.jsonl"
        service = SessionService(access_log=log_path)
        before = counter_values()
        with ServiceRuntime(service) as runtime:
            bad = run_async(
                self._raw(
                    runtime,
                    b"POST /sessions HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc",
                )
            )
            good = run_async(
                self._raw(runtime, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            )
        service.close()
        after = counter_values()
        assert (bad[0], good[0]) == (400, 200)
        entries = [
            json.loads(line) for line in log_path.read_text().splitlines()
        ]
        assert [e["status"] for e in entries] == [400, 200]
        assert entries[0]["route"] == "(unparsed)"
        assert entries[0]["error_code"] == "malformed_content_length"
        assert entries[0]["request_id"] == bad[1][ID_HEADER]
        assert entries[1]["request_id"] == good[1][ID_HEADER]
        for name, expected in (("service.requests", 2), ("service.errors", 1)):
            assert after.get(name, 0) - before.get(name, 0) == expected


class TestMetricsSurfaces:
    def test_healthz_folds_in_store_tiers(self, server):
        async def scenario():
            async with ServiceClient("127.0.0.1", server.port) as client:
                return await client.expect(200, "GET", "/healthz")

        payload = run_async(scenario())
        for key in (
            "memory_entries",
            "memory_bytes",
            "disk_entries",
            "evictions",
            "restores",
        ):
            assert key in payload["store"]


class TestAccessLogAndJournalJoin:
    def test_one_id_joins_log_and_journal(
        self, tmp_path, small_service_dataset
    ):
        log_path = tmp_path / "access.jsonl"
        service = SessionService(
            journal_dir=tmp_path / "journals", access_log=log_path
        )
        service.register_dataset("small", small_service_dataset)
        with ServiceRuntime(service) as runtime:

            async def scenario():
                async with ServiceClient(
                    "127.0.0.1", runtime.port, trace_id="ab" * 16
                ) as client:
                    created = await client.expect(
                        201,
                        "POST",
                        "/sessions",
                        {
                            "dataset": "small",
                            "config": FAST_CONFIG,
                            "query": query_of(small_service_dataset),
                        },
                    )
                    create_id = client.last_request_id
                    await client.request("GET", "/no/such/route")
                    miss_id = client.last_request_id
                    info = await client.expect(
                        200, "GET", f"/sessions/{created['session']}"
                    )
                    return created["session"], create_id, miss_id, info

            session_id, create_id, miss_id, info = run_async(scenario())
        service.close()

        entries = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        assert len(entries) == 3
        by_id = {e["request_id"]: e for e in entries}
        create_entry = by_id[create_id]
        assert create_entry["method"] == "POST"
        assert create_entry["route"] == "/sessions"
        assert create_entry["status"] == 201
        assert create_entry["session"] == session_id
        assert create_entry["trace_id"] == "ab" * 16
        assert create_entry["bytes_in"] > 0 and create_entry["bytes_out"] > 0
        assert create_entry["latency_ms"] > 0
        miss_entry = by_id[miss_id]
        assert miss_entry["route"] == "(unmatched)"
        assert miss_entry["status"] == 404
        assert miss_entry["error_code"] == "unknown_path"
        for entry in entries:
            assert {
                "ts",
                "method",
                "path",
                "route",
                "status",
                "latency_ms",
                "bytes_in",
                "bytes_out",
                "request_id",
            } <= set(entry)

        # The same create ID is stamped into the session's journal...
        journal_path = info["journal_path"]
        assert journal_path is not None
        ctx_ids = set()
        for line in open(journal_path, encoding="utf-8"):
            record = json.loads(line)
            ctx = record.get("payload", {}).get("ctx")
            if isinstance(ctx, dict) and "request_id" in ctx:
                ctx_ids.add(ctx["request_id"])
        assert ctx_ids == {create_id}
        # ...and surfaces in the inspect timeline.
        assert f"req={create_id}" in inspect_journal(journal_path)

    def test_decision_requests_stamp_their_own_ids(
        self, tmp_path, small_service_dataset
    ):
        service = SessionService(journal_dir=tmp_path / "journals")
        service.register_dataset("small", small_service_dataset)
        with ServiceRuntime(service) as runtime:

            async def scenario():
                async with ServiceClient(
                    "127.0.0.1", runtime.port
                ) as client:
                    driver = RemoteSessionDriver(
                        client,
                        user=OracleUser(small_service_dataset, 0),
                        config=SearchConfig(**FAST_CONFIG),
                    )
                    final = await driver.run("small", query_index=0)
                    assert final["type"] == "search_result"
                    info = await client.expect(
                        200, "GET", f"/sessions/{driver.session_id}"
                    )
                    return driver.steps, info

            steps, info = run_async(scenario())
        service.close()

        ctx_ids = set()
        for line in open(info["journal_path"], encoding="utf-8"):
            record = json.loads(line)
            ctx = record.get("payload", {}).get("ctx")
            if isinstance(ctx, dict) and "request_id" in ctx:
                ctx_ids.add(ctx["request_id"])
        # One ID per HTTP request that touched the engine: the create
        # plus every decision.
        assert len(ctx_ids) == steps + 1


class TestClientResilience:
    def test_connect_timeout_maps_to_envelope(self, monkeypatch):
        async def never_connects(*args, **kwargs):
            await asyncio.sleep(60)

        monkeypatch.setattr(asyncio, "open_connection", never_connects)

        async def scenario():
            client = ServiceClient(
                "127.0.0.1", 1, connect_timeout=0.05
            )
            with pytest.raises(ServiceClientError) as excinfo:
                await client.connect()
            return excinfo.value

        error = run_async(scenario())
        assert error.status == 504
        assert error.code == "client_connect_timeout"

    def test_read_timeout_closes_connection(self):
        async def scenario():
            async def stall(reader, writer):
                await reader.read(100)
                await asyncio.sleep(60)

            server = await asyncio.start_server(stall, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = ServiceClient("127.0.0.1", port, read_timeout=0.1)
            try:
                with pytest.raises(ServiceClientError) as excinfo:
                    await client.request("GET", "/healthz")
                closed = client._reader is None
            finally:
                server.close()
                await server.wait_closed()
            return excinfo.value, closed

        error, closed = run_async(scenario())
        assert error.code == "client_timeout"
        assert closed  # framing untrusted after a timeout

    @staticmethod
    async def _flaky_server(resets: int):
        """A server that resets the first *resets* connections, then
        serves a minimal JSON 200 forever."""
        state = {"connections": 0}

        async def handler(reader, writer):
            state["connections"] += 1
            if state["connections"] <= resets:
                writer.close()
                return
            await reader.readuntil(b"\r\n\r\n")
            body = b'{"ok": true}'
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n".encode()
                + b"Connection: close\r\n\r\n"
                + body
            )
            await writer.drain()
            writer.close()

        server = await asyncio.start_server(handler, "127.0.0.1", 0)
        return server, server.sockets[0].getsockname()[1]

    def test_idempotent_get_retries_through_resets(self):
        async def scenario():
            server, port = await self._flaky_server(resets=2)
            try:
                client = ServiceClient(
                    "127.0.0.1", port, retries=2, backoff=0.0
                )
                status, decoded = await client.request("GET", "/x")
                await client.close()
            finally:
                server.close()
                await server.wait_closed()
            return status, decoded

        status, decoded = run_async(scenario())
        assert status == 200 and decoded == {"ok": True}

    def test_post_keeps_reconnect_once_only(self):
        async def scenario():
            server, port = await self._flaky_server(resets=2)
            try:
                client = ServiceClient(
                    "127.0.0.1", port, retries=2, backoff=0.0
                )
                with pytest.raises(
                    (
                        ConnectionResetError,
                        BrokenPipeError,
                        asyncio.IncompleteReadError,
                    )
                ):
                    await client.request("POST", "/x", {"a": 1})
            finally:
                server.close()
                await server.wait_closed()

        run_async(scenario())

    def test_request_id_stable_across_retries(self):
        async def scenario():
            server, port = await self._flaky_server(resets=1)
            try:
                client = ServiceClient(
                    "127.0.0.1", port, retries=2, backoff=0.0
                )
                await client.request("GET", "/x")
                rid = client.last_request_id
                await client.close()
            finally:
                server.close()
                await server.wait_closed()
            return rid

        rid = run_async(scenario())
        assert rid is not None and rid.startswith("req-")
