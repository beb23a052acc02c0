"""Asyncio client for the session service.

Raw ``asyncio.open_connection`` sockets speaking the same minimal
HTTP/1.1 the server does — no stdlib ``urllib`` (blocking) and no
third-party client.  One :class:`ServiceClient` holds one keep-alive
connection; fan out by creating many clients (the load benchmark runs
hundreds concurrently on one loop).

:class:`RemoteSessionDriver` closes the interaction loop remotely: it
creates a session with full view detail, decodes each
:class:`~repro.interaction.base.ProjectionView` via
:func:`~repro.service.wire.view_from_event`, asks an ordinary
:class:`~repro.interaction.base.UserAgent` to decide, and posts the
decision back — so the simulated humans
(:class:`~repro.interaction.simulated.HeuristicUser` /
:class:`~repro.interaction.oracle.OracleUser`) drive remote sessions
unchanged, and produce byte-identical runs: the view carries the
server's density grid and statistics, so the client evaluates no
density and sees exactly what the server computed (see
:mod:`repro.service.wire`).
"""

from __future__ import annotations

import asyncio
import json
import uuid
from typing import Any

from repro.core.config import SearchConfig
from repro.exceptions import ServiceError
from repro.interaction.base import UserAgent, validate_decision
from repro.service.http import REQUEST_ID_HEADER, mint_request_id
from repro.service.wire import decision_to_payload, view_from_event

__all__ = ["ServiceClient", "RemoteSessionDriver", "ServiceClientError"]

#: Methods safe to retry after a connection reset (no server-side
#: state transition to double-apply).
_IDEMPOTENT_METHODS = {"GET", "HEAD"}


class ServiceClientError(ServiceError):
    """An error envelope (or malformed response) received by the client."""


class ServiceClient:
    """One keep-alive HTTP/1.1 connection to the service.

    Parameters
    ----------
    host, port:
        Server address.
    connect_timeout:
        Seconds to wait for the TCP connect before failing with a
        ``client_connect_timeout`` envelope.
    read_timeout:
        Seconds to wait for one full request/response round trip —
        covers an engine stuck mid-view.  Timeouts close the pooled
        connection (its framing can no longer be trusted) and are
        never retried.
    retries:
        Extra attempts after a connection reset for **idempotent**
        requests (GET/HEAD).  Non-idempotent methods keep the single
        blanket reconnect-once behavior — a reset between send and
        response leaves a POST's fate unknown, and the server's
        step-echo protocol surfaces any double-apply as a 409.
    backoff:
        Base sleep between retry attempts (linear: ``backoff * n``).

    Every request carries an ``X-Request-Id`` (minted per logical
    request, stable across retries so the server sees one identity)
    and, when *trace_id* is set, a W3C ``traceparent`` header.  The
    server's echoed headers land in :attr:`last_response_headers`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connect_timeout: float = 10.0,
        read_timeout: float = 60.0,
        retries: int = 2,
        backoff: float = 0.05,
        trace_id: str | None = None,
    ) -> None:
        self._host = host
        self._port = port
        self._connect_timeout = connect_timeout
        self._read_timeout = read_timeout
        self._retries = max(0, int(retries))
        self._backoff = backoff
        self._trace_id = trace_id
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        #: ID sent with the most recent request (greppable in the
        #: server's access log and journal records).
        self.last_request_id: str | None = None
        #: Response headers from the most recent round trip.
        self.last_response_headers: dict[str, str] = {}

    async def connect(self) -> "ServiceClient":
        try:
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(self._host, self._port),
                timeout=self._connect_timeout,
            )
        except asyncio.TimeoutError as exc:
            raise ServiceClientError(
                504,
                "client_connect_timeout",
                f"connect to {self._host}:{self._port} exceeded "
                f"{self._connect_timeout}s",
            ) from exc
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = None
            self._writer = None

    async def __aenter__(self) -> "ServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # -- request/response -----------------------------------------------
    async def request(
        self, method: str, path: str, payload: Any | None = None
    ) -> tuple[int, Any]:
        """Send one request; returns ``(status, decoded JSON | bytes)``.

        Reconnects once if the pooled connection was dropped between
        requests (server restart, keep-alive timeout); idempotent
        GET/HEAD requests additionally retry up to ``retries`` times
        with linear backoff.  One request ID is minted per call and
        reused across attempts.
        """
        request_id = mint_request_id()
        self.last_request_id = request_id
        attempts = (
            1 + self._retries if method in _IDEMPOTENT_METHODS else 1
        )
        attempt = 0
        while True:
            if self._reader is None or self._writer is None:
                await self.connect()
            try:
                return await self._roundtrip(
                    method, path, payload, request_id
                )
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.IncompleteReadError,
            ):
                await self.close()
                attempt += 1
                if attempt > attempts:
                    raise
                if attempt > 1:
                    # First reconnect is free (stale keep-alive is
                    # routine); later ones back off.
                    await asyncio.sleep(self._backoff * (attempt - 1))

    async def _roundtrip(
        self,
        method: str,
        path: str,
        payload: Any | None,
        request_id: str | None = None,
    ) -> tuple[int, Any]:
        try:
            return await asyncio.wait_for(
                self._roundtrip_inner(method, path, payload, request_id),
                timeout=self._read_timeout,
            )
        except asyncio.TimeoutError as exc:
            # The connection may have a half-written request or
            # half-read response in flight; drop it.
            await self.close()
            raise ServiceClientError(
                504,
                "client_timeout",
                f"{method} {path} exceeded {self._read_timeout}s",
            ) from exc

    async def _roundtrip_inner(
        self,
        method: str,
        path: str,
        payload: Any | None,
        request_id: str | None,
    ) -> tuple[int, Any]:
        assert self._reader is not None and self._writer is not None
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self._host}:{self._port}",
            f"Content-Length: {len(body)}",
            "Content-Type: application/json",
            "Connection: keep-alive",
        ]
        if request_id is not None:
            lines.append(f"{REQUEST_ID_HEADER}: {request_id}")
        if self._trace_id is not None:
            span_id = uuid.uuid4().hex[:16]
            lines.append(f"traceparent: 00-{self._trace_id}-{span_id}-01")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
        self._writer.write(head + body)
        await self._writer.drain()

        status_line = await self._reader.readuntil(b"\n")
        parts = status_line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise ServiceClientError(
                502, "malformed_response", f"bad status line {status_line!r}"
            )
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = await self._reader.readuntil(b"\n")
            stripped = line.strip()
            if not stripped:
                break
            name, _, value = stripped.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        self.last_response_headers = headers
        length = int(headers.get("content-length", "0"))
        raw = await self._reader.readexactly(length)
        if headers.get("connection", "").lower() == "close":
            await self.close()
        if "json" in headers.get("content-type", ""):
            return status, json.loads(raw.decode("utf-8")) if raw else None
        return status, raw

    async def expect(
        self,
        expected_status: int,
        method: str,
        path: str,
        payload: Any | None = None,
    ) -> Any:
        """Request and assert the status, raising the error envelope."""
        status, decoded = await self.request(method, path, payload)
        if status != expected_status:
            code = "unexpected_status"
            message = (
                f"{method} {path}: expected {expected_status}, got {status}"
            )
            if isinstance(decoded, dict) and isinstance(
                decoded.get("error"), dict
            ):
                envelope = decoded["error"]
                code = str(envelope.get("code", code))
                message = f"{message}: {envelope.get('message')}"
            raise ServiceClientError(status, code, message)
        return decoded


class RemoteSessionDriver:
    """Run a full interactive search against a remote service.

    Parameters
    ----------
    client:
        A connected (or connectable) :class:`ServiceClient`.
    user:
        Any local :class:`~repro.interaction.base.UserAgent`; its
        decisions are translated to wire payloads.
    config:
        The engine config to request — also used locally to decode
        each view (its grid resolution fixes the shipped grid's shape
        and its ``kde_mode`` labels the grid).
    """

    def __init__(
        self,
        client: ServiceClient,
        *,
        user: UserAgent,
        config: SearchConfig | None = None,
    ) -> None:
        self._client = client
        self._user = user
        self._config = config if config is not None else SearchConfig()
        self.session_id: str | None = None
        self.steps = 0
        #: Per-view engine RNG digests, in step order — distinct streams
        #: across concurrent sessions prove state isolation.
        self.rng_digests: list[str] = []

    async def run(
        self,
        dataset: str,
        *,
        query: list[float] | None = None,
        query_index: int | None = None,
        provenance: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Create a session and drive it to its terminal result event."""
        body: dict[str, Any] = {
            "dataset": dataset,
            "config": self._config.to_dict(),
            "view": "full",
        }
        if query is not None:
            body["query"] = query
        if query_index is not None:
            body["query_index"] = query_index
        if provenance is not None:
            body["provenance"] = provenance
        created = await self._client.expect(201, "POST", "/sessions", body)
        self.session_id = created["session"]
        event = created["event"]
        while event["type"] == "view_request":
            self.rng_digests.append(event["rng_digest"])
            view = view_from_event(event, self._config)
            decision = validate_decision(self._user.review_view(view), view)
            payload = decision_to_payload(
                decision, view, step=event["step"]
            )
            response = await self._client.expect(
                200,
                "POST",
                f"/sessions/{self.session_id}/decision",
                payload,
            )
            event = response["event"]
            self.steps += 1
        return event
