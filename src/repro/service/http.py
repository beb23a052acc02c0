"""Minimal asyncio HTTP/1.1 layer for the session service.

The service cannot take on an HTTP framework dependency (the library
ships with numpy/scipy only), and the stdlib's ``http.server`` is
thread-per-connection — the wrong shape for thousands of mostly-idle
interactive sessions.  So this module hand-rolls the small fraction of
HTTP/1.1 the service actually needs on top of
``asyncio.start_server``: request-line + header parsing, fixed
``Content-Length`` bodies, keep-alive, and JSON responses.

Deliberately out of scope (a request using them gets a clean 4xx/5xx,
never a hang): chunked transfer encoding, ``Expect: 100-continue``,
pipelining beyond what serialized request handling gives for free,
TLS, and compression.

The parser is defensive about resource bounds — header count, header
bytes, and body bytes are all capped — because the service binds real
sockets in tests and benchmarks and must survive garbage input
(fault-injection suite) without falling over.
"""

from __future__ import annotations

import asyncio
import json
import re
import uuid
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable
from urllib.parse import unquote, urlsplit

from repro.exceptions import ServiceError
from repro.obs.logging import get_logger

__all__ = [
    "HttpRequest",
    "HttpResponse",
    "json_response",
    "error_response",
    "read_request",
    "serve_connection",
    "mint_request_id",
    "REQUEST_ID_HEADER",
    "TRACEPARENT_HEADER",
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
]

_log = get_logger("service")

#: Correlation header echoed on every response (including parse errors).
REQUEST_ID_HEADER = "X-Request-Id"
#: W3C trace-context header carrying a caller-supplied trace ID.
TRACEPARENT_HEADER = "traceparent"

#: Request IDs the service will adopt from a client instead of minting
#: its own: short, printable, no header-splitting potential.
_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,128}$")
#: A header field name is an RFC 9110 ``token``: no whitespace, so
#: ``Content-Length : 3`` (space before the colon) is rejected.
_FIELD_NAME_RE = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+")
#: ``00-<trace-id>-<parent-id>-<flags>`` per the W3C trace-context spec.
_TRACEPARENT_RE = re.compile(
    r"^00-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}$"
)


def mint_request_id() -> str:
    """A fresh server-side request ID (``req-`` + 20 hex chars)."""
    return f"req-{uuid.uuid4().hex[:20]}"

#: Largest request body accepted (checkpoint uploads are ~100 KiB).
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Largest single header line / request line accepted.
MAX_HEADER_BYTES = 16 * 1024
#: Most header lines accepted per request.
MAX_HEADER_COUNT = 100

_REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    410: "Gone",
    411: "Length Required",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
}

_SUPPORTED_METHODS = {"GET", "POST", "DELETE", "HEAD", "PUT", "PATCH"}


@dataclass
class HttpRequest:
    """One parsed request: method, split target, headers, raw body."""

    method: str
    target: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]  # keys lower-cased
    body: bytes
    #: Correlation ID for this request: the client's ``X-Request-Id``
    #: when well-formed, otherwise minted server-side at parse time.
    request_id: str = ""
    #: 32-hex trace ID from a valid ``traceparent`` header, else None.
    trace_id: str | None = None

    def json(self) -> Any:
        """Decode the body as JSON, mapping failure to a clean 400."""
        if not self.body:
            raise ServiceError(400, "empty_body", "request body required")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServiceError(
                400, "malformed_json", f"request body is not JSON: {exc}"
            ) from exc

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 default keep-alive unless the client opts out."""
        return self.headers.get("connection", "").lower() != "close"


@dataclass
class HttpResponse:
    """One response to render: status, body bytes, content type."""

    status: int
    body: bytes = b""
    content_type: str = "application/json; charset=utf-8"
    extra_headers: list[tuple[str, str]] = field(default_factory=list)

    def encode(self, *, keep_alive: bool, head_only: bool = False) -> bytes:
        reason = _REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        lines.extend(f"{name}: {value}" for name, value in self.extra_headers)
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
        return head if head_only else head + self.body


def json_response(status: int, payload: Any) -> HttpResponse:
    """Render *payload* as a sorted-keys JSON response."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return HttpResponse(status=status, body=body)


def error_response(
    status: int,
    code: str,
    message: str,
    *,
    request_id: str | None = None,
) -> HttpResponse:
    """The uniform error envelope every failure path renders.

    When the failing request has a correlation ID, it is included in
    the envelope body (satellite: every 4xx/5xx carries the handle that
    joins it to the access log, span, and journal).
    """
    error: dict[str, Any] = {
        "status": status,
        "code": code,
        "message": message,
    }
    if request_id:
        error["request_id"] = request_id
    return json_response(status, {"error": error})


def _parse_query(raw: str) -> dict[str, str]:
    query: dict[str, str] = {}
    for part in raw.split("&"):
        if not part:
            continue
        key, _, value = part.partition("=")
        query[unquote(key)] = unquote(value)
    return query


async def read_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Parse one request off the stream.

    Returns ``None`` on a clean EOF before any bytes (client closed the
    keep-alive connection); raises :class:`ServiceError` for anything
    malformed so the connection loop can answer with the error envelope
    before closing.
    """
    try:
        request_line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ServiceError(
            400, "truncated_request", "connection closed mid request line"
        ) from exc
    except asyncio.LimitOverrunError as exc:
        raise ServiceError(
            400, "request_line_too_long", "request line exceeds limit"
        ) from exc
    if len(request_line) > MAX_HEADER_BYTES:
        raise ServiceError(
            400, "request_line_too_long", "request line exceeds limit"
        )
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise ServiceError(400, "malformed_request_line", "expected 3 tokens")
    method, target, version = parts
    method = method.upper()
    if not version.startswith("HTTP/1."):
        raise ServiceError(
            400, "unsupported_http_version", f"cannot serve {version}"
        )
    if method not in _SUPPORTED_METHODS:
        raise ServiceError(501, "unsupported_method", f"cannot serve {method}")
    try:
        split = urlsplit(target)
    except ValueError as exc:
        raise ServiceError(
            400, "malformed_request_target", f"cannot parse {target!r}: {exc}"
        ) from exc

    headers: dict[str, str] = {}
    for _ in range(MAX_HEADER_COUNT + 1):
        try:
            line = await reader.readuntil(b"\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError) as exc:
            raise ServiceError(
                400, "truncated_headers", "connection closed mid headers"
            ) from exc
        if len(line) > MAX_HEADER_BYTES:
            raise ServiceError(400, "header_too_long", "header exceeds limit")
        field_line = line.rstrip(b"\r\n")
        if not field_line:
            break
        name, sep, value = field_line.decode("latin-1").partition(":")
        if not sep:
            raise ServiceError(400, "malformed_header", f"no colon in {name!r}")
        if not _FIELD_NAME_RE.fullmatch(name):
            raise ServiceError(
                400, "malformed_header", f"invalid field name {name!r}"
            )
        name = name.lower()
        value = value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise ServiceError(
                400,
                "malformed_content_length",
                "conflicting Content-Length values",
            )
        headers[name] = value
    else:
        raise ServiceError(400, "too_many_headers", "header count exceeds limit")

    if "transfer-encoding" in headers:
        raise ServiceError(
            501,
            "unsupported_transfer_encoding",
            "chunked bodies are not supported; send Content-Length",
        )
    body = b""
    raw_length = headers.get("content-length")
    if raw_length is not None:
        # RFC 9110 section 8.6: 1*DIGIT.  int() alone would also take a
        # sign, underscores, and non-ASCII digits.
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise ServiceError(
                400,
                "malformed_content_length",
                f"not a decimal length: {raw_length!r}",
            )
        digits = raw_length.lstrip("0") or "0"
        # Compare digit counts before int(): Python 3.11+ refuses to
        # parse more than 4300 digits.
        if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
            raise ServiceError(
                413, "payload_too_large", f"body exceeds {MAX_BODY_BYTES} bytes"
            )
        length = int(digits)
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ServiceError(
                400, "truncated_body", "connection closed mid body"
            ) from exc
    elif method in ("POST", "PUT", "PATCH"):
        raise ServiceError(
            411, "length_required", f"{method} requires Content-Length"
        )

    supplied = headers.get(REQUEST_ID_HEADER.lower(), "")
    request_id = (
        supplied if _REQUEST_ID_RE.match(supplied) else mint_request_id()
    )
    trace_id: str | None = None
    traceparent = _TRACEPARENT_RE.match(headers.get(TRACEPARENT_HEADER, ""))
    if traceparent and traceparent.group(1) != "0" * 32:
        trace_id = traceparent.group(1)
    return HttpRequest(
        method=method,
        target=target,
        path=unquote(split.path) or "/",
        query=_parse_query(split.query),
        headers=headers,
        body=body,
        request_id=request_id,
        trace_id=trace_id,
    )


async def serve_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    dispatch: Callable[[HttpRequest], Awaitable[HttpResponse]],
    rejected: Callable[[ServiceError, HttpResponse, str], None] | None = None,
) -> None:
    """Keep-alive connection loop: parse, dispatch, respond, repeat.

    Protocol errors answer with the error envelope and close the
    connection (request framing cannot be trusted afterwards);
    unexpected dispatch failures answer 500 and keep serving — one bad
    request must not take down a keep-alive connection pooled by a
    load driver.

    This loop is the single choke point where ``X-Request-Id`` is
    stamped onto every response — including early parse failures that
    never produce an :class:`HttpRequest`.  Those mint a fresh ID and,
    never reaching *dispatch*, are handed to *rejected* with their
    error, response and ID, so the caller can still count and log them.
    """

    def _stamp(response: HttpResponse, request_id: str) -> HttpResponse:
        if not any(
            name.lower() == REQUEST_ID_HEADER.lower()
            for name, _ in response.extra_headers
        ):
            response.extra_headers.append((REQUEST_ID_HEADER, request_id))
        return response

    try:
        while True:
            try:
                request = await read_request(reader)
            except ServiceError as exc:
                request_id = mint_request_id()
                response = _stamp(
                    error_response(
                        exc.status,
                        exc.code,
                        exc.message,
                        request_id=request_id,
                    ),
                    request_id,
                )
                if rejected is not None:
                    rejected(exc, response, request_id)
                writer.write(response.encode(keep_alive=False))
                await writer.drain()
                break
            if request is None:
                break
            try:
                response = await dispatch(request)
            except ServiceError as exc:
                response = error_response(
                    exc.status,
                    exc.code,
                    exc.message,
                    request_id=request.request_id,
                )
            except Exception:
                _log.exception(
                    "unhandled error dispatching %s %s",
                    request.method,
                    request.path,
                )
                response = error_response(
                    500,
                    "internal_error",
                    "unhandled server error",
                    request_id=request.request_id,
                )
            keep_alive = request.keep_alive
            writer.write(
                _stamp(response, request.request_id).encode(
                    keep_alive=keep_alive, head_only=request.method == "HEAD"
                )
            )
            await writer.drain()
            if not keep_alive:
                break
    except (ConnectionResetError, BrokenPipeError):
        pass  # client vanished mid-write; nothing to answer
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
