"""Property tests for the hand-rolled HTTP/1.1 parser.

``read_request`` sits directly on a socket, so every byte sequence a
client can send must end in one of three outcomes: a parsed
:class:`~repro.service.http.HttpRequest`, ``None`` (clean EOF), or a
:class:`~repro.exceptions.ServiceError` that the connection loop turns
into an error envelope.  Any other exception escapes
:func:`~repro.service.http.serve_connection` into the event loop's
exception handler, and the client sees a closed socket with no answer.

The inputs arrive in random-size chunks, so every ``readuntil`` /
``readexactly`` boundary is crossed mid-token as well.
"""

from __future__ import annotations

import asyncio
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ServiceError
from repro.service.http import (
    REQUEST_ID_HEADER,
    HttpRequest,
    json_response,
    read_request,
    serve_connection,
)

#: Framing that must be refused, one RFC 9110/9112 violation each, with
#: the error code it must get.
MALFORMED_REQUESTS = [
    (b"GET //[ HTTP/1.1\r\nHost: x\r\n\r\n", "malformed_request_target"),
    (b"GET http://[::1/x HTTP/1.1\r\n\r\n", "malformed_request_target"),
    (b"GET //[zz]/ HTTP/1.1\r\n\r\n", "malformed_request_target"),
    (
        b"POST /sessions HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n0123456789",
        "malformed_content_length",
    ),
    (
        b"POST /sessions HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc",
        "malformed_content_length",
    ),
    (
        b"POST /sessions HTTP/1.1\r\nContent-Length: 3\r\n"
        b"Content-Length: 5\r\n\r\nabcde",
        "malformed_content_length",
    ),
    (
        b"POST /sessions HTTP/1.1\r\nContent-Length : 3\r\n\r\nabc",
        "malformed_header",
    ),
    (
        b"GET /healthz HTTP/1.1\r\nHost: x\r\n folded: y\r\n\r\n",
        "malformed_header",
    ),
    (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", "malformed_header"),
    (b"GET / HTTP/2.0\r\n\r\n", "unsupported_http_version"),
]


def _chunks(data: bytes, sizes: list[int]) -> list[bytes]:
    """Split *data* at the given chunk sizes (the rest in one piece)."""
    out = []
    position = 0
    for size in sizes:
        if position >= len(data):
            break
        out.append(data[position : position + size])
        position += size
    if position < len(data):
        out.append(data[position:])
    return out


async def _parse(chunks: list[bytes]) -> HttpRequest | None:
    reader = asyncio.StreamReader()

    async def feed() -> None:
        for chunk in chunks:
            reader.feed_data(chunk)
            await asyncio.sleep(0)
        reader.feed_eof()

    feeder = asyncio.create_task(feed())
    try:
        return await read_request(reader)
    finally:
        await feeder


def _outcome(data: bytes, sizes: list[int]) -> HttpRequest | ServiceError | None:
    """Parse *data*; any exception but ServiceError propagates."""
    try:
        return asyncio.run(_parse(_chunks(data, sizes)))
    except ServiceError as exc:
        return exc


chunk_sizes = st.lists(st.integers(min_value=1, max_value=40), max_size=30)


@given(st.binary(max_size=600), chunk_sizes)
@settings(max_examples=300, deadline=None)
def test_arbitrary_bytes_never_raise_unexpected(data, sizes):
    outcome = _outcome(data, sizes)
    assert outcome is None or isinstance(outcome, (HttpRequest, ServiceError))


#: Printable and control latin-1 text: what a mutated field may hold.
field_text = st.text(
    alphabet=st.characters(min_codepoint=0, max_codepoint=255), max_size=40
)


@st.composite
def mutated_requests(draw) -> bytes:
    """A well-formed request with one field replaced by arbitrary text."""
    body = b'{"dataset": "small", "query_index": 0}'
    fields = {
        "method": "POST",
        "target": "/sessions?view=digest",
        "version": "HTTP/1.1",
        "host": "localhost",
        "content_length": str(len(body)),
        "request_id": "req-fuzz",
        "body": body.decode("latin-1"),
    }
    name = draw(st.sampled_from(sorted(fields)))
    fields[name] = draw(
        st.one_of(field_text, st.sampled_from(["//[", "1_0", "+3", "-1", ""]))
    )
    head = (
        f"{fields['method']} {fields['target']} {fields['version']}\r\n"
        f"Host: {fields['host']}\r\n"
        f"Content-Length: {fields['content_length']}\r\n"
        f"{REQUEST_ID_HEADER}: {fields['request_id']}\r\n\r\n"
    )
    return (head + fields["body"]).encode("latin-1")


@given(mutated_requests(), chunk_sizes)
@settings(max_examples=300, deadline=None)
def test_mutated_requests_never_raise_unexpected(data, sizes):
    outcome = _outcome(data, sizes)
    assert outcome is None or isinstance(outcome, (HttpRequest, ServiceError))


def test_repeated_identical_content_length_is_accepted():
    data = (
        b"POST /sessions HTTP/1.1\r\nContent-Length: 3\r\n"
        b"Content-Length: 3\r\n\r\nabc"
    )
    outcome = _outcome(data, [])
    assert isinstance(outcome, HttpRequest)
    assert outcome.body == b"abc"


async def _serve_each(requests: list[bytes]):
    """Send each request on its own connection to a live loop.

    Returns the raw responses and whatever reached the loop's
    exception handler or ended a connection task with an exception.
    """
    loop = asyncio.get_running_loop()
    handled: list[dict] = []
    loop.set_exception_handler(lambda _loop, context: handled.append(context))
    tasks: list[asyncio.Task] = []

    async def dispatch(request):
        return json_response(200, {"ok": True})

    async def handle(reader, writer):
        tasks.append(asyncio.current_task())
        await serve_connection(reader, writer, dispatch)

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    responses = []
    try:
        for raw in requests:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(raw)
            await writer.drain()
            responses.append(await asyncio.wait_for(_read_response(reader), 10))
            writer.close()
            await writer.wait_closed()
        await asyncio.wait_for(asyncio.gather(*tasks, return_exceptions=True), 10)
    finally:
        server.close()
        await server.wait_closed()
    failed = [task.exception() for task in tasks if task.exception()]
    return responses, handled + failed


async def _read_response(reader) -> tuple[int, dict[str, str], bytes] | None:
    """One response off the stream, or None if it closed unanswered."""
    try:
        status_line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError:
        return None
    headers = {}
    while line := (await reader.readuntil(b"\n")).strip():
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, body


@given(st.sampled_from(MALFORMED_REQUESTS), chunk_sizes)
@settings(max_examples=60, deadline=None)
def test_malformed_requests_are_refused_in_any_chunking(case, sizes):
    raw, code = case
    outcome = _outcome(raw, sizes)
    assert isinstance(outcome, ServiceError)
    assert (outcome.status, outcome.code) == (400, code)


def test_malformed_requests_get_an_envelope_with_request_id():
    requests = [raw for raw, _ in MALFORMED_REQUESTS]
    responses, escaped = asyncio.run(_serve_each(requests))
    assert escaped == []
    for (raw, code), response in zip(MALFORMED_REQUESTS, responses):
        assert response is not None, f"no answer to {raw!r}"
        status, headers, body = response
        envelope = json.loads(body)["error"]
        assert (status, envelope["status"], envelope["code"]) == (400, 400, code)
        assert envelope["request_id"] == headers[REQUEST_ID_HEADER.lower()]
