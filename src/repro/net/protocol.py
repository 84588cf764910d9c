"""Minimal HTTP/1.1 wire protocol over asyncio streams (stdlib only).

The serving tier speaks plain HTTP/1.1 so any client — ``curl``, a
browser, a Prometheus scraper, :class:`repro.net.client.ServiceClient` —
can talk to it without the repo growing a framework dependency.  This
module owns the byte-level concerns and nothing else:

* :func:`read_request` — parse one request (request line, headers,
  ``Content-Length`` body) from a :class:`asyncio.StreamReader` into an
  :class:`HttpRequest`; malformed input raises
  :class:`~repro.errors.ProtocolError` with the HTTP status the server
  should answer with (400/411/413/431/501),
* :func:`send_response` / :func:`render_response` — one buffered response
  with ``Content-Length`` framing and keep-alive accounting,
* :class:`ChunkedResponseWriter` — ``Transfer-Encoding: chunked`` for the
  streaming endpoint: the result is written batch by batch without the
  server ever knowing the total size up front,
* :func:`json_body` / :data:`STATUS_REASONS` — small shared helpers.

Limits are deliberate: request heads are bounded by the stream reader's
buffer limit, bodies by ``max_body_bytes``, and chunked *requests* are
rejected (501) — queries and mutations are small JSON documents; only
responses stream.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote, urlsplit

from ..data.relation import encode_json
from ..errors import ProtocolError

#: Default bound on request bodies (JSON queries and edge batches).
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

#: Reason phrases for every status the serving tier emits.
STATUS_REASONS = {
    200: "OK",
    204: "No Content",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    410: "Gone",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

_CRLF = b"\r\n"
_HEAD_END = b"\r\n\r\n"


@dataclass
class HttpRequest:
    """One parsed request: the shape the router and handlers consume."""

    method: str
    target: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes = b""
    #: HTTP version token of the request line ("HTTP/1.1").
    version: str = "HTTP/1.1"
    _json: object = field(default=None, repr=False)

    def header(self, name: str, default: str | None = None) -> str | None:
        """A header value by case-insensitive name."""
        return self.headers.get(name.lower(), default)

    @property
    def keep_alive(self) -> bool:
        """Whether the client asked to reuse the connection.

        HTTP/1.1 defaults to keep-alive unless ``Connection: close``;
        HTTP/1.0 defaults to close unless ``Connection: keep-alive``.
        """
        connection = (self.header("connection") or "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    def json(self) -> dict:
        """The body decoded as a JSON object (empty body = ``{}``)."""
        if self._json is None:
            if not self.body:
                self._json = {}
            else:
                try:
                    decoded = json.loads(self.body)
                except (ValueError, UnicodeDecodeError) as error:
                    raise ProtocolError(
                        f"request body is not valid JSON: {error}") from None
                if not isinstance(decoded, dict):
                    raise ProtocolError(
                        "request body must be a JSON object")
                self._json = decoded
        return self._json

    def __repr__(self) -> str:
        return f"HttpRequest({self.method} {self.target})"


async def read_request(reader: asyncio.StreamReader, *,
                       max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
                       ) -> HttpRequest | None:
    """Read and parse one request; ``None`` on a clean end-of-stream.

    Raises :class:`~repro.errors.ProtocolError` (with the right HTTP
    ``status``) for anything malformed, truncated or over limit.
    """
    try:
        head = await reader.readuntil(_HEAD_END)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean close between requests
        raise ProtocolError("truncated request head") from None
    except asyncio.LimitOverrunError:
        raise ProtocolError("request head too large",
                            status=431) from None
    try:
        text = head[:-len(_HEAD_END)].decode("latin-1")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 decodes any byte
        raise ProtocolError("undecodable request head") from None
    lines = text.split("\r\n")
    request_line = lines[0].split(" ")
    if len(request_line) != 3:
        raise ProtocolError(f"malformed request line: {lines[0]!r}")
    method, target, version = request_line
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise ProtocolError(f"unsupported HTTP version {version!r}",
                            status=501)
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, separator, value = line.partition(":")
        if not separator:
            raise ProtocolError(f"malformed header line: {line!r}")
        key = name.strip().lower()
        value = value.strip()
        headers[key] = f"{headers[key]},{value}" if key in headers else value
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise ProtocolError("chunked request bodies are not supported",
                            status=501)
    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError:
            raise ProtocolError(
                f"bad Content-Length {length_header!r}") from None
        if length < 0:
            raise ProtocolError(f"bad Content-Length {length_header!r}")
        if length > max_body_bytes:
            raise ProtocolError(
                f"request body of {length} bytes exceeds the "
                f"{max_body_bytes} byte limit", status=413)
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise ProtocolError("truncated request body") from None
    elif method in ("POST", "PUT", "PATCH"):
        raise ProtocolError(f"{method} requires Content-Length", status=411)
    split = urlsplit(target)
    return HttpRequest(
        method=method.upper(),
        target=target,
        path=unquote(split.path) or "/",
        query={key: value for key, value in parse_qsl(split.query)},
        headers=headers,
        body=body,
        version=version,
    )


def json_body(payload: object) -> bytes:
    """Canonical JSON encoding of a response payload (the encoding of
    :meth:`Relation.encoded_rows`, so spliced rows read as written here)."""
    return encode_json(payload)


def render_response(status: int, body: bytes = b"", *,
                    content_type: str = "application/json",
                    headers: tuple[tuple[str, str], ...] = (),
                    keep_alive: bool = True) -> bytes:
    """Serialize one complete (Content-Length framed) response."""
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    if body or status not in (204,):
        lines.append(f"Content-Type: {content_type}")
    lines.append(f"Content-Length: {len(body)}")
    lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
    lines.extend(f"{name}: {value}" for name, value in headers)
    head = "\r\n".join(lines).encode("latin-1") + _HEAD_END
    return head + body


async def send_response(writer: asyncio.StreamWriter, status: int,
                        body: bytes = b"", *,
                        content_type: str = "application/json",
                        headers: tuple[tuple[str, str], ...] = (),
                        keep_alive: bool = True) -> int:
    """Write one buffered response; returns the bytes written."""
    payload = render_response(status, body, content_type=content_type,
                              headers=headers, keep_alive=keep_alive)
    writer.write(payload)
    await writer.drain()
    return len(payload)


class ChunkedResponseWriter:
    """A ``Transfer-Encoding: chunked`` response, written piece by piece.

    The streaming endpoint writes one JSON line per chunk, so a client
    can consume batches as they arrive and the server never buffers the
    whole result::

        chunked = ChunkedResponseWriter(writer, headers=...)
        await chunked.start()
        await chunked.write(b'{"batch": [["a", "b"]], "index": 0, '
                            b'"offset": 0}\n')
        await chunked.write_json({"done": True, "row_count": 1, ...})
        await chunked.finish()
    """

    def __init__(self, writer: asyncio.StreamWriter, *,
                 status: int = 200,
                 content_type: str = "application/x-ndjson",
                 headers: tuple[tuple[str, str], ...] = (),
                 keep_alive: bool = True):
        self._writer = writer
        self._status = status
        self._content_type = content_type
        self._headers = headers
        self._keep_alive = keep_alive
        self.bytes_written = 0
        self.started = False
        self.finished = False

    async def start(self) -> None:
        reason = STATUS_REASONS.get(self._status, "Unknown")
        lines = [
            f"HTTP/1.1 {self._status} {reason}",
            f"Content-Type: {self._content_type}",
            "Transfer-Encoding: chunked",
            f"Connection: {'keep-alive' if self._keep_alive else 'close'}",
        ]
        lines.extend(f"{name}: {value}" for name, value in self._headers)
        head = "\r\n".join(lines).encode("latin-1") + _HEAD_END
        self._writer.write(head)
        await self._writer.drain()
        self.bytes_written += len(head)
        self.started = True

    async def write(self, data: bytes) -> None:
        if not data:
            return  # a zero-length chunk would terminate the stream
        chunk = f"{len(data):x}".encode("latin-1") + _CRLF + data + _CRLF
        self._writer.write(chunk)
        await self._writer.drain()
        self.bytes_written += len(chunk)

    async def write_json(self, payload: object) -> None:
        """One newline-terminated JSON document as one chunk."""
        await self.write(json_body(payload) + b"\n")

    async def finish(self) -> None:
        terminator = b"0" + _CRLF + _CRLF
        self._writer.write(terminator)
        await self._writer.drain()
        self.bytes_written += len(terminator)
        self.finished = True
