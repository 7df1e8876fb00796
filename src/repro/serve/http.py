"""A minimal stdlib HTTP/1.1 server for the campaign service.

The service speaks plain HTTP+JSON on localhost so any client — the
bundled ``repro submit`` trio, ``curl``, a notebook — can drive it
without this package growing a dependency. The subset implemented here
is exactly what the API needs:

* request parsing (request line, headers, ``Content-Length`` bodies);
* a :class:`Router` matching ``METHOD /path/{param}`` patterns;
* JSON responses, and newline-delimited JSON (*ndjson*) streaming for
  the campaign event feed, where each progress event is flushed as its
  own line the moment it happens.

Every response closes its connection (``Connection: close``): the
clients are short-lived polls or one long-lived event stream, so
connection reuse buys nothing and keep-alive bookkeeping would cost
real code. Handlers run on the server's asyncio loop and must not
block; the campaign server keeps all mutable state on that single
loop, which is what makes the service need no locks at all.
"""

import asyncio
import json
import re
from dataclasses import dataclass, field
from urllib.parse import parse_qs, unquote, urlsplit

#: Hard cap on request head + body; campaign specs are tiny.
MAX_REQUEST_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: ``Retry-After`` value sent with load-shedding 503 replies.
RETRY_AFTER_S = 1


class HttpError(Exception):
    """Raise inside a handler to answer with a JSON error body."""

    def __init__(self, status, message):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed request, as handed to a route handler."""

    method: str
    path: str
    query: dict
    headers: dict
    body: bytes
    params: dict = field(default_factory=dict)

    def json(self):
        """The body decoded as JSON (``{}`` when empty)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, "request body is not valid JSON: "
                            "{}".format(exc))


@dataclass
class JsonResponse:
    """A complete JSON reply."""

    payload: object
    status: int = 200


class NdjsonStream:
    """A streamed reply: one JSON document per line, flushed per line.

    ``source`` is an async iterator of JSON-serializable objects; the
    connection stays open until it is exhausted (end-of-stream is
    signalled by closing the connection — the standard ndjson idiom).
    """

    def __init__(self, source, status=200):
        self.source = source
        self.status = status


def _head(status, content_type, extra=()):
    lines = [
        "HTTP/1.1 {} {}".format(status, _REASONS.get(status, "Status")),
        "Content-Type: {}".format(content_type),
        "Connection: close",
    ]
    lines.extend(extra)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


def _json_bytes(payload):
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


class Router:
    """Method + path-pattern dispatch with ``{param}`` captures.

    Patterns look like ``/campaigns/{id}/events``; a ``{name}``
    segment matches one path segment and lands in ``request.params``.
    """

    def __init__(self):
        self._routes = []  # (method, regex, handler)

    def add(self, method, pattern, handler):
        regex = re.compile(
            "^"
            + re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", pattern)
            + "$"
        )
        self._routes.append((method.upper(), regex, handler))

    def dispatch(self, request):
        """The (handler, params) for a request.

        Raises :class:`HttpError` 404 for an unknown path and 405 for
        a known path with the wrong method.
        """
        path_known = False
        for method, regex, handler in self._routes:
            match = regex.match(request.path)
            if not match:
                continue
            path_known = True
            if method == request.method:
                return handler, {
                    k: unquote(v) for k, v in match.groupdict().items()
                }
        if path_known:
            raise HttpError(405, "method {} not allowed for {}".format(
                request.method, request.path
            ))
        raise HttpError(404, "no such resource: {}".format(request.path))


async def _read_request(reader):
    """Parse one request off the wire (or None on immediate EOF)."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "truncated request head")
    except asyncio.LimitOverrunError:
        raise HttpError(413, "request head too large")
    try:
        text = head.decode("latin-1")
        request_line, *header_lines = text.split("\r\n")
        method, target, _version = request_line.split(" ", 2)
    except ValueError:
        raise HttpError(400, "malformed request line")
    headers = {}
    for line in header_lines:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_REQUEST_BYTES:
        raise HttpError(413, "request body too large")
    body = await reader.readexactly(length) if length else b""
    parts = urlsplit(target)
    query = {
        name: values[-1]
        for name, values in parse_qs(parts.query).items()
    }
    return Request(
        method=method.upper(), path=parts.path or "/",
        query=query, headers=headers, body=body,
    )


async def _write_json(writer, status, payload, extra=()):
    writer.write(
        _head(status, "application/json", extra) + _json_bytes(payload)
    )
    await writer.drain()


async def _drain_peer(reader):
    """Read and discard until the peer closes (lingering close)."""
    while await reader.read(65536):
        pass


async def _write_stream(writer, stream):
    writer.write(_head(stream.status, "application/x-ndjson"))
    await writer.drain()
    async for item in stream.source:
        writer.write(_json_bytes(item))
        await writer.drain()


def make_connection_handler(router, idle_timeout_s=None,
                            max_connections=None):
    """The ``asyncio.start_server`` callback serving ``router``.

    One request per connection; handler exceptions become JSON error
    replies (500 unless the handler raised :class:`HttpError`). Client
    disconnects mid-stream are normal (a watcher hit Ctrl-C) and are
    swallowed.

    Hostile-peer hardening:

    * ``idle_timeout_s`` — deadline on reading the *request* (head and
      body together). A client that opens a socket and stalls — the
      slowloris move — gets a 408 and its connection back instead of
      pinning a server slot forever. The deadline covers only the
      read: a long-lived event stream is still free to run for hours,
      because by then the peer has proven it can speak HTTP.
    * ``max_connections`` — load-shedding cap on concurrent
      connections. Beyond it, new requests are answered immediately
      with 503 + ``Retry-After`` rather than queued into a pile-up;
      the self-healing client treats that as a backoff-and-retry
      signal.
    """
    open_connections = 0

    async def handle(reader, writer):
        nonlocal open_connections
        open_connections += 1
        try:
            try:
                if (
                    max_connections is not None
                    and open_connections > max_connections
                ):
                    raise HttpError(
                        503,
                        "server at its connection cap ({}); retry "
                        "shortly".format(max_connections),
                    )
                try:
                    if idle_timeout_s is not None:
                        request = await asyncio.wait_for(
                            _read_request(reader), timeout=idle_timeout_s,
                        )
                    else:
                        request = await _read_request(reader)
                except asyncio.TimeoutError:
                    raise HttpError(
                        408,
                        "no complete request within {:.3g}s".format(
                            idle_timeout_s
                        ),
                    )
                if request is None:
                    return
                handler, params = router.dispatch(request)
                request.params = params
                response = await handler(request)
            except HttpError as exc:
                extra = ()
                if exc.status == 503:
                    extra = ("Retry-After: {}".format(RETRY_AFTER_S),)
                await _write_json(
                    writer, exc.status, {"error": exc.message}, extra,
                )
                return
            except Exception as exc:  # handler bug: answer, don't die
                await _write_json(
                    writer, 500,
                    {"error": "{}: {}".format(type(exc).__name__, exc)},
                )
                return
            if isinstance(response, NdjsonStream):
                await _write_stream(writer, response)
            else:
                await _write_json(
                    writer, response.status, response.payload,
                )
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing to answer
        finally:
            open_connections -= 1
            # Lingering close: when a reply was written *before* the
            # request was fully read (load-shed 503, slowloris 408), a
            # straight close() races the peer's in-flight bytes and
            # turns into an RST that destroys the buffered response.
            # Send FIN first, then briefly drain the peer so the close
            # is graceful. The slot is already freed above, so a peer
            # stalling here holds nothing that matters.
            try:
                if writer.can_write_eof():
                    writer.write_eof()
                await asyncio.wait_for(_drain_peer(reader), timeout=0.5)
            except (asyncio.TimeoutError, OSError, RuntimeError):
                pass
            finally:
                # Also when a stopping server cancels the linger.
                writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    return handle
