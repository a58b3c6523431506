"""The one dialer of every probe, and HTTP/TLS transport for probes.

`Dialing` makes every TCP connect: `dial` waits on one for a blocking
connection, and NET's sweep keeps all its probes in flight at once on one
selector. `client_context` builds every TLS client context that
`HttpClient`, `netprobe` and `tlsaudit` use. A context is built
once per process for each set of credential bytes (CA, certificate and key)
and shared by every caller that loads the same bytes, so callers must not
change one. A vantage is the source address that `manifest.vantage` picks: an
allowlisted address, or None for the host's default (the scanner's external
vantage).

Per request the caller of `HttpClient` controls two things ordinary HTTP
clients hide: the vantage, and whether the configured client certificate is
offered during the handshake.

Connections are kept alive and pooled per (scheme, host, port, vantage,
client certificate offered), so a probe never rides a connection
opened from another vantage or under another TLS identity. A request takes an
idle connection of its key or opens one, reads the whole response, and hands
the connection back unless the server said it will close it. Any failure
closes the connection. `HttpClient.close()` closes every idle connection.

A reused connection that fails before any status line arrives
(RemoteDisconnected, ConnectionResetError, BrokenPipeError) lost the race with
a server closing it while idle. That request alone is sent once more, on a
fresh connection; every other failure raises WireError at once.

`timeout_s` bounds each connect and send, and it is the request's deadline:
the status line, headers and body must all arrive within `timeout_s` of the
request's start, however slowly the server drips them. The body is read in
chunks up to MAX_BODY_BYTES. Either limit raises WireError.

The server certificate is verified against the target's CA whenever one is
configured.

Redirects are never followed; probes inspect Location headers themselves.
"""

from __future__ import annotations

import errno
import functools
import http.client
import io
import json
import os
import pathlib
import select
import socket
import ssl
import threading
import time
import urllib.parse
from dataclasses import dataclass
from typing import Any, NoReturn, Optional, Union

DEFAULT_TIMEOUT_S = 5.0
# Far above the largest body a scan reads: the testbed's whole log listing.
MAX_BODY_BYTES = 8 * 1024 * 1024
_READ_CHUNK = 64 * 1024
# How a reused connection fails when its server closed it while idle.
_STALE = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)
# OSError covers refused and reset connections, TLS failures and timeouts.
_TRANSPORT_ERRORS = (OSError, http.client.HTTPException)
# Client contexts by (file bytes, tls12_max). A scan loads at most four; the
# bound keeps a process that rotates its credentials from growing without end.
_MAX_CONTEXTS = 16
_CONTEXTS: dict[tuple, ssl.SSLContext] = {}
_CONTEXTS_LOCK = threading.Lock()


class WireError(Exception):
    """Transport-level failure (refused, reset, timeout, TLS failure)."""


class SourceUnavailable(WireError):
    """The source address of a vantage cannot be bound on this host."""


def resolve(host: str) -> Union[list[tuple], OSError]:
    """The stream addresses of ``host`` in getaddrinfo's order, with port 0
    (`Dialing` fills in the port), or the error that says why it has none."""
    try:
        return socket.getaddrinfo(host, 0, 0, socket.SOCK_STREAM)
    except OSError as exc:
        return exc


def dial(
    host: str, port: int, source: Optional[str], timeout_s: float
) -> socket.socket:
    """One TCP connection to ``host:port`` from the source address
    ``source``, or from the host's default source address for None: a
    `Dialing` waited on, ``timeout_s`` for each address. The socket it
    returns has ``timeout_s`` as its timeout. A source the host cannot bind
    raises SourceUnavailable; any other failure raises its OSError."""
    dialing = Dialing(resolve(host), port, source)
    poller = select.poll()
    while True:
        poller.register(dialing.sock, select.POLLOUT)
        writable = bool(poller.poll(max(timeout_s, 0.0) * 1000))
        poller.unregister(dialing.sock)
        sock = dialing.advance(writable)
        if sock is not None:
            sock.settimeout(timeout_s)
            return sock


def _dial_failed(exc: OSError, source: Optional[str]) -> NoReturn:
    """Raise ``exc``, or SourceUnavailable when it says that ``source``
    cannot be bound."""
    if source and exc.errno in (errno.EADDRNOTAVAIL, errno.EINVAL):
        raise SourceUnavailable(
            f"cannot bind source address {source}: {exc}"
        ) from exc
    raise exc


class Dialing:
    """One TCP connect in flight without blocking, for `dial` and for a
    caller that waits on many sockets at once. It tries ``addresses`` (what
    `resolve` returned) at ``port`` in order, as `socket.create_connection`
    does, each from the source address ``source`` and with its own timeout,
    kept by the caller.

    ``sock`` is the non-blocking socket whose connect is in flight. Once it
    is writable, or its timeout has passed, `advance` returns it connected,
    or tries the next address and returns None. Once no address is left,
    the constructor or `advance` raises SourceUnavailable when ``source``
    cannot be bound, or else the last address's OSError (TimeoutError for
    a timeout). A host that did not resolve raises its lookup error."""

    def __init__(
        self,
        addresses: Union[list[tuple], OSError],
        port: int,
        source: Optional[str],
    ):
        if isinstance(addresses, OSError):
            raise addresses.with_traceback(None)  # shared by the host's probes
        self.port = port
        self.source = source
        self.sock: Optional[socket.socket] = None
        self._addresses = iter(addresses)
        self._next(OSError("getaddrinfo returns an empty list"))

    def advance(self, writable: bool) -> Optional[socket.socket]:
        if not writable:
            self._next(TimeoutError("timed out"))
            return None
        code = self.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
        if code == 0:
            return self.sock
        self._next(OSError(code, os.strerror(code)))
        return None

    def _next(self, error: OSError) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        for family, kind, proto, _, address in self._addresses:
            sock = None
            try:
                sock = socket.socket(family, kind, proto)
                sock.setblocking(False)
                if self.source:
                    sock.bind((self.source, 0))
                code = sock.connect_ex((address[0], self.port, *address[2:]))
                if code not in (0, errno.EINPROGRESS):
                    raise OSError(code, os.strerror(code))
            except OSError as exc:
                if sock is not None:
                    sock.close()
                error = exc
                continue
            self.sock = sock
            return
        _dial_failed(error, self.source)


def client_context(
    ca_path: Optional[str],
    cert: Optional[str] = None,
    key: Optional[str] = None,
    *,
    tls12_max: bool = False,
) -> ssl.SSLContext:
    """A TLS client context that verifies the server certificate against
    ``ca_path`` whenever one is given, presents ``cert`` and ``key`` when
    both are given, and with ``tls12_max`` offers TLS 1.2 at most.

    The files are read on every call, and a context is built only for bytes
    this process has not loaded before: the same bytes at another path give
    the same context, and a file rewritten in place gives a new one. The
    context is shared, so callers must not change it; it keeps no TLS
    session of its own. A file that cannot be read or parsed raises the
    loader's own error, and no failure is cached."""
    identity = (cert, key) if cert and key else (None, None)
    paths = (ca_path or None, *identity)
    contents = _file_bytes(paths)
    if contents is None:  # the loader raises the read error itself
        return _build_client_context(*paths, tls12_max)
    cache_key = (contents, tls12_max)
    with _CONTEXTS_LOCK:
        context = _CONTEXTS.get(cache_key)
        if context is None:
            context = _build_client_context(*paths, tls12_max)
            # cached only if no file changed while the loader read it
            if _file_bytes(paths) == contents:
                if len(_CONTEXTS) >= _MAX_CONTEXTS:
                    del _CONTEXTS[next(iter(_CONTEXTS))]  # the oldest
                _CONTEXTS[cache_key] = context
        return context


def _file_bytes(paths: tuple[Optional[str], ...]) -> Optional[tuple]:
    """The bytes of each named file (None where no file is named), or None
    when a file cannot be read."""
    try:
        return tuple(pathlib.Path(p).read_bytes() if p else None for p in paths)
    except OSError:
        return None


def _build_client_context(
    ca_path: Optional[str], cert: Optional[str], key: Optional[str],
    tls12_max: bool,
) -> ssl.SSLContext:
    ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    ctx.check_hostname = False  # targets are addressed by IP
    if ca_path:
        ctx.load_verify_locations(cafile=ca_path)
    else:
        ctx.verify_mode = ssl.CERT_NONE
    if cert and key:
        ctx.load_cert_chain(cert, key)
    if tls12_max:
        ctx.maximum_version = ssl.TLSVersion.TLSv1_2
    return ctx


@dataclass
class HttpResponse:
    status: int
    headers: list[tuple[str, str]]
    body: bytes

    def header(self, name: str) -> Optional[str]:
        for key, value in self.headers:
            if key.lower() == name.lower():
                return value
        return None

    def header_all(self, name: str) -> list[str]:
        return [v for k, v in self.headers if k.lower() == name.lower()]

    def json(self) -> Any:
        return json.loads(self.body.decode("utf-8"))

    def json_object(self) -> Optional[dict]:
        """The body as a JSON object; None for anything else."""
        try:
            doc = self.json()
        except ValueError:
            return None
        return doc if isinstance(doc, dict) else None

    def text(self) -> str:
        return self.body.decode("utf-8", errors="replace")


class HttpClient:
    """Thread-safe: one lock guards the idle pool, and a connection serves
    one request at a time. Each new HTTPS connection asks `client_context`
    for its context."""

    def __init__(
        self,
        ca_path: Optional[str] = None,
        client_cert: Optional[str] = None,
        client_key: Optional[str] = None,
        allowlisted_source: Optional[str] = None,
        timeout_s: float = DEFAULT_TIMEOUT_S,
    ):
        self.ca_path = ca_path
        self.client_cert = client_cert
        self.client_key = client_key
        self.allowlisted_source = allowlisted_source
        self.timeout_s = timeout_s
        self._lock = threading.Lock()
        self._idle: dict[tuple, list[http.client.HTTPConnection]] = {}

    def close(self) -> None:
        """Close every idle connection."""
        with self._lock:
            idle, self._idle = self._idle, {}
        for conns in idle.values():
            for conn in conns:
                conn.close()

    # -- Connections -------------------------------------------------------

    def _connect(
        self, scheme: str, host: str, port: int, source: Optional[str],
        with_cert: bool,
    ) -> http.client.HTTPConnection:
        """A new connection for the pool key; it connects on its first request."""
        if scheme == "http":
            conn = http.client.HTTPConnection(host, port, timeout=self.timeout_s)
        else:
            if with_cert and not (self.client_cert and self.client_key):
                raise WireError("client certificate requested but not configured")
            identity = (self.client_cert, self.client_key) if with_cert else ()
            conn = http.client.HTTPSConnection(
                host, port, timeout=self.timeout_s,
                context=client_context(self.ca_path, *identity),
            )
        conn._create_connection = (
            lambda address, timeout, _: dial(*address, source, timeout)
        )
        return conn

    def _checkout(self, key: tuple) -> Optional[http.client.HTTPConnection]:
        with self._lock:
            idle = self._idle.get(key)
            return idle.pop() if idle else None

    def _checkin(self, key: tuple, conn: http.client.HTTPConnection) -> None:
        conn.sock.settimeout(self.timeout_s)  # reads shortened it to the deadline
        with self._lock:
            self._idle.setdefault(key, []).append(conn)

    # -- Requests ----------------------------------------------------------

    def request(
        self,
        method: str,
        url: str,
        *,
        body: Optional[bytes] = None,
        form: Optional[dict] = None,
        headers: Optional[dict] = None,
        source: Optional[str] = None,
        present_client_cert: bool = False,
    ) -> HttpResponse:
        parts = urllib.parse.urlsplit(url)
        if parts.scheme not in ("http", "https"):
            raise WireError(f"unsupported scheme in {url!r}")
        host = parts.hostname or ""
        port = parts.port or (443 if parts.scheme == "https" else 80)
        path = parts.path or "/"
        if parts.query:
            path += "?" + parts.query

        send_headers = {}
        if form is not None:
            body = urllib.parse.urlencode(form).encode("ascii")
            send_headers["Content-Type"] = "application/x-www-form-urlencoded"
        if headers:
            send_headers.update(headers)

        key = (parts.scheme, host, port, source, present_client_cert)
        deadline = time.monotonic() + self.timeout_s
        conn = self._checkout(key)
        reused = conn is not None
        try:
            if conn is None:
                conn = self._connect(*key)
            try:
                resp = _send(conn, method, path, body, send_headers, deadline)
            except _STALE:
                if not reused:
                    raise
                conn.close()  # closed by the server while idle: once more, fresh
                conn = self._connect(*key)
                resp = _send(conn, method, path, body, send_headers, deadline)
            payload = _read_body(resp)
        except BaseException as exc:
            if conn is not None:
                conn.close()
            if isinstance(exc, _TRANSPORT_ERRORS):
                raise WireError(
                    f"{method} {parts.scheme}://{host}:{port}{path}: {exc}"
                ) from exc
            raise
        if resp.will_close:
            conn.close()
        else:
            self._checkin(key, conn)
        return HttpResponse(
            status=resp.status, headers=list(resp.getheaders()), body=payload
        )


class _DeadlineReader(io.RawIOBase):
    """A socket as a response reads it: each read waits only for the time
    left before the request's deadline."""

    def __init__(self, sock: socket.socket, deadline: float):
        self._sock = sock
        # An open file of the socket defers its close until the response is
        # read, as HTTPResponse's own sock.makefile() does.
        self._file = sock.makefile("rb", buffering=0)
        self._deadline = deadline

    def makefile(self, mode: str) -> io.BufferedReader:
        return io.BufferedReader(self)  # HTTPResponse reads sock.makefile("rb")

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        left = self._deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("timed out at the request deadline")
        self._sock.settimeout(left)
        return self._file.readinto(buffer)

    def close(self) -> None:
        self._file.close()
        super().close()


class _Response(http.client.HTTPResponse):
    def __init__(self, sock, *args, deadline: float, **kwargs):
        super().__init__(_DeadlineReader(sock, deadline), *args, **kwargs)


def _send(
    conn: http.client.HTTPConnection,
    method: str,
    path: str,
    body: Optional[bytes],
    headers: dict,
    deadline: float,
) -> http.client.HTTPResponse:
    """Send one request; return once its status line and headers are read."""
    conn.response_class = functools.partial(_Response, deadline=deadline)
    conn.request(method, path, body=body, headers=headers)
    return conn.getresponse()


def _read_body(resp: http.client.HTTPResponse) -> bytes:
    """The whole body, read in chunks up to MAX_BODY_BYTES. The response is
    closed on the way out, so a failed read leaves no socket open."""
    chunks: list[bytes] = []
    size = 0
    with resp:
        while chunk := resp.read(_READ_CHUNK):
            size += len(chunk)
            if size > MAX_BODY_BYTES:
                # http.client's own limits on header lines raise this family too
                raise http.client.HTTPException(
                    f"response body over {MAX_BODY_BYTES} bytes"
                )
            chunks.append(chunk)
        if resp.length:  # the server closed before its Content-Length was met
            raise http.client.IncompleteRead(b"".join(chunks), resp.length)
    return b"".join(chunks)
