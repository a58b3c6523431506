"""Listener plumbing shared by the mock services.

Every listener, HTTP or raw, runs one accept loop on a blocking socket.
`stop()` wakes that loop by shutting the listening socket down, which fails
the pending accept() at once instead of waiting for a poll to notice.

The allowlist decision runs in the accept thread before any TLS bytes are
exchanged, so disallowed peers see a bare close. Every accepted connection
gets TCP_NODELAY there too, raw or HTTP. The TLS handshake itself
(`Listener.handshake`, for either kind) runs in the per-connection worker
thread, which keeps a stalled handshake from blocking the accept loop.
"""

from __future__ import annotations

import json
import socket
import ssl
import sys
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from . import tokens
from .certs import CertPaths


class Listener:
    """Mixin for a threading `socketserver` server: the allowlist, the
    accept loop and its start and stop."""

    # server_close() joins no daemon worker, so stop() never waits on a
    # peer that keeps its connection open
    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address,
        handler_class,
        *,
        tls_context: Optional[ssl.SSLContext] = None,
        allowlist: Optional[frozenset[str]] = None,
    ):
        self.tls_context = tls_context
        self.allowlist = allowlist
        self._thread: Optional[threading.Thread] = None
        self._stopping = False
        super().__init__(address, handler_class)

    def verify_request(self, request, client_address) -> bool:
        if self.allowlist is not None and client_address[0] not in self.allowlist:
            return False  # closed without a byte: policy drop
        return True

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._accept_loop,
            name=f"listen-{self.server_address[1]}",
            daemon=True,
        )
        self._thread.start()

    def _accept_loop(self) -> None:
        # socketserver's _handle_request_noblock, on a socket that blocks
        while True:
            try:
                request, client_address = self.get_request()
            except OSError:
                if self._stopping:
                    return
                continue
            if not self.verify_request(request, client_address):
                self.shutdown_request(request)
                continue
            try:
                # Services write a reply in pieces (headers then body);
                # Nagle would hold the later piece back for the peer's
                # delayed ACK.
                request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self.process_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
                self.shutdown_request(request)
            except BaseException:
                self.shutdown_request(request)
                raise

    def handle_error(self, request, client_address) -> None:
        """A peer that reset or dropped its connection simply left, so it
        prints nothing; any other error keeps socketserver's traceback."""
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def handshake(self, conn: socket.socket) -> Optional[socket.socket]:
        """The accepted connection, wrapped in TLS when the listener speaks
        it; None, after closing it, when the handshake fails."""
        if self.tls_context is None:
            return conn
        conn.settimeout(15)
        try:
            return self.tls_context.wrap_socket(conn, server_side=True)
        except (ssl.SSLError, OSError):
            try:
                conn.close()
            except OSError:
                pass
            return None

    def wake(self) -> None:
        """Fail the pending accept() now; Linux answers it with EINVAL."""
        self._stopping = True
        try:
            self.socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already shut down

    def stop(self) -> None:
        self.wake()
        if self._thread is not None:  # never started: nothing to join
            self._thread.join(timeout=3)
        self.server_close()


class TestbedHttpServer(Listener, ThreadingHTTPServer):
    def __init__(self, address, handler_class, service, **listener):
        self.service = service
        super().__init__(address, handler_class, **listener)

    def finish_request(self, request, client_address) -> None:
        """Serve every request of one kept-alive connection."""
        conn = self.handshake(request)
        if conn is None:
            return
        try:
            self.RequestHandlerClass(conn, client_address, self)
        finally:
            # socketserver shuts down only the socket it accepted, which a
            # TLS wrap detached; the wrapped one is this method's to close.
            self.shutdown_request(conn)


def server_context(
    paths: CertPaths,
    client_cert: ssl.VerifyMode = ssl.CERT_NONE,
    version: Optional[ssl.TLSVersion] = None,
) -> ssl.SSLContext:
    """A server context for the testbed's certificate. client_cert is the
    verify mode for the peer's certificate; asking for one loads the CA.
    version pins both the minimum and the maximum protocol version. It
    issues no session ticket, in TLS 1.3 or 1.2: the scanner never resumes
    a session."""
    ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    ctx.load_cert_chain(certfile=paths.server_cert, keyfile=paths.server_key)
    ctx.num_tickets = 0
    ctx.options |= ssl.OP_NO_TICKET
    if client_cert != ssl.CERT_NONE:
        ctx.load_verify_locations(cafile=paths.ca_cert)
        ctx.verify_mode = client_cert
    if version is not None:
        ctx.minimum_version = ctx.maximum_version = version
    return ctx


class JsonHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "testbed"
    sys_version = ""

    def log_message(self, *args) -> None:
        pass

    @property
    def service(self):
        return self.server.service

    def read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        self._body_consumed = True
        return self.rfile.read(length) if length > 0 else b""

    def _discard_unread_body(self) -> None:
        # Responding before the request body is read leaves bytes on the
        # wire; closing then RSTs the buffered response. Drain first.
        if not getattr(self, "_body_consumed", False):
            length = int(self.headers.get("Content-Length") or 0)
            if length > 0:
                try:
                    self.rfile.read(length)
                except OSError:
                    pass
        self._body_consumed = False

    def read_form(self) -> dict[str, str]:
        pairs = urllib.parse.parse_qsl(
            self.read_body().decode("utf-8", errors="replace")
        )
        return dict(pairs)

    def read_json(self) -> Optional[dict]:
        try:
            parsed = json.loads(self.read_body() or b"null")
        except ValueError:
            return None
        return parsed if isinstance(parsed, dict) else None

    def query(self) -> dict[str, str]:
        parsed = urllib.parse.urlparse(self.path)
        return dict(urllib.parse.parse_qsl(parsed.query))

    def route(self) -> str:
        return urllib.parse.urlparse(self.path).path

    def bearer_token(self) -> Optional[str]:
        header = self.headers.get("Authorization") or ""
        if header.startswith("Bearer "):
            return header[len("Bearer "):].strip()
        return None

    def peer_cert_present(self) -> bool:
        conn = self.connection
        if isinstance(conn, ssl.SSLSocket):
            return bool(conn.getpeercert())
        return False

    def send_json(
        self, status: int, obj, extra_headers: tuple[tuple[str, str], ...] = ()
    ) -> None:
        self.send_bytes(status, json.dumps(obj).encode(), "application/json",
                        extra_headers)

    def send_html(
        self, status: int, markup: str,
        extra_headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        self.send_bytes(status, markup.encode(), "text/html; charset=utf-8",
                        extra_headers)

    def send_bytes(
        self, status: int, body: bytes, content_type: str,
        extra_headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        self._discard_unread_body()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra_headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def authorized(self, required_scope: str) -> bool:
        """Whether the request's bearer token passes the service's
        validator (its ``keys`` and ``policy``); if not, the refusal has
        been sent."""
        compact = self.bearer_token()
        if compact is None:
            verdict = tokens.Verdict(False, 401, "missing bearer token")
        else:
            verdict = tokens.validate(
                self.service.keys, self.service.policy, compact,
                required_scope=required_scope,
            )
        if not verdict.ok:
            self.send_json(verdict.status, {"error": verdict.reason})
        return verdict.ok

    def send_redirect(self, location: str) -> None:
        self._discard_unread_body()
        self.send_response(302)
        self.send_header("Location", location)
        self.send_header("Content-Length", "0")
        self.end_headers()
