"""Listener plumbing shared by the mock services.

Every listener, HTTP or raw, runs one accept loop on a blocking socket.
`stop()` wakes that loop by shutting the listening socket down, which fails
the pending accept() at once instead of waiting for a poll to notice.

The allowlist decision runs in the accept thread before any TLS bytes are
exchanged, so disallowed peers see a bare close. Every accepted connection
gets TCP_NODELAY there too, raw or HTTP. The TLS handshake itself
runs in the per-connection worker thread, which keeps a stalled handshake
from blocking the accept loop.
"""

from __future__ import annotations

import json
import socket
import ssl
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

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
                # Services write a reply in pieces (headers then body, TLS
                # session tickets then a banner); Nagle would hold the
                # later piece back for the peer's delayed ACK.
                request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self.process_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
                self.shutdown_request(request)
            except BaseException:
                self.shutdown_request(request)
                raise

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
        if self.tls_context is None:
            self.RequestHandlerClass(request, client_address, self)
            return
        request.settimeout(15)
        try:
            request = self.tls_context.wrap_socket(request, server_side=True)
        except (ssl.SSLError, OSError):
            try:
                request.close()
            except OSError:
                pass
            return
        try:
            self.RequestHandlerClass(request, client_address, self)
        finally:
            # socketserver shuts down only the socket it accepted, which the
            # wrap detached; the wrapped one is this method's to close.
            self.shutdown_request(request)


def https_context(
    paths: CertPaths, *, client_cert_mode: str = "none"
) -> ssl.SSLContext:
    """client_cert_mode: none | optional (optional loads the CA and lets the
    request handler decide whether a missing peer certificate matters)."""
    ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    ctx.load_cert_chain(certfile=paths.server_cert, keyfile=paths.server_key)
    if client_cert_mode == "optional":
        ctx.load_verify_locations(cafile=paths.ca_cert)
        ctx.verify_mode = ssl.CERT_OPTIONAL
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
        self._discard_unread_body()
        body = json.dumps(obj).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra_headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def send_html(
        self, status: int, markup: str,
        extra_headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        self._discard_unread_body()
        body = markup.encode()
        self.send_response(status)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra_headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def send_bytes(self, status: int, body: bytes, content_type: str) -> None:
        self._discard_unread_body()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def send_redirect(self, location: str) -> None:
        self._discard_unread_body()
        self.send_response(302)
        self.send_header("Location", location)
        self.send_header("Content-Length", "0")
        self.end_headers()
