"""Raw socket services: database nodes and the key-management listener.

These are not HTTP services. Each accepted connection gets a one-line
banner and is then drained until the peer closes. The allowlist decision
happens in the accept loop, before any worker thread or TLS handshake, so
an unwanted peer sees an immediate close instead of a protocol error.
"""

from __future__ import annotations

import socket
import socketserver
import ssl
from typing import Callable, Optional

from .httpbase import Listener

_DRAIN_TIMEOUT_S = 5.0


class RawListener(Listener, socketserver.ThreadingTCPServer):
    request_queue_size = 16

    def __init__(
        self,
        host: str,
        port: int,
        banner: Callable[[socket.socket], bytes],
        **listener,
    ):
        self._banner = banner
        super().__init__((host, port), None, **listener)

    def finish_request(self, request, client_address) -> None:
        self._serve(request)

    def _serve(self, conn: socket.socket) -> None:
        conn = self.handshake(conn)
        if conn is None:
            return
        try:
            try:
                conn.sendall(self._banner(conn))
            except OSError:
                return
            conn.settimeout(_DRAIN_TIMEOUT_S)
            while True:
                try:
                    if not conn.recv(1024):
                        return
                except (socket.timeout, TimeoutError, OSError):
                    return
        finally:
            try:
                conn.close()
            except OSError:
                pass


def _db_banner(conn: socket.socket) -> bytes:
    # Names no peer: its first bytes only let a client's read after the
    # handshake return at once.
    return b"dbnode ready\n"


def _db_plaintext_banner(conn: socket.socket) -> bytes:
    return b"dbnode ready plaintext\n"


def _kms_banner(conn: socket.socket) -> bytes:
    return b"kms ready\n"


def make_db_node(
    host: str,
    port: int,
    tls_context: Optional[ssl.SSLContext],
    *,
    allowlist: Optional[frozenset[str]] = None,
) -> RawListener:
    """A database node that speaks TLS with ``tls_context``, or plaintext
    when it is None."""
    banner = _db_plaintext_banner if tls_context is None else _db_banner
    return RawListener(
        host, port, banner, tls_context=tls_context, allowlist=allowlist
    )


def make_kms(
    host: str, port: int, *, allowlist: Optional[frozenset[str]] = None
) -> RawListener:
    return RawListener(host, port, _kms_banner, tls_context=None, allowlist=allowlist)
