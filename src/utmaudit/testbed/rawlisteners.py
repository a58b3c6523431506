"""Raw socket services: database nodes and the key-management listener.

These are not HTTP services. Each accepted connection gets a one-line
banner and is then drained until the peer closes. The allowlist decision
happens in the accept loop, before any worker thread or TLS handshake, so
an unwanted peer sees an immediate close instead of a protocol error.
"""

from __future__ import annotations

import socket
import ssl
import threading
from typing import Callable, Optional

from .certs import CertPaths

_DRAIN_TIMEOUT_S = 5.0
# How often the accept loop looks for a stop request; bounds stop().
ACCEPT_TIMEOUT_S = 0.05


class RawListener:
    def __init__(
        self,
        host: str,
        port: int,
        banner: Callable[[socket.socket], bytes],
        *,
        tls_context: Optional[ssl.SSLContext] = None,
        allowlist: Optional[frozenset[str]] = None,
    ):
        self.host = host
        self.port = port
        self._banner = banner
        self._tls_context = tls_context
        self._allowlist = allowlist
        self._stop = threading.Event()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(16)
        self._thread = threading.Thread(
            target=self._accept_loop, name=f"raw-{port}", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        try:
            self._sock.close()
        except OSError:
            pass
        if self._thread.ident is not None:  # never started: nothing to join
            self._thread.join(timeout=3)

    def _accept_loop(self) -> None:
        self._sock.settimeout(ACCEPT_TIMEOUT_S)
        while not self._stop.is_set():
            try:
                conn, addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            if self._allowlist is not None and addr[0] not in self._allowlist:
                conn.close()  # close without a byte: policy drop
                continue
            worker = threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            )
            worker.start()

    def _serve(self, conn: socket.socket) -> None:
        try:
            if self._tls_context is not None:
                try:
                    conn = self._tls_context.wrap_socket(conn, server_side=True)
                except (ssl.SSLError, OSError):
                    return
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


def db_server_context(
    paths: CertPaths, *, tls12_only: bool = False
) -> ssl.SSLContext:
    ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    ctx.load_cert_chain(certfile=paths.server_cert, keyfile=paths.server_key)
    ctx.load_verify_locations(cafile=paths.ca_cert)
    ctx.verify_mode = ssl.CERT_REQUIRED
    if tls12_only:
        ctx.minimum_version = ssl.TLSVersion.TLSv1_2
        ctx.maximum_version = ssl.TLSVersion.TLSv1_2
    else:
        ctx.minimum_version = ssl.TLSVersion.TLSv1_3
    return ctx


def _peer_common_name(conn: socket.socket) -> str:
    if isinstance(conn, ssl.SSLSocket):
        cert = conn.getpeercert()
        if cert:
            for rdn in cert.get("subject", ()):
                for key, value in rdn:
                    if key == "commonName":
                        return value
    return "anonymous"


def _db_banner(conn: socket.socket) -> bytes:
    return f"dbnode ready peer=CN:{_peer_common_name(conn)}\n".encode()


def _db_plaintext_banner(conn: socket.socket) -> bytes:
    return b"dbnode ready plaintext\n"


def _kms_banner(conn: socket.socket) -> bytes:
    return b"kms ready\n"


def make_db_node(
    host: str,
    port: int,
    paths: CertPaths,
    *,
    plaintext: bool = False,
    tls12_only: bool = False,
    allowlist: Optional[frozenset[str]] = None,
) -> RawListener:
    if plaintext:
        return RawListener(
            host, port, _db_plaintext_banner, tls_context=None, allowlist=allowlist
        )
    return RawListener(
        host,
        port,
        _db_banner,
        tls_context=db_server_context(paths, tls12_only=tls12_only),
        allowlist=allowlist,
    )


def make_kms(
    host: str, port: int, *, allowlist: Optional[frozenset[str]] = None
) -> RawListener:
    return RawListener(host, port, _kms_banner, tls_context=None, allowlist=allowlist)
