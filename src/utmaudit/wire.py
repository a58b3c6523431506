"""HTTP/TLS transport for probes.

One connection per request (Connection: close) so probes never share sockets,
with per-request control over three things ordinary HTTP clients hide:

- source address binding, to present either the scanner's plain ("external")
  vantage or a declared allowlisted vantage;
- whether the configured client certificate is offered during the handshake;
- whether the server certificate is verified against the target's CA.

Redirects are never followed; probes inspect Location headers themselves.
"""

from __future__ import annotations

import http.client
import json
import socket
import ssl
import time
import urllib.parse
from dataclasses import dataclass
from typing import Any, Optional

DEFAULT_TIMEOUT_S = 5.0


class WireError(Exception):
    """Transport-level failure (refused, reset, timeout, TLS failure)."""


class SourceUnavailable(WireError):
    """The requested source vantage cannot be bound on this host."""


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

    def text(self) -> str:
        return self.body.decode("utf-8", errors="replace")


class HttpClient:
    """Thread-safe: contexts are built once, each request opens its own socket."""

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
        self._contexts: dict[tuple[bool, bool], ssl.SSLContext] = {}

    # -- TLS context cache -------------------------------------------------

    def _context(self, verify: bool, with_cert: bool) -> ssl.SSLContext:
        key = (verify, with_cert)
        if key not in self._contexts:
            if verify:
                ctx = ssl.create_default_context(cafile=self.ca_path)
                ctx.check_hostname = False  # targets are addressed by IP
            else:
                ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
                ctx.check_hostname = False
                ctx.verify_mode = ssl.CERT_NONE
            if with_cert:
                if not (self.client_cert and self.client_key):
                    raise WireError("client certificate requested but not configured")
                ctx.load_cert_chain(self.client_cert, self.client_key)
            self._contexts[key] = ctx
        return self._contexts[key]

    def _source_address(self, source: str) -> Optional[tuple[str, int]]:
        if source == "external":
            return None  # the host's default source address
        if source == "allowlisted":
            if not self.allowlisted_source:
                raise SourceUnavailable("no allowlisted source address configured")
            return (self.allowlisted_source, 0)
        raise ValueError(f"unknown source vantage {source!r}")

    # -- Requests ----------------------------------------------------------

    def request(
        self,
        method: str,
        url: str,
        *,
        body: Optional[bytes] = None,
        form: Optional[dict] = None,
        headers: Optional[dict] = None,
        source: str = "external",
        present_client_cert: bool = False,
        verify_tls: Optional[bool] = None,
        max_retries: int = 0,
    ) -> HttpResponse:
        if verify_tls is None:
            verify_tls = self.ca_path is not None
        parts = urllib.parse.urlsplit(url)
        if parts.scheme not in ("http", "https"):
            raise WireError(f"unsupported scheme in {url!r}")
        host = parts.hostname or ""
        port = parts.port or (443 if parts.scheme == "https" else 80)
        path = parts.path or "/"
        if parts.query:
            path += "?" + parts.query

        send_headers = {"Connection": "close"}
        if form is not None:
            body = urllib.parse.urlencode(form).encode("ascii")
            send_headers["Content-Type"] = "application/x-www-form-urlencoded"
        if headers:
            send_headers.update(headers)

        attempt = 0
        while True:
            try:
                return self._one_request(
                    parts.scheme, host, port, method, path, body, send_headers,
                    source, present_client_cert, verify_tls,
                )
            except WireError:
                if attempt >= max_retries:
                    raise
                time.sleep(0.1 * (2 ** attempt))
                attempt += 1

    def _one_request(
        self,
        scheme: str,
        host: str,
        port: int,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: dict,
        source: str,
        present_client_cert: bool,
        verify_tls: bool,
    ) -> HttpResponse:
        source_address = self._source_address(source)
        try:
            if scheme == "https":
                conn: http.client.HTTPConnection = http.client.HTTPSConnection(
                    host,
                    port,
                    timeout=self.timeout_s,
                    source_address=source_address,
                    context=self._context(verify_tls, present_client_cert),
                )
            else:
                conn = http.client.HTTPConnection(
                    host, port, timeout=self.timeout_s, source_address=source_address
                )
            try:
                conn.request(method, path, body=body, headers=headers)
                resp = conn.getresponse()
                payload = resp.read()
                return HttpResponse(
                    status=resp.status, headers=list(resp.getheaders()), body=payload
                )
            finally:
                conn.close()
        except (
            ConnectionError,
            ssl.SSLError,
            socket.timeout,
            TimeoutError,
            OSError,
            http.client.HTTPException,
        ) as exc:
            raise WireError(f"{method} {scheme}://{host}:{port}{path}: {exc}") from exc
