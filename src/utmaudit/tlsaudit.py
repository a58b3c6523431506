"""TLS posture probing for raw listeners, plus the database checks built on it.

A posture probe performs up to three handshakes against one endpoint:

1. with the auditor's client certificate, to learn the negotiated version;
2. without any client certificate, to learn whether the server tolerates
   anonymous peers (under TLS 1.3 the certificate_required alert only
   arrives on the first read after the handshake, so the probe must read);
3. with the offered maximum capped at TLS 1.2: acceptance of that offer
   proves the server permits pre-1.3 protocol versions regardless of what
   it negotiates with modern clients.

If the first handshake fails outright the probe falls back to a plain TCP
read; any bytes received mean the listener speaks plaintext. Connections
come from `wire.dial`, and each handshake asks `wire.client_context` for its
context, which it builds once per process for the same credential bytes. A
connect that fails, on any of the three, ends the probe: it is no rejected
handshake.
"""

from __future__ import annotations

import socket
import ssl
from dataclasses import dataclass
from typing import Optional

from .manifest import ComponentRole, Endpoint, TargetManifest, vantage
from .results import CheckResult, Outcome, attempt, fold, judged, unassessable
from .wire import client_context, dial

REQUIRED_TLS_VERSION = "TLSv1.3"
AT_REST_MARKERS = (b"ISA_RECORD",)
# How long a probe waits for a listener's first bytes after connecting.
BANNER_WAIT_S = 0.4


@dataclass(frozen=True)
class TlsPosture:
    endpoint: Endpoint
    speaks_tls: bool
    negotiated_version: Optional[str] = None
    client_cert_required: Optional[bool] = None
    accepts_legacy_offer: Optional[bool] = None
    plaintext_banner: Optional[bytes] = None
    notes: tuple[str, ...] = ()


class _HandshakeRejected(Exception):
    pass


def _handshake(
    endpoint: Endpoint,
    ctx: ssl.SSLContext,
    source: Optional[str],
    timeout_s: float,
) -> str:
    """Returns the negotiated version. Raises _HandshakeRejected when the
    server refuses the offered parameters, including post-handshake
    rejection surfaced on first read."""
    sock = dial(endpoint.host, endpoint.port, source, timeout_s)
    try:
        try:
            tls = ctx.wrap_socket(sock, server_hostname=None)
        except (ssl.SSLError, ConnectionError) as exc:
            raise _HandshakeRejected(str(exc)) from exc
        try:
            version = tls.version() or "unknown"
            tls.settimeout(BANNER_WAIT_S)
            try:
                if tls.recv(256) == b"":
                    raise _HandshakeRejected("connection closed before any data")
            except (socket.timeout, TimeoutError):
                pass  # a silent peer still completed the handshake
            except (ssl.SSLError, ConnectionError) as exc:
                # e.g. certificate_required delivered after the handshake
                raise _HandshakeRejected(str(exc)) from exc
            return version
        finally:
            tls.close()
    finally:
        sock.close()


def _plaintext_peek(
    endpoint: Endpoint,
    source: Optional[str],
    timeout_s: float,
) -> Optional[bytes]:
    try:
        sock = dial(endpoint.host, endpoint.port, source, timeout_s)
    except OSError:
        return None
    try:
        sock.settimeout(BANNER_WAIT_S)
        try:
            data = sock.recv(256)
        except (socket.timeout, TimeoutError, OSError):
            return None
        return data or None
    finally:
        sock.close()


def probe_tls(
    endpoint: Endpoint,
    ca_path: Optional[str] = None,
    cert: Optional[str] = None,
    key: Optional[str] = None,
    *,
    source: Optional[str] = None,
    timeout_s: float = 5.0,
) -> TlsPosture:
    notes: list[str] = []
    try:
        version = _handshake(
            endpoint, client_context(ca_path, cert, key), source, timeout_s
        )
    except _HandshakeRejected as exc:
        plain = _plaintext_peek(endpoint, source, timeout_s)
        if plain is not None:
            return TlsPosture(
                endpoint=endpoint,
                speaks_tls=False,
                plaintext_banner=plain,
                notes=("listener answered in plaintext",),
            )
        return TlsPosture(
            endpoint=endpoint,
            speaks_tls=False,
            notes=(f"handshake rejected: {exc}",),
        )

    # anonymous handshake: must read to surface deferred rejection
    try:
        _handshake(endpoint, client_context(ca_path), source, timeout_s)
        anonymous_rejected = False
    except _HandshakeRejected:
        anonymous_rejected = True

    try:
        legacy_version = _handshake(
            endpoint, client_context(ca_path, cert, key, tls12_max=True),
            source, timeout_s,
        )
        accepts_legacy = True
        notes.append(f"legacy offer negotiated {legacy_version}")
    except _HandshakeRejected:
        accepts_legacy = False

    return TlsPosture(
        endpoint=endpoint,
        speaks_tls=True,
        negotiated_version=version,
        client_cert_required=anonymous_rejected,
        accepts_legacy_offer=accepts_legacy,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Database checks
# ---------------------------------------------------------------------------


def _posture_outcome(comp, label: str, posture: TlsPosture) -> Outcome:
    if not posture.speaks_tls:
        if posture.plaintext_banner is not None:
            excerpt = posture.plaintext_banner[:40].decode("utf-8", errors="replace").strip()
            return judged(True, f"{label}: plaintext channel (read: {excerpt!r})", comp.id)
        return judged(True, f"{label}: no TLS service ({'; '.join(posture.notes)})", comp.id)
    problems = []
    if posture.negotiated_version != REQUIRED_TLS_VERSION:
        problems.append(
            f"negotiated {posture.negotiated_version}; required {REQUIRED_TLS_VERSION}"
        )
    if posture.accepts_legacy_offer:
        problems.append("accepted a handshake offer capped at TLS 1.2")
    if not posture.client_cert_required:
        problems.append("client certificate not required")
    if problems:
        return judged(True, f"{label}: " + "; ".join(problems), comp.id)
    return judged(False, f"{label}: {posture.negotiated_version}, client certificate "
                  "required, legacy offers rejected")


def check_db_transport(
    manifest: TargetManifest, timeout_s: float = 5.0
) -> CheckResult:
    client = manifest.oauth_client
    cert, key = (client.certificate, client.key) if client.has_certificate() else (None, None)
    # Each handshake asks client_context inside the attempt, so a CA or key
    # file that cannot be read gives every endpoint its NotAssessable line.
    outcomes = []
    for comp in manifest.by_role(ComponentRole.DB_NODE):
        for endpoint in comp.endpoints:
            label = f"{comp.id} {endpoint.url()}"
            outcomes += attempt(label, lambda: [_posture_outcome(comp, label, probe_tls(
                endpoint, manifest.ca_path, cert, key, timeout_s=timeout_s,
                source=vantage(comp, manifest.allowlisted_source),
            ))])
    return fold("DB-01", outcomes)


def _stored_bytes(comp) -> list[Outcome]:
    """DB-03's outcome for one node's declared storage file."""
    with open(comp.storage_path, "rb") as fh:
        blob = fh.read()
    hit = next((m for m in AT_REST_MARKERS if m in blob), None)
    if hit is not None:
        return [judged(True, f"{comp.id}: plaintext marker "
                       f"{hit.decode('utf-8', errors='replace')!r} found in stored bytes",
                       comp.id)]
    marker_names = ", ".join(m.decode("utf-8", errors="replace") for m in AT_REST_MARKERS)
    return [judged(False, f"{comp.id}: stored bytes contain no plaintext markers "
                   f"(checked: {marker_names})")]


def check_data_at_rest(manifest: TargetManifest) -> list[CheckResult]:
    inspectable = [c for c in manifest.by_role(ComponentRole.DB_NODE) if c.storage_path]
    if manifest.mode != "introspective" or not inspectable:
        reason = (
            "stored bytes not inspectable from a remote vantage"
            if manifest.mode != "introspective"
            else "no storage path declared for any database node"
        )
        return [fold(check_id, [unassessable(reason)]) for check_id in ("DB-03", "DB-04")]

    db03 = []
    for comp in inspectable:
        db03 += attempt(f"{comp.id} declared storage path", lambda: _stored_bytes(comp))

    db04 = []
    for comp in inspectable:
        declared = comp.declared_encryption_at_rest
        if declared is None:
            db04.append(judged(
                True,
                f"{comp.id}: no at-rest encryption algorithm declared; required AES-256",
                comp.id,
            ))
        elif declared.strip().casefold() != "aes-256":
            db04.append(judged(
                True,
                f"{comp.id}: declared at-rest algorithm {declared}; required AES-256",
                comp.id,
            ))
        else:
            db04.append(judged(
                False,
                f"{comp.id}: declared at-rest algorithm {declared} meets requirement",
            ))
    return [fold("DB-03", db03), fold("DB-04", db04)]
