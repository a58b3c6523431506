"""TLS posture probing for raw listeners, plus the database checks built on it.

A posture probe performs up to three handshakes against one endpoint:

1. with the auditor's client certificate, to learn the negotiated version
   and server identity;
2. without any client certificate, to learn whether the server tolerates
   anonymous peers (under TLS 1.3 the certificate_required alert only
   arrives on the first read after the handshake, so the probe must read);
3. with the offered maximum capped at TLS 1.2: acceptance of that offer
   proves the server permits pre-1.3 protocol versions regardless of what
   it negotiates with modern clients.

If the first handshake fails outright the probe falls back to a plain TCP
read; any bytes received mean the listener speaks plaintext.
"""

from __future__ import annotations

import enum
import functools
import socket
import ssl
from dataclasses import dataclass
from typing import Optional

from cryptography import x509
from cryptography.x509.oid import NameOID

from .manifest import ComponentRole, Endpoint, TargetManifest
from .results import CheckResult, Outcome, attempt, fold, judged, unassessable

REQUIRED_TLS_VERSION = "TLSv1.3"
AT_REST_MARKERS = (b"ISA_RECORD",)
# How long a probe waits for a listener's first bytes after connecting.
BANNER_WAIT_S = 0.4


class ClientCertDemand(enum.Enum):
    REQUIRED = "Required"
    OPTIONAL = "Optional"
    NOT_REQUESTED = "NotRequested"


@dataclass(frozen=True)
class TlsPosture:
    endpoint: Endpoint
    speaks_tls: bool
    negotiated_version: Optional[str] = None
    client_cert_demand: Optional[ClientCertDemand] = None
    accepts_legacy_offer: Optional[bool] = None
    server_cert_subject: Optional[str] = None
    plaintext_banner: Optional[bytes] = None
    notes: tuple[str, ...] = ()


class _HandshakeRejected(Exception):
    pass


def _client_context(
    ca_path: Optional[str],
    client_cert: Optional[str],
    client_key: Optional[str],
    max_tls12: bool,
) -> ssl.SSLContext:
    ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    ctx.check_hostname = False
    if ca_path:
        ctx.load_verify_locations(cafile=ca_path)
    else:
        ctx.verify_mode = ssl.CERT_NONE
    if client_cert and client_key:
        ctx.load_cert_chain(certfile=client_cert, keyfile=client_key)
    if max_tls12:
        ctx.maximum_version = ssl.TLSVersion.TLSv1_2
    return ctx


@dataclass(frozen=True)
class ClientContexts:
    """The three client contexts of a posture probe, one per handshake.
    Built once per sweep: each build reads the CA and key files."""

    identified: ssl.SSLContext
    anonymous: ssl.SSLContext
    legacy: ssl.SSLContext
    presents_certificate: bool

    @staticmethod
    def build(
        ca_path: Optional[str] = None,
        client_cert: Optional[str] = None,
        client_key: Optional[str] = None,
    ) -> "ClientContexts":
        return ClientContexts(
            identified=_client_context(ca_path, client_cert, client_key, max_tls12=False),
            anonymous=_client_context(ca_path, None, None, max_tls12=False),
            legacy=_client_context(ca_path, client_cert, client_key, max_tls12=True),
            presents_certificate=bool(client_cert and client_key),
        )


def _handshake(
    endpoint: Endpoint,
    ctx: ssl.SSLContext,
    source_address: Optional[str],
    timeout_s: float,
) -> tuple[str, Optional[bytes], Optional[bytes]]:
    """Returns (version, peer_cert_der, banner). Raises
    _HandshakeRejected when the server refuses the offered parameters,
    including post-handshake rejection surfaced on first read."""
    src = (source_address, 0) if source_address else None
    sock = socket.create_connection(
        (endpoint.host, endpoint.port), timeout=timeout_s, source_address=src
    )
    try:
        try:
            tls = ctx.wrap_socket(sock, server_hostname=None)
        except (ssl.SSLError, ConnectionError) as exc:
            raise _HandshakeRejected(str(exc)) from exc
        try:
            version = tls.version() or "unknown"
            der = tls.getpeercert(binary_form=True)
            tls.settimeout(BANNER_WAIT_S)
            try:
                banner: Optional[bytes] = tls.recv(256)
            except (socket.timeout, TimeoutError):
                banner = None
            except ssl.SSLError as exc:
                # e.g. certificate_required delivered after the handshake
                raise _HandshakeRejected(str(exc)) from exc
            except ConnectionError as exc:
                raise _HandshakeRejected(str(exc)) from exc
            if banner == b"":
                raise _HandshakeRejected("connection closed before any data")
            return version, der, banner
        finally:
            tls.close()
    finally:
        sock.close()


def _plaintext_peek(
    endpoint: Endpoint,
    source_address: Optional[str],
    timeout_s: float,
) -> Optional[bytes]:
    src = (source_address, 0) if source_address else None
    try:
        sock = socket.create_connection(
            (endpoint.host, endpoint.port), timeout=timeout_s, source_address=src
        )
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


def _subject_cn(der: Optional[bytes]) -> Optional[str]:
    if not der:
        return None
    try:
        cert = x509.load_der_x509_certificate(der)
        attrs = cert.subject.get_attributes_for_oid(NameOID.COMMON_NAME)
        return attrs[0].value if attrs else cert.subject.rfc4514_string()
    except Exception:
        return None


def probe_tls(
    endpoint: Endpoint,
    contexts: ClientContexts,
    *,
    source_address: Optional[str] = None,
    timeout_s: float = 5.0,
) -> TlsPosture:
    notes: list[str] = []
    try:
        version, der, banner_with = _handshake(
            endpoint, contexts.identified, source_address, timeout_s
        )
    except _HandshakeRejected as exc:
        plain = _plaintext_peek(endpoint, source_address, timeout_s)
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
        _, _, banner_without = _handshake(
            endpoint, contexts.anonymous, source_address, timeout_s
        )
        anonymous_accepted = True
    except (_HandshakeRejected, OSError):
        anonymous_accepted = False
        banner_without = None

    if not anonymous_accepted:
        demand = ClientCertDemand.REQUIRED
    elif (
        contexts.presents_certificate
        and banner_with is not None
        and banner_without is not None
        and banner_with != banner_without
    ):
        # server serves anonymous peers but observably tracks peer identity
        demand = ClientCertDemand.OPTIONAL
    else:
        demand = ClientCertDemand.NOT_REQUESTED

    try:
        legacy_version, _, _ = _handshake(
            endpoint, contexts.legacy, source_address, timeout_s
        )
        accepts_legacy = True
        notes.append(f"legacy offer negotiated {legacy_version}")
    except (_HandshakeRejected, OSError):
        accepts_legacy = False

    return TlsPosture(
        endpoint=endpoint,
        speaks_tls=True,
        negotiated_version=version,
        client_cert_demand=demand,
        accepts_legacy_offer=accepts_legacy,
        server_cert_subject=_subject_cn(der),
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
    if posture.client_cert_demand is not ClientCertDemand.REQUIRED:
        problems.append(
            f"client certificate not required ({posture.client_cert_demand.value})"
        )
    if problems:
        return judged(True, f"{label}: " + "; ".join(problems), comp.id)
    return judged(False, f"{label}: {posture.negotiated_version}, client certificate "
                  "required, legacy offers rejected")


def check_db_transport(
    manifest: TargetManifest, timeout_s: float = 5.0
) -> CheckResult:
    client = manifest.oauth_client
    cert, key = (client.certificate, client.key) if client.has_certificate() else (None, None)
    # Built on first use, inside the attempt, so a CA or key file that
    # cannot be read gives every endpoint its NotAssessable line. Not cached
    # past this sweep: the next scan reads the files again.
    contexts = functools.cache(lambda: ClientContexts.build(manifest.ca_path, cert, key))
    outcomes = []
    for comp in manifest.by_role(ComponentRole.DB_NODE):
        for endpoint in comp.endpoints:
            label = f"{comp.id} {endpoint.url()}"
            outcomes += attempt(label, lambda: [_posture_outcome(comp, label, probe_tls(
                endpoint, contexts(), source_address=manifest.allowlisted_source,
                timeout_s=timeout_s,
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
