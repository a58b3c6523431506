"""TLS posture probing for raw listeners, plus the database checks built on it.

A posture probe performs up to three handshakes against one endpoint:

1. with the auditor's client certificate, to learn the negotiated version,
   cipher, and server identity;
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
import socket
import ssl
from dataclasses import dataclass
from typing import Optional

from cryptography import x509
from cryptography.x509.oid import NameOID

from .manifest import ComponentRole, Endpoint, TargetManifest
from .results import CheckResult, CheckStatus, fold, judged, unassessable

REQUIRED_TLS_VERSION = "TLSv1.3"
DEFAULT_AT_REST_MARKERS = (b"ISA_RECORD",)


class ClientCertDemand(enum.Enum):
    REQUIRED = "Required"
    OPTIONAL = "Optional"
    NOT_REQUESTED = "NotRequested"


@dataclass(frozen=True)
class TlsPosture:
    endpoint: Endpoint
    speaks_tls: bool
    negotiated_version: Optional[str] = None
    cipher_name: Optional[str] = None
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


def _handshake(
    endpoint: Endpoint,
    ctx: ssl.SSLContext,
    source_address: Optional[str],
    timeout_s: float,
    banner_wait_s: float,
) -> tuple[str, str, Optional[bytes], Optional[bytes]]:
    """Returns (version, cipher, peer_cert_der, banner). Raises
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
            cipher = (tls.cipher() or ("unknown",))[0]
            der = tls.getpeercert(binary_form=True)
            tls.settimeout(banner_wait_s)
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
            return version, cipher, der, banner
        finally:
            tls.close()
    finally:
        sock.close()


def _plaintext_peek(
    endpoint: Endpoint,
    source_address: Optional[str],
    timeout_s: float,
    banner_wait_s: float,
) -> Optional[bytes]:
    src = (source_address, 0) if source_address else None
    try:
        sock = socket.create_connection(
            (endpoint.host, endpoint.port), timeout=timeout_s, source_address=src
        )
    except OSError:
        return None
    try:
        sock.settimeout(banner_wait_s)
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
    *,
    ca_path: Optional[str] = None,
    client_cert: Optional[str] = None,
    client_key: Optional[str] = None,
    source_address: Optional[str] = None,
    timeout_s: float = 5.0,
    banner_wait_s: float = 0.4,
) -> TlsPosture:
    notes: list[str] = []
    try:
        version, cipher, der, banner_with = _handshake(
            endpoint,
            _client_context(ca_path, client_cert, client_key, max_tls12=False),
            source_address,
            timeout_s,
            banner_wait_s,
        )
    except _HandshakeRejected as exc:
        plain = _plaintext_peek(endpoint, source_address, timeout_s, banner_wait_s)
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
        _, _, _, banner_without = _handshake(
            endpoint,
            _client_context(ca_path, None, None, max_tls12=False),
            source_address,
            timeout_s,
            banner_wait_s,
        )
        anonymous_accepted = True
    except (_HandshakeRejected, OSError):
        anonymous_accepted = False
        banner_without = None

    if not anonymous_accepted:
        demand = ClientCertDemand.REQUIRED
    elif (
        client_cert
        and banner_with is not None
        and banner_without is not None
        and banner_with != banner_without
    ):
        # server serves anonymous peers but observably tracks peer identity
        demand = ClientCertDemand.OPTIONAL
    else:
        demand = ClientCertDemand.NOT_REQUESTED

    try:
        legacy_version, _, _, _ = _handshake(
            endpoint,
            _client_context(ca_path, client_cert, client_key, max_tls12=True),
            source_address,
            timeout_s,
            banner_wait_s,
        )
        accepts_legacy = True
        notes.append(f"legacy offer negotiated {legacy_version}")
    except (_HandshakeRejected, OSError):
        accepts_legacy = False

    return TlsPosture(
        endpoint=endpoint,
        speaks_tls=True,
        negotiated_version=version,
        cipher_name=cipher,
        client_cert_demand=demand,
        accepts_legacy_offer=accepts_legacy,
        server_cert_subject=_subject_cn(der),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Database checks
# ---------------------------------------------------------------------------


def _identity_paths(manifest: TargetManifest) -> tuple[Optional[str], Optional[str]]:
    client = manifest.oauth_client
    if client.certificate and client.key:
        return client.certificate, client.key
    return None, None


def check_db_transport(
    manifest: TargetManifest, timeout_s: float = 5.0
) -> CheckResult:
    db_nodes = manifest.by_role(ComponentRole.DB_NODE)
    if not db_nodes:
        return CheckResult(
            "DB-01", CheckStatus.SKIPPED, ["no database nodes declared"]
        )

    cert, key = _identity_paths(manifest)
    source = manifest.allowlist_sources[0] if manifest.allowlist_sources else None
    outcomes = []
    for comp in db_nodes:
        for endpoint in comp.endpoints:
            label = f"{comp.id} {endpoint.url()}"
            try:
                posture = probe_tls(
                    endpoint,
                    ca_path=manifest.ca_path,
                    client_cert=cert,
                    client_key=key,
                    source_address=source,
                    timeout_s=timeout_s,
                )
            except OSError as exc:
                outcomes.append(unassessable(
                    f"{label}: unreachable from this vantage ({exc})"))
                continue
            if not posture.speaks_tls:
                if posture.plaintext_banner is not None:
                    excerpt = posture.plaintext_banner[:40].decode(
                        "utf-8", errors="replace"
                    ).strip()
                    line = f"{label}: plaintext channel (read: {excerpt!r})"
                else:
                    line = f"{label}: no TLS service ({'; '.join(posture.notes)})"
                outcomes.append(judged(True, line, comp.id))
                continue
            problems = []
            if posture.negotiated_version != REQUIRED_TLS_VERSION:
                problems.append(
                    f"negotiated {posture.negotiated_version}; "
                    f"required {REQUIRED_TLS_VERSION}"
                )
            if posture.accepts_legacy_offer:
                problems.append("accepted a handshake offer capped at TLS 1.2")
            if posture.client_cert_demand is not ClientCertDemand.REQUIRED:
                problems.append(
                    "client certificate not required "
                    f"({posture.client_cert_demand.value})"
                )
            if problems:
                outcomes.append(judged(True, f"{label}: " + "; ".join(problems), comp.id))
            else:
                outcomes.append(judged(
                    False,
                    f"{label}: {posture.negotiated_version}, client certificate "
                    "required, legacy offers rejected",
                ))
    return fold("DB-01", outcomes)


def check_data_at_rest(
    manifest: TargetManifest,
    plaintext_markers: tuple[bytes, ...] = DEFAULT_AT_REST_MARKERS,
) -> list[CheckResult]:
    db_nodes = manifest.by_role(ComponentRole.DB_NODE)
    if not db_nodes:
        skipped = ["no database nodes declared"]
        return [
            CheckResult("DB-03", CheckStatus.SKIPPED, list(skipped)),
            CheckResult("DB-04", CheckStatus.SKIPPED, list(skipped)),
        ]

    inspectable = [c for c in db_nodes if c.storage_path]
    if manifest.mode != "introspective" or not inspectable:
        reason = (
            "stored bytes not inspectable from a remote vantage"
            if manifest.mode != "introspective"
            else "no storage path declared for any database node"
        )
        return [
            CheckResult("DB-03", CheckStatus.NOT_ASSESSABLE, [reason]),
            CheckResult("DB-04", CheckStatus.NOT_ASSESSABLE, [reason]),
        ]

    marker_names = ", ".join(m.decode("utf-8", errors="replace") for m in plaintext_markers)
    db03 = []
    for comp in inspectable:
        try:
            with open(comp.storage_path, "rb") as fh:
                blob = fh.read()
        except OSError:
            db03.append(unassessable(f"{comp.id}: declared storage path not readable"))
            continue
        hit = next((m for m in plaintext_markers if m in blob), None)
        if hit is not None:
            db03.append(judged(
                True,
                f"{comp.id}: plaintext marker "
                f"{hit.decode('utf-8', errors='replace')!r} found in stored bytes",
                comp.id,
            ))
        else:
            db03.append(judged(
                False,
                f"{comp.id}: stored bytes contain no plaintext markers "
                f"(checked: {marker_names})",
            ))

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
