"""Builds, starts and tears down a complete mock deployment.

One testbed is seven declared components on eight consecutive loopback
ports, plus a private CA and a client credential pair, generated once per
process, and a target manifest describing all of it. The TLS server
contexts are built once per process with that PKI, so the testbeds of one
process share them; they issue no session tickets, since the scanner never
resumes a session. Restricted services only accept connections from the
allowlisted source address (a second loopback address), which is how the
scanner's two network vantages differ.
"""

from __future__ import annotations

import functools
import json
import random
import secrets
import shutil
import socket
import ssl
import string
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..manifest import TargetManifest, parse_manifest
from . import tokens
from .certs import CertBundle, CertPaths, make_bundle, write_bundle
from .gateway import GatewayHandler, GatewayService
from .httpbase import Listener, TestbedHttpServer, server_context
from .logrepo import LogRepoHandler, LogRepoService
from .oauth_server import OAuthConfig, OAuthHandler, OAuthService, pbkdf2_line
from .rawlisteners import make_db_node, make_kms
from .store import IsaStore, write_at_rest
from .toggles import Switches, toggles_for_profile
from .webapps import AdminWebHandler, AdminWebService, PublicWebHandler, PublicWebService

HOST = "127.0.0.1"
ALLOWLISTED_SOURCE = "127.0.0.2"
PORT_SPAN = 8
CLIENT_ID = "auditor-client"

ENTITLED_SCOPES = ("utm.read", "utm.write", "logs.read", "logs.write")

_WRITE_BODY_GATEWAY = json.dumps(
    {
        "owner": "auditor",
        "area": "zone-z",
        "floor_m": 0,
        "ceiling_m": 60,
        "window": "2026-07-01T00:00Z/2026-07-01T01:00Z",
    }
)
_WRITE_BODY_LOGS = json.dumps(
    {
        "fields": {
            "timestamp": "2026-07-01T00:00:00Z",
            "actor_id": "auditor",
            "token_subject": "auditor",
            "action": "audit-append-probe",
            "resource": "audit",
            "outcome": "probe",
        }
    }
)


def _bindable(port: int) -> bool:
    try:
        with socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((HOST, port))
        return True
    except OSError:
        return False


def find_free_port_base() -> int:
    for _ in range(64):
        base = random.randrange(20480, 60000 - PORT_SPAN, 16)
        if all(_bindable(base + i) for i in range(PORT_SPAN)):
            return base
    raise RuntimeError("no free port range found")


@dataclass
class Testbed:
    switches: Switches
    port_base: int
    workdir: str
    manifest_path: str
    manifest_text: str
    manifest: TargetManifest
    client_secret: str
    cert_paths: CertPaths
    signing_keys: tokens.SigningKeys
    store: IsaStore = field(repr=False)
    _listeners: list[Listener] = field(default_factory=list, repr=False)
    _stopped: bool = False

    def port(self, offset: int) -> int:
        return self.port_base + offset

    def stop(self) -> None:
        """Wake every accept loop first, so that no listener waits for
        another to stop; then join and close each one, and the store."""
        if self._stopped:
            return
        self._stopped = True
        for listener in self._listeners:
            listener.wake()
        for listener in self._listeners:
            listener.stop()
        self.store.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


_URLSAFE_CLASSES = (
    string.ascii_lowercase, string.ascii_uppercase, string.digits, "-_",
)


def _strong_secret() -> str:
    """64 URL-safe characters that use every class of the alphabet, so a
    charset estimate from the characters seen always finds 64 symbols."""
    while True:
        secret = secrets.token_urlsafe(48)
        if all(set(secret) & set(chars) for chars in _URLSAFE_CLASSES):
            return secret


def _weak_secret() -> str:
    """Ten hex digits with a letter among them, so 16 symbols are seen."""
    while True:
        secret = secrets.token_hex(5)
        if set(secret) & set("abcdef"):
            return secret


@dataclass(frozen=True)
class _Credentials:
    bundle: CertBundle
    keys: tokens.SigningKeys
    strong_secret: str
    weak_secret: str
    https: ssl.SSLContext
    https_optional_client_cert: ssl.SSLContext  # the oauth-server's
    db_tls13: ssl.SSLContext
    db_tls12: ssl.SSLContext


@functools.cache
def _process_credentials() -> _Credentials:
    """The PKI, its parsed JWT key, the two client secrets and the four
    TLS server contexts built from that PKI: no toggle changes them, so one
    process builds them once for all its testbeds. A context keeps its key
    and certificates in memory, so the files it loads are removed at once.

    The strong secret's store line is stretched on a thread while the keys
    are generated; both release the GIL."""
    strong_secret = _strong_secret()
    with ThreadPoolExecutor(max_workers=1) as pool:
        stretched = pool.submit(pbkdf2_line, CLIENT_ID, strong_secret)
        bundle = make_bundle()
        stretched.result()
    jwt = (bundle.jwt_private_pem, bundle.jwt_public_pem, bundle.jwt_kid)
    with tempfile.TemporaryDirectory(prefix="utm-pki-") as scratch:
        paths = write_bundle(bundle, scratch)
        return _Credentials(
            bundle=bundle,
            keys=tokens.make_signing_keys(*jwt),
            strong_secret=strong_secret,
            weak_secret=_weak_secret(),
            https=server_context(paths),
            https_optional_client_cert=server_context(paths, ssl.CERT_OPTIONAL),
            db_tls13=server_context(paths, ssl.CERT_REQUIRED, ssl.TLSVersion.TLSv1_3),
            db_tls12=server_context(paths, ssl.CERT_REQUIRED, ssl.TLSVersion.TLSv1_2),
        )


def _manifest_text(
    *,
    port_base: int,
    workdir: Path,
    paths: CertPaths,
    client_secret: str,
    declared_encryption: str,
    declared_lifetime: int,
) -> str:
    p = port_base
    return f"""\
# generated by the testbed harness; describes the running mock deployment
[target]
mode = introspective
audit_fixture = true
allowlist = {ALLOWLISTED_SOURCE}
ca = {paths.ca_cert}

[client]
client_id = {CLIENT_ID}
client_secret = {client_secret}
certificate = {paths.client_cert}
key = {paths.client_key}
entitled_scopes = {' '.join(ENTITLED_SCOPES)}
grant_types = client_credentials authorization_code

[component oauth-server]
role = OAuthServer
endpoints = https://{HOST}:{p}
token_path = /token
authorize_path = /authorize
jwks_path = /jwks.json
declared_token_lifetime_s = {declared_lifetime}
storage_path = {workdir / 'oauth_clients.txt'}

[component gateway]
role = HttpsGateway
endpoints = https://{HOST}:{p + 1}
audience = gateway
read = GET /isa/isa-001 scope=utm.read
write = PUT /isa/audit-probe scope=utm.write
write_body = {_WRITE_BODY_GATEWAY}
inject = GET /isa param=area baseline=zone-a

[component web-public]
role = WebAppPublic
endpoints = http://{HOST}:{p + 2}

[component web-admin]
role = WebAppAdmin
endpoints = https://{HOST}:{p + 3}

[component log-repo]
role = LogRepository
endpoints = https://{HOST}:{p + 4}
audience = logs
read = GET /records scope=logs.read
write = POST /records scope=logs.write
write_body = {_WRITE_BODY_LOGS}

[component kms]
role = KeyManagement
endpoints = tcp://{HOST}:{p + 5}

[component db-cluster]
role = DbNode
endpoints = tcp://{HOST}:{p + 6} tcp://{HOST}:{p + 7}
declared_encryption_at_rest = {declared_encryption}
storage_path = {workdir / 'isa_store.bin'}
"""


def start_testbed(
    toggles=(),
    *,
    profile: Optional[str] = None,
    port_base: Optional[int] = None,
) -> Testbed:
    names = set(toggles)
    if profile is not None:
        names |= toggles_for_profile(profile)
    switches = Switches.named(names)

    last_error: Optional[Exception] = None
    for _ in range(3):
        base = port_base if port_base is not None else find_free_port_base()
        try:
            return _start_once(switches, base)
        except OSError as exc:
            last_error = exc
            if port_base is not None:
                break
    raise RuntimeError(f"could not start testbed: {last_error}")


def _start_once(switches: Switches, base: int) -> Testbed:
    workdir = Path(tempfile.mkdtemp(prefix="utm-testbed-"))
    try:
        return _build(switches, base, workdir)
    except Exception:
        shutil.rmtree(workdir, ignore_errors=True)
        raise


def _build(switches: Switches, base: int, workdir: Path) -> Testbed:
    creds = _process_credentials()
    paths = write_bundle(creds.bundle, str(workdir / "pki"))
    client_secret = (
        creds.weak_secret if switches.weak_secret else creds.strong_secret
    )

    # at-rest persistence for the airspace store: the declared algorithm
    # and the stored bytes follow one toggle each, so the two compose
    declared_encryption = "AES-128" if switches.at_rest_aes128 else "AES-256"
    if switches.no_at_rest_encryption:
        at_rest_key = None  # plaintext: the declaration lies
    else:
        at_rest_key = secrets.token_bytes(16 if switches.at_rest_aes128 else 32)
    storage_path = workdir / "isa_store.bin"
    isa_store = IsaStore()

    def persist() -> None:
        write_at_rest(isa_store.snapshot(), str(storage_path), at_rest_key)

    persist()

    oauth_service = OAuthService(
        creds.keys,
        OAuthConfig(
            client_id=CLIENT_ID,
            client_secret=client_secret,
            entitled_scopes=frozenset(ENTITLED_SCOPES),
            switches=switches,
        ),
    )
    oauth_service.write_secret_store(str(workdir / "oauth_clients.txt"))
    declared_lifetime = oauth_service.issuer_policy.lifetime_s

    gateway_service = GatewayService(isa_store, creds.keys, switches, persist)
    logrepo_service = LogRepoService(creds.keys, switches)
    admin_service = AdminWebService(switches)

    restricted_allowlist = frozenset({ALLOWLISTED_SOURCE})
    db_allowlist = None if switches.expose_dbnode else restricted_allowlist
    if switches.plaintext_dbnode:
        db_tls = None
    elif switches.tls12_dbnode:
        db_tls = creds.db_tls12
    else:
        db_tls = creds.db_tls13

    listeners: list[Listener] = []

    def add_http(offset, handler, service, *, tls=None, allowlist=None):
        listeners.append(TestbedHttpServer(
            (HOST, base + offset), handler, service,
            tls_context=tls, allowlist=allowlist,
        ))

    try:
        add_http(
            0, OAuthHandler, oauth_service,
            tls=creds.https_optional_client_cert,
        )
        add_http(1, GatewayHandler, gateway_service, tls=creds.https)
        add_http(2, PublicWebHandler, PublicWebService())
        add_http(
            3, AdminWebHandler, admin_service,
            tls=creds.https, allowlist=restricted_allowlist,
        )
        add_http(
            4, LogRepoHandler, logrepo_service,
            tls=creds.https, allowlist=restricted_allowlist,
        )
        listeners.append(
            make_kms(HOST, base + 5, allowlist=restricted_allowlist)
        )
        for offset in (6, 7):
            listeners.append(
                make_db_node(
                    HOST, base + offset, db_tls, allowlist=db_allowlist
                )
            )
    except OSError:
        for listener in listeners:
            listener.stop()
        isa_store.close()
        raise

    # Every listener bound and listened in its constructor: from here on a
    # connect waits in the backlog until the listener's thread accepts it.
    for listener in listeners:
        listener.start()

    manifest_text = _manifest_text(
        port_base=base,
        workdir=workdir,
        paths=paths,
        client_secret=client_secret,
        declared_encryption=declared_encryption,
        declared_lifetime=declared_lifetime,
    )
    manifest_path = workdir / "testbed.manifest"
    manifest_path.write_text(manifest_text, encoding="utf-8")
    manifest = parse_manifest(manifest_text.encode())

    return Testbed(
        switches=switches,
        port_base=base,
        workdir=str(workdir),
        manifest_path=str(manifest_path),
        manifest_text=manifest_text,
        manifest=manifest,
        client_secret=client_secret,
        cert_paths=paths,
        signing_keys=creds.keys,
        store=isa_store,
        _listeners=listeners,
    )
