"""Builds, starts and tears down a complete mock deployment.

One testbed is seven declared components on eight consecutive loopback
ports, plus a private CA and a client credential pair, generated once per
process, and a target manifest describing all of it. Restricted services
only accept connections from the allowlisted source address (a second
loopback address), which is how the scanner's two network vantages differ.
"""

from __future__ import annotations

import concurrent.futures
import functools
import json
import random
import secrets
import shutil
import socket
import string
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..manifest import TargetManifest, parse_manifest
from . import tokens
from .certs import CertBundle, CertPaths, make_bundle, write_bundle
from .gateway import GatewayHandler, GatewayService
from .httpbase import TestbedHttpServer, https_context
from .logrepo import LogRepoHandler, LogRepoService
from .oauth_server import OAuthConfig, OAuthHandler, OAuthService
from .rawlisteners import RawListener, make_db_node, make_kms
from .store import IsaStore, write_at_rest
from .toggles import validate_toggles, toggles_for_profile
from .webapps import AdminWebHandler, AdminWebService, PublicWebHandler, PublicWebService

HOST = "127.0.0.1"
ALLOWLISTED_SOURCE = "127.0.0.2"
PORT_SPAN = 8
# How often an idle HTTP server looks for a shutdown request; bounds stop().
HTTP_POLL_INTERVAL_S = 0.05

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
    toggles: frozenset[str]
    port_base: int
    workdir: str
    manifest_path: str
    manifest_text: str
    manifest: TargetManifest
    client_secret: str
    cert_paths: CertPaths
    signing_keys: tokens.SigningKeys
    _http_servers: list = field(default_factory=list, repr=False)
    _raw_listeners: list[RawListener] = field(default_factory=list, repr=False)
    _threads: list[threading.Thread] = field(default_factory=list, repr=False)
    _stopped: bool = False

    def port(self, offset: int) -> int:
        return self.port_base + offset

    def stop(self) -> None:
        """Stop every server and listener at once, so teardown takes one
        poll interval rather than the sum of them."""
        if self._stopped:
            return
        self._stopped = True
        stoppers = [
            functools.partial(_stop_http, server) for server in self._http_servers
        ] + [listener.stop for listener in self._raw_listeners]
        with concurrent.futures.ThreadPoolExecutor(len(stoppers)) as pool:
            list(pool.map(lambda stop: stop(), stoppers))
        for thread in self._threads:
            thread.join(timeout=3)
        shutil.rmtree(self.workdir, ignore_errors=True)


def _stop_http(server: TestbedHttpServer) -> None:
    try:
        server.shutdown()
        server.server_close()
    except OSError:
        pass


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


@functools.cache
def _process_credentials() -> tuple[CertBundle, tokens.SigningKeys, str]:
    """The PKI, its parsed JWT key and the strong client secret: no toggle
    changes them, so one process builds them once for all its testbeds."""
    bundle = make_bundle()
    jwt = (bundle.jwt_private_pem, bundle.jwt_public_pem, bundle.jwt_kid)
    return bundle, tokens.make_signing_keys(*jwt), _strong_secret()


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
client_id = auditor-client
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


def _wait_ready(ports: list[int], timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    for port in ports:
        while True:
            try:
                with socket.create_connection((HOST, port), timeout=0.5):
                    break
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError(f"testbed port {port} never came up")
                time.sleep(0.05)


def start_testbed(
    toggles=(),
    *,
    profile: Optional[str] = None,
    port_base: Optional[int] = None,
) -> Testbed:
    chosen = set(validate_toggles(toggles))
    if profile is not None:
        chosen |= toggles_for_profile(profile)
    chosen = frozenset(chosen)

    last_error: Optional[Exception] = None
    for _ in range(3):
        base = port_base if port_base is not None else find_free_port_base()
        try:
            return _start_once(chosen, base)
        except OSError as exc:
            last_error = exc
            if port_base is not None:
                break
    raise RuntimeError(f"could not start testbed: {last_error}")


def _start_once(chosen: frozenset[str], base: int) -> Testbed:
    workdir = Path(tempfile.mkdtemp(prefix="utm-testbed-"))
    try:
        return _build(chosen, base, workdir)
    except Exception:
        shutil.rmtree(workdir, ignore_errors=True)
        raise


def _build(chosen: frozenset[str], base: int, workdir: Path) -> Testbed:
    bundle, keys, strong_secret = _process_credentials()
    paths = write_bundle(bundle, str(workdir / "pki"))
    client_secret = _weak_secret() if "weak-secret" in chosen else strong_secret

    # at-rest persistence for the airspace store
    if "no-at-rest-encryption" in chosen:
        cipher, at_rest_key = "plaintext", None
        declared_encryption = "AES-256"  # the deployment lies; stored bytes tell
    elif "at-rest-aes128" in chosen:
        cipher, at_rest_key = "aes-128-gcm", secrets.token_bytes(16)
        declared_encryption = "AES-128"
    else:
        cipher, at_rest_key = "aes-256-gcm", secrets.token_bytes(32)
        declared_encryption = "AES-256"
    storage_path = workdir / "isa_store.bin"
    isa_store = IsaStore()

    def persist() -> None:
        write_at_rest(
            isa_store.snapshot(), str(storage_path), cipher=cipher, key=at_rest_key
        )

    persist()

    oauth_service = OAuthService(
        keys,
        OAuthConfig(
            client_id="auditor-client",
            client_secret=client_secret,
            entitled_scopes=frozenset(ENTITLED_SCOPES),
            toggles=chosen,
            audit_fixture=True,
        ),
    )
    oauth_service.write_secret_store(str(workdir / "oauth_clients.txt"))
    declared_lifetime = oauth_service.issuer_policy.lifetime_s

    def validator(audience: str) -> tokens.ValidatorPolicy:
        return tokens.ValidatorPolicy(
            expected_audience=audience,
            accept_none_alg="accept-none-alg" in chosen,
            accept_alg_confusion="accept-alg-confusion" in chosen,
            skip_signature_check="skip-signature-check" in chosen,
            accept_expired="accept-expired" in chosen,
            check_scope="no-scope-check" not in chosen,
            check_audience="no-audience-check" not in chosen,
            hs256_default="weak-alg-hs256-default" in chosen,
        )

    gateway_service = GatewayService(
        isa_store,
        keys,
        validator("gateway"),
        concat_queries="string-concat-query" in chosen,
        persist=persist,
    )
    logrepo_service = LogRepoService(keys, validator("logs"), toggles=chosen)
    admin_service = AdminWebService(
        insecure_cookie_flags="insecure-cookie-flags" in chosen
    )

    restricted_allowlist = frozenset({ALLOWLISTED_SOURCE})
    db_allowlist = (
        None if "expose-dbnode" in chosen else restricted_allowlist
    )

    http_servers = []
    threads = []

    def add_http(offset, handler, service, *, tls=None, allowlist=None):
        server = TestbedHttpServer(
            (HOST, base + offset), handler, service,
            tls_context=tls, allowlist=allowlist,
        )
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": HTTP_POLL_INTERVAL_S},
            name=f"http-{base + offset}",
            daemon=True,
        )
        http_servers.append(server)
        threads.append(thread)
        return server

    raw_listeners = []
    try:
        add_http(
            0, OAuthHandler, oauth_service,
            tls=https_context(paths, client_cert_mode="optional"),
        )
        add_http(1, GatewayHandler, gateway_service, tls=https_context(paths))
        add_http(2, PublicWebHandler, PublicWebService())
        add_http(
            3, AdminWebHandler, admin_service,
            tls=https_context(paths), allowlist=restricted_allowlist,
        )
        add_http(
            4, LogRepoHandler, logrepo_service,
            tls=https_context(paths), allowlist=restricted_allowlist,
        )
        raw_listeners.append(
            make_kms(HOST, base + 5, allowlist=restricted_allowlist)
        )
        for offset in (6, 7):
            raw_listeners.append(
                make_db_node(
                    HOST, base + offset, paths,
                    plaintext="plaintext-dbnode" in chosen,
                    tls12_only="tls12-dbnode" in chosen,
                    allowlist=db_allowlist,
                )
            )
    except OSError:
        for server in http_servers:
            server.server_close()
        for listener in raw_listeners:
            listener.stop()
        raise

    for thread in threads:
        thread.start()
    for listener in raw_listeners:
        listener.start()
    _wait_ready([base + i for i in range(PORT_SPAN)])

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
        toggles=chosen,
        port_base=base,
        workdir=str(workdir),
        manifest_path=str(manifest_path),
        manifest_text=manifest_text,
        manifest=manifest,
        client_secret=client_secret,
        cert_paths=paths,
        signing_keys=keys,
        _http_servers=http_servers,
        _raw_listeners=raw_listeners,
        _threads=threads,
    )
