import ast
import contextlib
import dataclasses
import hashlib
import json
import os
import pathlib
import re
import socket
import ssl
import threading

import pytest
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import rsa

from utmaudit import wire
from utmaudit.engine import run_audit
from utmaudit.manifest import ComponentRole
from utmaudit.oauthaudit import check_oauth, estimate_secret_strength
from utmaudit.results import CheckStatus
from utmaudit.sqliprobe import load_corpus
from utmaudit.testbed import harness, httpbase, tokens
from utmaudit.testbed.certs import write_bundle
from utmaudit.testbed.harness import PORT_SPAN, find_free_port_base, start_testbed
from utmaudit.testbed.rawlisteners import RawListener, make_kms
from utmaudit.testbed.store import IsaStore, QueryError
from utmaudit.testbed.toggles import (
    PROFILES,
    TOGGLES,
    Switches,
    UnknownToggleError,
    load_matrix,
    toggles_for_profile,
)
from utmaudit.tlsaudit import check_db_transport
from utmaudit.wire import HttpClient, WireError


def _client(tb):
    return HttpClient(
        ca_path=tb.manifest.ca_path,
        client_cert=tb.manifest.oauth_client.certificate,
        client_key=tb.manifest.oauth_client.key,
        allowlisted_source="127.0.0.2",
    )


def _mint(tb, http, scope, audience, **extra):
    form = {
        "grant_type": "client_credentials",
        "client_id": "auditor-client",
        "client_secret": tb.client_secret,
        "scope": scope,
        "audience": audience,
    }
    form.update(extra)
    resp = http.request(
        "POST",
        f"https://127.0.0.1:{tb.port(0)}/token",
        form=form,
        present_client_cert=True,
    )
    assert resp.status == 200, resp.body
    return resp.json()["access_token"]


@pytest.fixture(scope="module")
def secure():
    tb = start_testbed()
    yield tb
    tb.stop()


# The golden configs, their file names and the ac3 order follow this order.
_TOGGLE_ORDER = (
    "expose-dbnode",
    "plaintext-dbnode",
    "tls12-dbnode",
    "string-concat-query",
    "no-at-rest-encryption",
    "at-rest-aes128",
    "no-client-cert-binding",
    "over-scoped-profile",
    "weak-secret",
    "plaintext-secret-store",
    "enable-password-grant",
    "missing-csrf-state",
    "long-expiry",
    "accept-expired",
    "weak-alg-hs256-default",
    "expose-private-key",
    "jwks-private-fields",
    "skip-signature-check",
    "accept-none-alg",
    "accept-alg-confusion",
    "no-scope-check",
    "no-audience-check",
    "insecure-cookie-flags",
    "coarse-logs",
    "allow-log-overwrite",
    "allow-log-delete",
    "broken-hash-chain",
    "public-log-read",
)


def _fields_on(switches):
    return [f.name for f in dataclasses.fields(switches) if getattr(switches, f.name)]


def test_toggle_registry_is_complete(monkeypatch):
    assert TOGGLES == _TOGGLE_ORDER
    matrix = load_matrix()
    assert set(matrix) == set(TOGGLES)
    covered = {check for checks in matrix.values() for check in checks}
    # every check except the two without a misconfiguration analogue
    assert "NET-02" not in covered
    assert "WEB-01" not in covered
    assert len(covered) == 25

    assert _fields_on(Switches()) == []
    for name in TOGGLES:
        assert _fields_on(Switches.named([name])) == [name.replace("-", "_")]

    def bind(*args, **kwargs):
        raise AssertionError("a port was bound for an unknown toggle")

    monkeypatch.setattr(harness, "find_free_port_base", bind)
    monkeypatch.setattr(harness, "_start_once", bind)
    with pytest.raises(UnknownToggleError, match="^unknown toggles: no-such-toggle$"):
        start_testbed(["weak-secret", "no-such-toggle"])


def test_no_toggle_name_is_spelt_outside_the_registry():
    """A service reads its switch by attribute: a toggle name spelt as a
    string elsewhere in the testbed could drift and silently read as off."""
    testbed_dir = pathlib.Path(harness.__file__).parent
    stray = [
        (path.name, node.lineno, node.value)
        for path in sorted(testbed_dir.glob("*.py"))
        if path.name != "toggles.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value in TOGGLES
    ]
    assert stray == []


def test_server_contexts_are_built_only_with_the_process_credentials():
    """Only server_context makes an SSLContext in the testbed, and only
    harness._process_credentials calls it, so no testbed start builds a
    server context or reads a key file."""
    builders = {"server_context"}
    stray = []
    for path in sorted(pathlib.Path(harness.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # ast.walk visits outer functions first, so the innermost name wins
        function = {
            inner: node.name
            for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            called = getattr(node.func, "attr", getattr(node.func, "id", None))
            where = (path.name, function.get(node))
            outside_builders = called == "SSLContext" and where[1] not in builders
            per_start = (called in builders
                         and where != ("harness.py", "_process_credentials"))
            if outside_builders or per_start:
                stray.append((*where, node.lineno, called))
    assert stray == []


def test_docs_name_only_known_toggles():
    root = pathlib.Path(__file__).resolve().parent.parent
    named = {
        name
        for path in [root / "README.md", *sorted((root / "docs").glob("*.md"))]
        for group in re.findall(
            r"--toggle[ =]([a-z0-9,-]+)", path.read_text(encoding="utf-8")
        )
        for name in group.split(",")
    }
    assert named
    assert named <= set(TOGGLES), sorted(named - set(TOGGLES))


def test_profiles():
    assert toggles_for_profile("secure") == frozenset()
    assert toggles_for_profile("paper-poc") == frozenset(
        {"plaintext-dbnode", "enable-password-grant", "expose-private-key"}
    )
    assert toggles_for_profile("all-vulnerable") == frozenset(TOGGLES)
    assert set(PROFILES) == {"secure", "paper-poc", "all-vulnerable"}


def test_unknown_toggle_rejected_before_start():
    with pytest.raises(UnknownToggleError):
        Switches.named({"no-such-toggle"})
    with pytest.raises(UnknownToggleError):
        start_testbed(["definitely-not-real"])


def test_manifest_describes_running_deployment(secure):
    m = secure.manifest
    assert len(m.components) == 7
    roles = sorted(c.role.value for c in m.components)
    assert roles == sorted(
        [
            "OAuthServer",
            "HttpsGateway",
            "WebAppPublic",
            "WebAppAdmin",
            "LogRepository",
            "KeyManagement",
            "DbNode",
        ]
    )
    db = m.by_role(ComponentRole.DB_NODE)[0]
    assert len(db.endpoints) == 2
    assert db.declared_encryption_at_rest == "AES-256"
    assert m.mode == "introspective"
    assert m.audit_fixture is True


def test_validator_stages_on_secure(secure, close_after):
    http = close_after(_client(secure))
    gateway = f"https://127.0.0.1:{secure.port(1)}"
    read = _mint(secure, http, "utm.read", "gateway")

    # correct token works
    ok = http.request(
        "GET", gateway + "/isa/isa-001", headers={"Authorization": f"Bearer {read}"}
    )
    assert ok.status == 200

    # expired fixture token rejected
    expired = _mint(
        secure, http, "utm.read", "gateway",
        x_lifetime_s="60", x_iat_offset_s="-3600",
    )
    r = http.request(
        "GET", gateway + "/isa/isa-001",
        headers={"Authorization": f"Bearer {expired}"},
    )
    assert r.status == 401

    # audience mismatch rejected
    wrong_aud = _mint(secure, http, "utm.read", "logs")
    r = http.request(
        "GET", gateway + "/isa/isa-001",
        headers={"Authorization": f"Bearer {wrong_aud}"},
    )
    assert r.status == 401

    # scope enforced on writes
    body = json.dumps({"area": "zone-z", "owner": "t"}).encode()
    r = http.request(
        "PUT", gateway + "/isa/scope-probe", body=body,
        headers={"Authorization": f"Bearer {read}"},
    )
    assert r.status == 403

    # tampered signature rejected
    tampered = read[:-4] + ("AAAA" if not read.endswith("AAAA") else "BBBB")
    r = http.request(
        "GET", gateway + "/isa/isa-001",
        headers={"Authorization": f"Bearer {tampered}"},
    )
    assert r.status == 401

    # none-alg rejected
    import base64

    header = base64.urlsafe_b64encode(b'{"alg":"none"}').rstrip(b"=").decode()
    claims = read.split(".")[1]
    r = http.request(
        "GET", gateway + "/isa/isa-001",
        headers={"Authorization": f"Bearer {header}.{claims}."},
    )
    assert r.status == 401


def test_fixture_params_yield_expired_but_valid_token(secure, close_after):
    http = close_after(_client(secure))
    expired = _mint(
        secure, http, "utm.read", "gateway",
        x_lifetime_s="60", x_iat_offset_s="-3600",
    )
    payload = expired.split(".")[1]
    import base64

    pad = "=" * (-len(payload) % 4)
    claims = json.loads(base64.urlsafe_b64decode(payload + pad))
    assert claims["exp"] - claims["iat"] == 60
    assert claims["exp"] < __import__("time").time()


def test_restricted_services_drop_external_sources(secure, close_after):
    http = close_after(_client(secure))
    for offset in (3, 4):
        with pytest.raises(WireError):
            http.request("GET", f"https://127.0.0.1:{secure.port(offset)}/")


def test_at_rest_file_has_no_marker_on_secure(secure):
    db = secure.manifest.by_role(ComponentRole.DB_NODE)[0]
    blob = pathlib.Path(db.storage_path).read_bytes()
    assert b"ISA_RECORD" not in blob


def test_none_alg_toggle_accepts_forgery(close_after):
    tb = start_testbed(["accept-none-alg"])
    try:
        http = close_after(_client(tb))
        read = _mint(tb, http, "utm.read", "gateway")
        import base64

        header = base64.urlsafe_b64encode(b'{"alg":"none"}').rstrip(b"=").decode()
        claims = read.split(".")[1]
        r = http.request(
            "GET",
            f"https://127.0.0.1:{tb.port(1)}/isa/isa-001",
            headers={"Authorization": f"Bearer {header}.{claims}."},
        )
        assert r.status == 200
    finally:
        tb.stop()


def test_scope_toggle_lets_read_token_write(close_after):
    tb = start_testbed(["no-scope-check"])
    try:
        http = close_after(_client(tb))
        read = _mint(tb, http, "utm.read", "gateway")
        body = json.dumps({"area": "zone-z", "owner": "t"}).encode()
        r = http.request(
            "PUT",
            f"https://127.0.0.1:{tb.port(1)}/isa/scope-probe",
            body=body,
            headers={"Authorization": f"Bearer {read}"},
        )
        assert r.status == 200
    finally:
        tb.stop()


def test_plaintext_store_toggle_writes_marker():
    tb = start_testbed(["no-at-rest-encryption"])
    try:
        db = tb.manifest.by_role(ComponentRole.DB_NODE)[0]
        blob = pathlib.Path(db.storage_path).read_bytes()
        assert b"ISA_RECORD" in blob
        # the manifest still claims strong encryption; only the bytes tell
        assert db.declared_encryption_at_rest == "AES-256"
    finally:
        tb.stop()


def test_the_database_toggles_compose(secure_audit):
    """All five DB toggles at once fail exactly the union of their matrix
    entries; every other check keeps its secure verdict."""
    matrix = load_matrix()
    db_toggles = [t for t in TOGGLES if matrix[t][0].startswith("DB-")]
    assert len(db_toggles) == 5
    union = {c for t in db_toggles for c in matrix[t]}
    assert union == {"DB-01", "DB-02", "DB-03", "DB-04"}
    tb = start_testbed(db_toggles)
    try:
        report = run_audit(tb.manifest)
    finally:
        tb.stop()
    secure = {r.check_id: r.status for r in secure_audit[0].results}
    statuses = {r.check_id: r.status for r in report.results}
    assert {c for c, s in statuses.items() if s is CheckStatus.FAIL} == union
    assert {c: s for c, s in statuses.items() if c not in union} == {
        c: s for c, s in secure.items() if c not in union
    }
    db04 = next(r for r in report.results if r.check_id == "DB-04")
    assert db04.evidence == [
        "db-cluster: declared at-rest algorithm AES-128; required AES-256"
    ]


@pytest.mark.parametrize("toggle_set", ["all-vulnerable", "OAUTH", "JWT", "LOG"])
def test_a_toggle_set_fails_exactly_the_union_of_its_matrix_entries(
    secure_audit, toggle_set,
):
    """The union rule: with a set of toggles on, the Fail set is the union
    of their matrix entries, and every other check keeps its secure
    verdict. Besides every toggle at once, each area's toggles run
    together; the DB area's have the test above, and NET has one toggle."""
    matrix = load_matrix()
    if toggle_set in PROFILES:
        toggles = sorted(toggles_for_profile(toggle_set))
    else:
        toggles = [t for t in TOGGLES if matrix[t][0].startswith(f"{toggle_set}-")]
        assert len(toggles) > 1
    union = {c for t in toggles for c in matrix[t]}
    tb = start_testbed(toggles)
    try:
        report = run_audit(tb.manifest)
    finally:
        tb.stop()
    secure = {r.check_id: r.status for r in secure_audit[0].results}
    statuses = {r.check_id: r.status for r in report.results}
    assert {c for c, s in statuses.items() if s is CheckStatus.FAIL} == union
    assert {c: s for c, s in statuses.items() if c not in union} == {
        c: s for c, s in secure.items() if c not in union
    }


def test_worm_probes_on_secure(secure, close_after):
    http = close_after(_client(secure))
    write = _mint(secure, http, "logs.write", "logs")
    base = f"https://127.0.0.1:{secure.port(4)}"
    auth = {"Authorization": f"Bearer {write}"}
    fields = {
        "timestamp": "t", "actor_id": "a", "token_subject": "s",
        "action": "test-append", "resource": "r", "outcome": "ok",
    }
    appended = http.request(
        "POST", base + "/records",
        body=json.dumps({"fields": fields}).encode(),
        headers=auth, source="127.0.0.2",
    )
    assert appended.status == 201
    seq = appended.json()["seq"]

    forged = http.request(
        "POST", base + "/records",
        body=json.dumps({"fields": fields, "link": "00" * 32}).encode(),
        headers=auth, source="127.0.0.2",
    )
    assert forged.status == 400

    overwrite = http.request(
        "PUT", f"{base}/records/{seq}",
        body=json.dumps({"fields": fields}).encode(),
        headers=auth, source="127.0.0.2",
    )
    assert overwrite.status == 405
    erase = http.request(
        "DELETE", f"{base}/records/{seq}", headers=auth, source="127.0.0.2"
    )
    assert erase.status == 405


def test_signing_key_is_parsed_once(monkeypatch):
    key = rsa.generate_private_key(public_exponent=65537, key_size=2048)
    private_pem = key.private_bytes(
        serialization.Encoding.PEM,
        serialization.PrivateFormat.TraditionalOpenSSL,
        serialization.NoEncryption(),
    )
    public_pem = key.public_key().public_bytes(
        serialization.Encoding.PEM, serialization.PublicFormat.SubjectPublicKeyInfo
    )
    parses = []
    real_load = serialization.load_pem_private_key

    def counting_load(*args, **kwargs):
        parses.append(args)
        return real_load(*args, **kwargs)

    monkeypatch.setattr(serialization, "load_pem_private_key", counting_load)
    keys = tokens.make_signing_keys(private_pem, public_pem, "kid-1")
    policy = tokens.IssuerPolicy()
    issued = [
        tokens.issue(keys, policy, subject="s", scope="utm.read", audience="gateway")
        for _ in range(3)
    ]
    document = tokens.jwks_document(keys)
    assert len(parses) == 1
    assert document["keys"][0]["kid"] == "kid-1"
    validator = tokens.ValidatorPolicy(expected_audience="gateway")
    for compact in issued:
        assert tokens.validate(keys, validator, compact, required_scope="utm.read").ok


def test_stop_closes_every_port_and_ends_every_thread():
    before = set(threading.enumerate())
    tb = start_testbed()
    tb.stop()
    for offset in range(PORT_SPAN):
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", tb.port(offset)), timeout=2)
    left = [t for t in set(threading.enumerate()) - before if t.is_alive()]
    assert left == []


def test_strong_secret_always_uses_the_full_urlsafe_alphabet():
    # token_urlsafe(48) alone misses both '-' and '_' in about one draw in
    # seven, which would move OAUTH-03's evidence from 384.0 to 381.1 bits
    for _ in range(200):
        strength = estimate_secret_strength(harness._strong_secret())
        assert (strength.charset_size, strength.estimated_bits) == (64, 384.0)


def test_weak_secret_always_shows_the_full_hex_alphabet():
    # token_hex(5) alone draws no a-f in about one draw in 110, which would
    # move OAUTH-03's evidence from 40.0 bits over 16 symbols to 33.2 over 10
    for _ in range(200):
        strength = estimate_secret_strength(harness._weak_secret())
        assert (strength.charset_size, strength.estimated_bits) == (16, 40.0)


_STRETCHED_LINE = re.compile(
    r"auditor-client pbkdf2_sha256\$210000\$([0-9a-f]{16})\$([0-9a-f]{64})\n"
)


def _secret_store(tb) -> str:
    path = tb.manifest.oauth_server().storage_path
    return pathlib.Path(path).read_text(encoding="utf-8")


def _assert_stretched(tb):
    """The store line is a PBKDF2 hash that verifies against the client
    secret that the manifest declares."""
    secret = tb.manifest.oauth_client.client_secret
    assert secret == tb.client_secret
    match = _STRETCHED_LINE.fullmatch(_secret_store(tb))
    assert match, _secret_store(tb)
    salt, digest = match.groups()
    assert hashlib.pbkdf2_hmac(
        "sha256", secret.encode(), salt.encode(), 210000
    ).hex() == digest


def test_the_secret_store_holds_a_stretched_client_secret(secure):
    _assert_stretched(secure)


def test_weak_secret_testbeds_store_their_own_secret_stretched(secure):
    """The weak secret, like the strong one, is drawn once per process."""
    first = start_testbed(("weak-secret",))
    try:
        second = start_testbed(("weak-secret",))
        try:
            assert first.client_secret != secure.client_secret
            assert len(first.client_secret) == 10
            assert second.client_secret == first.client_secret
            _assert_stretched(first)
            assert _secret_store(second) == _secret_store(first)
        finally:
            second.stop()
    finally:
        first.stop()


def test_plaintext_secret_store_writes_the_secret_as_it_is():
    tb = start_testbed(("plaintext-secret-store",))
    try:
        assert _secret_store(tb) == f"auditor-client {tb.client_secret}\n"
        assert tb.manifest.oauth_client.client_secret == tb.client_secret
    finally:
        tb.stop()


@pytest.mark.parametrize("context, offered", [
    ("https", "TLSv1_3"),
    ("https", "TLSv1_2"),
    ("https_optional_client_cert", "TLSv1_3"),
    ("https_optional_client_cert", "TLSv1_2"),
    ("db_tls13", "TLSv1_3"),
    ("db_tls12", "TLSv1_2"),
])
def test_no_server_context_issues_a_session_ticket(tmp_path, context, offered):
    """The scanner never resumes a session, so a handshake with any of the
    testbed's server contexts leaves the client without a ticket."""
    creds = harness._process_credentials()
    paths = write_bundle(creds.bundle, str(tmp_path))
    client_ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    client_ctx.check_hostname = False
    client_ctx.load_verify_locations(paths.ca_cert)
    client_ctx.load_cert_chain(paths.client_cert, paths.client_key)
    client_ctx.maximum_version = ssl.TLSVersion[offered]
    to_server, to_client = ssl.MemoryBIO(), ssl.MemoryBIO()
    client = client_ctx.wrap_bio(to_client, to_server)
    server_in, server_out = ssl.MemoryBIO(), ssl.MemoryBIO()
    server = getattr(creds, context).wrap_bio(server_in, server_out, server_side=True)
    for _ in range(5):
        for end in (client, server):
            with contextlib.suppress(ssl.SSLWantReadError):
                end.do_handshake()
        server_in.write(to_server.read())
        to_client.write(server_out.read())
    # a TLS 1.3 ticket arrives after the handshake: read to take it in
    with contextlib.suppress(ssl.SSLWantReadError):
        client.read(1)
    assert client.version() == offered.replace("_", ".")
    assert not client.session.has_ticket


def _jwks_kid(tb):
    with contextlib.closing(_client(tb)) as http:
        resp = http.request("GET", f"https://127.0.0.1:{tb.port(0)}/jwks.json")
    return resp.json()["keys"][0]["kid"]


def _server_cert(tb, offset):
    """The certificate that the service at ``offset`` presents, from a
    handshake that verifies it against the testbed's CA."""
    client = tb.manifest.oauth_client
    context = wire.client_context(tb.manifest.ca_path, client.certificate, client.key)
    with wire.dial("127.0.0.1", tb.port(offset), "127.0.0.2", 5) as sock, \
            context.wrap_socket(sock) as tls:
        return tls.getpeercert(binary_form=True)


def test_testbeds_of_one_process_share_credentials_but_not_workdir_or_ports(
    monkeypatch,
):
    real_make_bundle = harness.make_bundle
    made = []
    built = []

    def counting_make_bundle():
        made.append(real_make_bundle())
        return made[-1]

    def counting(builder):
        def build(*args, **kwargs):
            built.append(builder.__name__)
            return builder(*args, **kwargs)
        return build

    monkeypatch.setattr(harness, "make_bundle", counting_make_bundle)
    monkeypatch.setattr(harness, "server_context", counting(harness.server_context))
    harness._process_credentials.cache_clear()
    first = start_testbed()
    try:
        second = start_testbed()
    except BaseException:
        first.stop()
        raise
    try:
        assert len(made) == 1
        # four server contexts for the process, none for either start
        assert built == ["server_context"] * 4
        assert first.workdir != second.workdir
        assert first.port_base != second.port_base
        ca = [pathlib.Path(tb.manifest.ca_path).read_bytes() for tb in (first, second)]
        assert ca[0] == ca[1] == made[0].ca_cert_pem
        assert _jwks_kid(first) == _jwks_kid(second) == made[0].jwt_kid
        assert first.client_secret == second.client_secret
        # each stop removes that testbed's own copy of the PKI, and only it
        first.stop()
        assert not os.path.exists(os.path.join(first.workdir, "pki"))
        assert os.path.exists(second.manifest.ca_path)
    finally:
        first.stop()
        second.stop()
    assert not os.path.exists(os.path.join(second.workdir, "pki"))

    # new credentials bring new server contexts: the next testbed's HTTPS
    # services and db nodes present the new server certificate
    harness._process_credentials.cache_clear()
    third = start_testbed()
    try:
        assert len(made) == 2 and len(built) == 8
        assert made[1].ca_cert_pem != made[0].ca_cert_pem
        new_cert = ssl.PEM_cert_to_DER_cert(made[1].server_cert_pem.decode())
        for offset in (0, 1, 3, 4, 6, 7):
            assert _server_cert(third, offset) == new_cert
    finally:
        third.stop()


def test_testbeds_alive_at_once_keep_their_own_tls_posture(close_after):
    """The shared server contexts follow every input that shapes them: a
    TLS 1.2 db node beside a TLS 1.3 one keeps its version, and each
    oauth-server still binds issuance to the client certificate."""
    secure_tb = start_testbed()
    try:
        legacy_tb = start_testbed(("tls12-dbnode",))
    except BaseException:
        secure_tb.stop()
        raise
    try:
        for tb, version, status in (
            (secure_tb, "TLSv1.3", CheckStatus.PASS),
            (legacy_tb, "TLSv1.2", CheckStatus.FAIL),
        ):
            db01 = check_db_transport(tb.manifest)
            assert db01.status is status
            assert len(db01.evidence) == 2
            assert all(version in line for line in db01.evidence), db01.evidence
            http = close_after(_client(tb))
            [oauth01] = check_oauth(tb.manifest, http, ["OAUTH-01"])
            assert oauth01.status is CheckStatus.PASS, oauth01.evidence
            _mint(tb, http, "utm.read", "gateway")
    finally:
        secure_tb.stop()
        legacy_tb.stop()


def test_stopping_an_unstarted_listener_returns_quietly():
    listener = make_kms("127.0.0.1", 0)
    listener.stop()


@pytest.mark.parametrize(
    "make_listener",
    [
        lambda: httpbase.TestbedHttpServer(
            ("127.0.0.1", 0), httpbase.JsonHandler, None
        ),
        lambda: make_kms("127.0.0.1", 0),
    ],
    ids=["http", "raw"],
)
def test_stop_wakes_an_accept_that_blocks(make_listener):
    listener = make_listener()
    listener.start()
    # one answered connection shows the accept loop is running
    with socket.create_connection(listener.server_address, timeout=2) as conn:
        conn.sendall(b"GET / HTTP/1.0\r\n\r\n")
        assert conn.recv(64)
    assert listener.socket.gettimeout() is None
    listener.stop()
    assert not listener._thread.is_alive()


def test_raw_listener_connections_have_nodelay():
    def nodelay_banner(conn):
        return b"%d\n" % conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    listener = RawListener("127.0.0.1", 0, nodelay_banner, tls_context=None)
    listener.start()
    try:
        with socket.create_connection(listener.server_address, timeout=2) as conn:
            assert int(conn.recv(64)) != 0
    finally:
        listener.stop()


def test_port_clash_surfaces_as_oserror_so_start_can_retry():
    base = find_free_port_base()
    with socket.socket() as blocker:
        # as find_free_port_base probes: a port left in TIME_WAIT is free
        blocker.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        blocker.bind(("127.0.0.1", base + 7))
        blocker.listen(1)
        with pytest.raises(OSError):
            harness._start_once(Switches(), base)


def test_a_peer_that_left_prints_no_traceback(capsys):
    server = httpbase.TestbedHttpServer(("127.0.0.1", 0), httpbase.JsonHandler, None)
    try:
        try:
            raise ConnectionResetError(104, "Connection reset by peer")
        except ConnectionResetError:
            server.handle_error(None, ("127.0.0.1", 1))
        assert capsys.readouterr().err == ""
        try:
            raise ValueError("a fault of the service")
        except ValueError:
            server.handle_error(None, ("127.0.0.1", 1))
        assert "ValueError: a fault of the service" in capsys.readouterr().err
    finally:
        server.server_close()


# ---------------------------------------------------------------------------
# Airspace store
# ---------------------------------------------------------------------------


@pytest.fixture
def store():
    with contextlib.closing(IsaStore()) as isa_store:
        yield isa_store


def test_the_bound_area_never_raises(store):
    for payload in load_corpus():
        assert store.query_param(payload.rendered("zone-a")) == [], payload.text


def test_the_spliced_area_is_parsed_as_sql(store):
    raised, rows = [], {}
    for payload in load_corpus():
        try:
            rows[payload.text] = len(store.query_concat(payload.rendered("zone-a")))
        except QueryError as exc:
            raised.append((payload.text, str(exc)))
    assert raised == [
        ("'", 'unrecognized token: "\'\'\'"'),
        ("')", 'near ")": syntax error'),
        ("'((", 'near "(": syntax error'),
        ("' OR", 'unrecognized token: "\'"'),
    ]
    flagged = [
        ("{BASELINE}' AND '1'='1", "{BASELINE}' AND '1'='2"),
        ("{BASELINE}' AND 1=1 --", "{BASELINE}' AND 1=2 --"),
        ("{BASELINE}' OR '1'='2", "{BASELINE}' OR '1'='1"),
    ]
    assert [(rows[true], rows[false]) for true, false in flagged] == [
        (3, 0), (3, 0), (3, 6),
    ]
    with pytest.raises(QueryError):
        store.query_concat("zone-a'; SELECT 1 --")  # one statement only


def test_a_replaced_record_keeps_its_place_and_its_other_fields(store):
    before = store.snapshot()
    record = store.put("isa-002", {"area": "zone-z", "floor_m": 45})
    assert list(record) == ["id", "owner", "area", "floor_m", "ceiling_m", "window"]
    assert record == {**before[1], "area": "zone-z", "floor_m": 45}
    after = store.snapshot()
    assert [r["id"] for r in after] == [r["id"] for r in before]
    assert after[1] == record
    assert store.put("isa-new", {"area": "zone-a", "owner": "t"}) == {
        "id": "isa-new", "owner": "t", "area": "zone-a",
    }
    assert store.snapshot()[-1]["id"] == "isa-new"


@pytest.mark.parametrize(
    "value", [[1], {"a": 1}, True, 2**63], ids=["list", "object", "bool", "int64+1"]
)
def test_a_field_sqlite_cannot_hold_as_sent_is_refused(secure, close_after, value):
    http = close_after(_client(secure))
    write = _mint(secure, http, "utm.write", "gateway")
    before = secure.store.snapshot()
    r = http.request(
        "PUT", f"https://127.0.0.1:{secure.port(1)}/isa/x",
        body=json.dumps({"area": "zone-a", "owner": value}).encode(),
        headers={"Authorization": f"Bearer {write}"},
    )
    assert (r.status, r.json()) == (400, {"error": "malformed record"})
    assert secure.store.snapshot() == before


def test_worker_threads_share_one_store(store):
    errors = []

    def work(n):
        try:
            for i in range(40):
                isa_id = f"t{n}-{i % 5}"
                store.put(isa_id, {"area": f"zone-{n}", "floor_m": i})
                assert store.get(isa_id)["area"] == f"zone-{n}"
                assert len(store.query_param(f"zone-{n}")) == min(i + 1, 5)
                store.query_concat("zone-a' OR '1'='1")
                store.snapshot()
        except Exception as exc:  # reported below, with the thread's number
            errors.append((n, exc))

    threads = [threading.Thread(target=work, args=(n,)) for n in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert len(store.snapshot()) == 6 + 8 * 5
