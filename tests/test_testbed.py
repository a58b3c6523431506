import contextlib
import json
import os
import pathlib
import socket
import threading

import pytest
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import rsa

from utmaudit.manifest import ComponentRole
from utmaudit.oauthaudit import estimate_secret_strength
from utmaudit.testbed import harness, httpbase, tokens
from utmaudit.testbed.harness import PORT_SPAN, find_free_port_base, start_testbed
from utmaudit.testbed.rawlisteners import RawListener, make_kms
from utmaudit.testbed.toggles import (
    PROFILES,
    TOGGLES,
    UnknownToggleError,
    load_matrix,
    toggles_for_profile,
    validate_toggles,
)
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


def test_toggle_registry_is_complete():
    assert len(TOGGLES) == 28
    assert len(set(TOGGLES)) == 28
    matrix = load_matrix()
    assert set(matrix) == set(TOGGLES)
    covered = {check for checks in matrix.values() for check in checks}
    # every check except the two without a misconfiguration analogue
    assert "NET-02" not in covered
    assert "WEB-01" not in covered
    assert len(covered) == 25


def test_profiles():
    assert toggles_for_profile("secure") == frozenset()
    assert toggles_for_profile("paper-poc") == frozenset(
        {"plaintext-dbnode", "enable-password-grant", "expose-private-key"}
    )
    assert toggles_for_profile("all-vulnerable") == frozenset(TOGGLES)
    assert set(PROFILES) == {"secure", "paper-poc", "all-vulnerable"}


def test_unknown_toggle_rejected_before_start():
    with pytest.raises(UnknownToggleError):
        validate_toggles({"no-such-toggle"})
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
            http.request(
                "GET", f"https://127.0.0.1:{secure.port(offset)}/", source="external"
            )


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
        headers=auth, source="allowlisted",
    )
    assert appended.status == 201
    seq = appended.json()["seq"]

    forged = http.request(
        "POST", base + "/records",
        body=json.dumps({"fields": fields, "link": "00" * 32}).encode(),
        headers=auth, source="allowlisted",
    )
    assert forged.status == 400

    overwrite = http.request(
        "PUT", f"{base}/records/{seq}",
        body=json.dumps({"fields": fields}).encode(),
        headers=auth, source="allowlisted",
    )
    assert overwrite.status == 405
    erase = http.request(
        "DELETE", f"{base}/records/{seq}", headers=auth, source="allowlisted"
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


def _jwks_kid(tb):
    with contextlib.closing(_client(tb)) as http:
        resp = http.request("GET", f"https://127.0.0.1:{tb.port(0)}/jwks.json")
    return resp.json()["keys"][0]["kid"]


def test_testbeds_of_one_process_share_credentials_but_not_workdir_or_ports(
    monkeypatch,
):
    real_make_bundle = harness.make_bundle
    made = []

    def counting_make_bundle():
        made.append(real_make_bundle())
        return made[-1]

    monkeypatch.setattr(harness, "make_bundle", counting_make_bundle)
    harness._process_credentials.cache_clear()
    first = start_testbed()
    try:
        second = start_testbed()
    except BaseException:
        first.stop()
        raise
    try:
        assert len(made) == 1
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
        blocker.bind(("127.0.0.1", base + 7))
        blocker.listen(1)
        with pytest.raises(OSError):
            harness._start_once(frozenset(), base)
