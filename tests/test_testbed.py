import json
import socket
import threading

import pytest
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import rsa

from utmaudit.manifest import ComponentRole
from utmaudit.testbed import tokens
from utmaudit.testbed.harness import PORT_SPAN, start_testbed
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


def test_validator_stages_on_secure(secure):
    http = _client(secure)
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


def test_fixture_params_yield_expired_but_valid_token(secure):
    http = _client(secure)
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


def test_restricted_services_drop_external_sources(secure):
    http = _client(secure)
    for offset in (3, 4):
        with pytest.raises(WireError):
            http.request(
                "GET", f"https://127.0.0.1:{secure.port(offset)}/", source="external"
            )


def test_at_rest_file_has_no_marker_on_secure(secure):
    db = secure.manifest.by_role(ComponentRole.DB_NODE)[0]
    blob = open(db.storage_path, "rb").read()
    assert b"ISA_RECORD" not in blob


def test_none_alg_toggle_accepts_forgery():
    tb = start_testbed(["accept-none-alg"])
    try:
        http = _client(tb)
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


def test_scope_toggle_lets_read_token_write():
    tb = start_testbed(["no-scope-check"])
    try:
        http = _client(tb)
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
        blob = open(db.storage_path, "rb").read()
        assert b"ISA_RECORD" in blob
        # the manifest still claims strong encryption; only the bytes tell
        assert db.declared_encryption_at_rest == "AES-256"
    finally:
        tb.stop()


def test_worm_probes_on_secure(secure):
    http = _client(secure)
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
