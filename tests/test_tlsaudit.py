import dataclasses
import socket

import pytest

from utmaudit import tlsaudit
from utmaudit.manifest import ComponentRole, Endpoint, parse_manifest
from utmaudit.results import CheckStatus
from utmaudit.testbed.certs import make_bundle, write_bundle
from utmaudit.testbed.rawlisteners import make_db_node, make_kms
from utmaudit.tlsaudit import (
    ClientCertDemand,
    ClientContexts,
    check_data_at_rest,
    check_db_transport,
    probe_tls,
)


@pytest.fixture(scope="module")
def pki(tmp_path_factory):
    bundle = make_bundle()
    paths = write_bundle(bundle, str(tmp_path_factory.mktemp("pki")))
    return paths


def _free_port():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def _run_node(pki, **kwargs):
    port = _free_port()
    node = make_db_node("127.0.0.1", port, pki, **kwargs)
    node.start()
    return node, Endpoint(host="127.0.0.1", port=port, scheme="tcp")


def _identified(pki):
    return ClientContexts.build(pki.ca_cert, pki.client_cert, pki.client_key)


def test_strict_node_posture(pki):
    node, ep = _run_node(pki)
    try:
        posture = probe_tls(ep, _identified(pki))
    finally:
        node.stop()
    assert posture.speaks_tls
    assert posture.negotiated_version == "TLSv1.3"
    assert posture.client_cert_demand is ClientCertDemand.REQUIRED
    assert posture.accepts_legacy_offer is False
    assert posture.server_cert_subject == "testbed"


def test_plaintext_node_detected(pki):
    node, ep = _run_node(pki, plaintext=True)
    try:
        posture = probe_tls(ep, ClientContexts.build(ca_path=pki.ca_cert))
    finally:
        node.stop()
    assert not posture.speaks_tls
    assert posture.plaintext_banner is not None
    assert b"dbnode" in posture.plaintext_banner


def test_tls12_node_flagged_as_legacy(pki):
    node, ep = _run_node(pki, tls12_only=True)
    try:
        posture = probe_tls(ep, _identified(pki))
    finally:
        node.stop()
    assert posture.speaks_tls
    assert posture.negotiated_version == "TLSv1.2"
    assert posture.accepts_legacy_offer is True


def test_anonymous_peer_rejected_post_handshake(pki):
    # TLS 1.3 delivers certificate_required after the client finishes, so
    # the no-certificate probe must fail only at its first read
    node, ep = _run_node(pki)
    try:
        posture = probe_tls(ep, ClientContexts.build(ca_path=pki.ca_cert))
    finally:
        node.stop()
    assert posture.speaks_tls is False
    assert posture.plaintext_banner is None
    assert any("rejected" in note for note in posture.notes)


def test_kms_banner_is_plaintext():
    port = _free_port()
    kms = make_kms("127.0.0.1", port)
    kms.start()
    try:
        posture = probe_tls(
            Endpoint(host="127.0.0.1", port=port, scheme="tcp"), ClientContexts.build()
        )
    finally:
        kms.stop()
    assert not posture.speaks_tls
    assert posture.plaintext_banner == b"kms ready\n"


def test_allowlisted_node_drops_unlisted_peer(pki):
    port = _free_port()
    node = make_db_node(
        "127.0.0.1", port, pki, allowlist=frozenset({"127.0.0.2"})
    )
    node.start()
    try:
        posture = probe_tls(
            Endpoint(host="127.0.0.1", port=port, scheme="tcp"), _identified(pki)
        )
        assert not posture.speaks_tls
        assert posture.plaintext_banner is None
    finally:
        node.stop()


# ---------------------------------------------------------------------------
# DB-01 / DB-03 / DB-04
# ---------------------------------------------------------------------------


def _manifest_for(port, pki, *, storage=None, declared="AES-256", mode="introspective"):
    lines = [
        "[target]",
        f"mode = {mode}",
        f"ca = {pki.ca_cert}",
        "",
        "[client]",
        "client_id = auditor",
        f"certificate = {pki.client_cert}",
        f"key = {pki.client_key}",
        "",
        "[component auth]",
        "role = OAuthServer",
        "endpoints = https://127.0.0.1:1",
        "",
        "[component db]",
        "role = DbNode",
        f"endpoints = tcp://127.0.0.1:{port}",
        f"declared_encryption_at_rest = {declared}",
    ]
    if storage:
        lines.append(f"storage_path = {storage}")
    return parse_manifest("\n".join(lines).encode())


def test_db_transport_pass_and_fail(pki):
    node, ep = _run_node(pki)
    try:
        result = check_db_transport(_manifest_for(ep.port, pki))
        assert result.status is CheckStatus.PASS
        assert any("TLSv1.3" in line for line in result.evidence)
    finally:
        node.stop()

    node, ep = _run_node(pki, plaintext=True)
    try:
        result = check_db_transport(_manifest_for(ep.port, pki))
        assert result.status is CheckStatus.FAIL
        assert result.component_id == "db"
        assert any("plaintext" in line for line in result.evidence)
    finally:
        node.stop()


def test_db_transport_unreachable_is_not_assessable(pki):
    port = _free_port()
    result = check_db_transport(_manifest_for(port, pki), timeout_s=1.0)
    assert result.status is CheckStatus.NOT_ASSESSABLE
    [line] = result.evidence
    assert line.startswith(f"db tcp://127.0.0.1:{port}: "), line


def test_db_transport_builds_its_contexts_once_per_sweep(pki, monkeypatch):
    built = []
    real = tlsaudit._client_context

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(tlsaudit, "_client_context", counting)
    manifest = _manifest_for(_free_port(), pki)
    db = manifest.by_role(ComponentRole.DB_NODE)[0]
    second = Endpoint(host="127.0.0.1", port=_free_port(), scheme="tcp")
    two_nodes = dataclasses.replace(db, endpoints=db.endpoints + (second,))
    manifest = dataclasses.replace(manifest, components=tuple(
        two_nodes if c is db else c for c in manifest.components
    ))
    for _ in range(2):
        result = check_db_transport(manifest, timeout_s=1.0)
        assert len(result.evidence) == 2
    # three contexts per sweep, read afresh by the next sweep
    assert len(built) == 6


def test_data_at_rest_plaintext_marker(tmp_path, pki):
    store = tmp_path / "store.bin"
    store.write_bytes(b'ISA_RECORD{"id": "isa-1"}')
    db03, db04 = check_data_at_rest(_manifest_for(1, pki, storage=str(store)))
    assert db03.check_id == "DB-03" and db03.status is CheckStatus.FAIL
    assert db04.check_id == "DB-04" and db04.status is CheckStatus.PASS


def test_data_at_rest_ciphertext_passes(tmp_path, pki):
    store = tmp_path / "store.bin"
    store.write_bytes(bytes(range(256)) * 4)
    db03, db04 = check_data_at_rest(_manifest_for(1, pki, storage=str(store)))
    assert db03.status is CheckStatus.PASS


def test_weak_declared_algorithm_fails_db04(tmp_path, pki):
    store = tmp_path / "store.bin"
    store.write_bytes(b"\x00" * 64)
    _, db04 = check_data_at_rest(
        _manifest_for(1, pki, storage=str(store), declared="AES-128")
    )
    assert db04.status is CheckStatus.FAIL
    assert any("AES-128" in line for line in db04.evidence)


def test_remote_mode_not_assessable(pki):
    db03, db04 = check_data_at_rest(_manifest_for(1, pki, mode="remote"))
    assert db03.status is CheckStatus.NOT_ASSESSABLE
    assert db04.status is CheckStatus.NOT_ASSESSABLE
