import contextlib
import dataclasses
import socket
import ssl
import threading

import pytest

from utmaudit.manifest import ComponentRole, Endpoint, parse_manifest
from utmaudit.results import CheckStatus
from utmaudit.testbed.certs import make_bundle, write_bundle
from utmaudit.testbed.httpbase import server_context
from utmaudit.testbed.rawlisteners import make_db_node, make_kms
from utmaudit.tlsaudit import (
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


def _node_context(pki, version=ssl.TLSVersion.TLSv1_3):
    """The testbed database node's context: a client certificate required."""
    return server_context(pki, ssl.CERT_REQUIRED, version)


def _run_node(tls_context):
    port = _free_port()
    node = make_db_node("127.0.0.1", port, tls_context)
    node.start()
    return node, Endpoint(host="127.0.0.1", port=port, scheme="tcp")


def _identified(pki):
    return pki.ca_cert, pki.client_cert, pki.client_key


def test_strict_node_posture(pki):
    node, ep = _run_node(_node_context(pki))
    try:
        posture = probe_tls(ep, *_identified(pki))
    finally:
        node.stop()
    assert posture.speaks_tls
    assert posture.negotiated_version == "TLSv1.3"
    assert posture.client_cert_required is True
    assert posture.accepts_legacy_offer is False


def test_plaintext_node_detected(pki):
    node, ep = _run_node(None)
    try:
        posture = probe_tls(ep, ca_path=pki.ca_cert)
    finally:
        node.stop()
    assert not posture.speaks_tls
    assert posture.plaintext_banner is not None
    assert b"dbnode" in posture.plaintext_banner


def test_tls12_node_flagged_as_legacy(pki):
    node, ep = _run_node(_node_context(pki, ssl.TLSVersion.TLSv1_2))
    try:
        posture = probe_tls(ep, *_identified(pki))
    finally:
        node.stop()
    assert posture.speaks_tls
    assert posture.negotiated_version == "TLSv1.2"
    assert posture.accepts_legacy_offer is True


def test_anonymous_peer_rejected_post_handshake(pki):
    # TLS 1.3 delivers certificate_required after the client finishes, so
    # the no-certificate probe must fail only at its first read
    node, ep = _run_node(_node_context(pki))
    try:
        posture = probe_tls(ep, ca_path=pki.ca_cert)
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
            Endpoint(host="127.0.0.1", port=port, scheme="tcp")
        )
    finally:
        kms.stop()
    assert not posture.speaks_tls
    assert posture.plaintext_banner == b"kms ready\n"


def test_allowlisted_node_drops_unlisted_peer(pki):
    port = _free_port()
    node = make_db_node(
        "127.0.0.1", port, _node_context(pki),
        allowlist=frozenset({"127.0.0.2"}),
    )
    node.start()
    try:
        posture = probe_tls(
            Endpoint(host="127.0.0.1", port=port, scheme="tcp"), *_identified(pki)
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
    node, ep = _run_node(_node_context(pki))
    try:
        result = check_db_transport(_manifest_for(ep.port, pki))
        assert result.status is CheckStatus.PASS
        assert any("TLSv1.3" in line for line in result.evidence)
    finally:
        node.stop()

    node, ep = _run_node(None)
    try:
        result = check_db_transport(_manifest_for(ep.port, pki))
        assert result.status is CheckStatus.FAIL
        assert result.component_id == "db"
        assert any("plaintext" in line for line in result.evidence)
    finally:
        node.stop()


@pytest.mark.parametrize("client_cert", [ssl.CERT_NONE, ssl.CERT_OPTIONAL])
def test_a_node_that_serves_anonymous_peers_fails_db01(pki, client_cert):
    """Whether or not the node asks for a certificate, an anonymous
    handshake it completes is the finding; the banner says nothing."""
    node, ep = _run_node(server_context(pki, client_cert, ssl.TLSVersion.TLSv1_3))
    try:
        result = check_db_transport(_manifest_for(ep.port, pki))
    finally:
        node.stop()
    assert result.status is CheckStatus.FAIL
    assert result.evidence == [
        f"db tcp://127.0.0.1:{ep.port}: client certificate not required"
    ]


def test_db_transport_unreachable_is_not_assessable(pki):
    port = _free_port()
    result = check_db_transport(_manifest_for(port, pki), timeout_s=1.0)
    assert result.status is CheckStatus.NOT_ASSESSABLE
    [line] = result.evidence
    assert line.startswith(f"db tcp://127.0.0.1:{port}: "), line


def test_a_connect_refused_after_the_first_handshake_is_not_a_pass(pki):
    """A TLS 1.3 listener that asks for no client certificate, accepts one
    connection and then closes its port: the anonymous and TLS 1.2
    handshakes are refused at connect, which says nothing about the
    certificates or versions the server would accept."""
    server_ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    server_ctx.load_cert_chain(pki.server_cert, pki.server_key)
    server_ctx.minimum_version = ssl.TLSVersion.TLSv1_3
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def serve_once():
        with listener:
            conn, _ = listener.accept()
        with contextlib.suppress(OSError):
            with server_ctx.wrap_socket(conn, server_side=True) as tls:
                tls.sendall(b"ready\n")
                tls.recv(1)  # until the probe closes

    server = threading.Thread(target=serve_once, daemon=True)
    server.start()
    result = check_db_transport(_manifest_for(port, pki), timeout_s=2.0)
    server.join(timeout=5)
    assert result.status is CheckStatus.NOT_ASSESSABLE
    [line] = result.evidence
    assert line.startswith(f"db tcp://127.0.0.1:{port}: "), line


def test_db_transport_builds_its_contexts_once_per_sweep(pki, context_builds):
    nodes = [_run_node(_node_context(pki)) for _ in range(2)]
    try:
        manifest = _manifest_for(nodes[0][1].port, pki)
        db = manifest.by_role(ComponentRole.DB_NODE)[0]
        two_nodes = dataclasses.replace(db, endpoints=(nodes[0][1], nodes[1][1]))
        manifest = dataclasses.replace(manifest, components=tuple(
            two_nodes if c is db else c for c in manifest.components
        ))
        for _ in range(2):
            result = check_db_transport(manifest, timeout_s=1.0)
            assert result.status is CheckStatus.PASS
            assert len(result.evidence) == 2
    finally:
        for node, _ in nodes:
            node.stop()
    # the identified, anonymous and TLS 1.2-capped contexts, built by the
    # first handshake that asks for each and shared by every later one
    assert sorted(context_builds, key=repr) == sorted([
        (pki.ca_cert, pki.client_cert, pki.client_key, False),
        (pki.ca_cert, None, None, False),
        (pki.ca_cert, pki.client_cert, pki.client_key, True),
    ], key=repr)


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
