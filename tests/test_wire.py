"""The probe transport: pooled connections, the stale retry, the request
deadline and the body cap, against stub servers and the secure testbed."""

import ast
import dataclasses
import gc
import http.client
import pathlib
import re
import shutil
import socket
import ssl
import struct
import sys
import threading
import time
import warnings

import pytest

from utmaudit import wire
from utmaudit.engine import run_audit
from utmaudit.manifest import ComponentRole
from utmaudit.results import CheckStatus
from utmaudit.testbed import httpbase
from utmaudit.testbed.certs import make_bundle, write_bundle
from utmaudit.wire import HttpClient, WireError


@pytest.fixture
def connects(monkeypatch):
    """Every HTTP(S) connection opened while the test runs, in order."""
    opened = []
    real_connect = http.client.HTTPConnection.connect

    def counting(self):
        opened.append(self)
        return real_connect(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counting)
    return opened


@pytest.fixture
def http_stub():
    """``http_stub(handler, tls=None)`` serves ``handler`` on a loopback
    port and returns that port; every stub stops when the test ends."""
    servers = []

    def start(handler, tls=None):
        server = httpbase.TestbedHttpServer(
            ("127.0.0.1", 0), handler, None, tls_context=tls
        )
        server.start()
        servers.append(server)
        return server.server_address[1]

    yield start
    for server in servers:
        server.stop()


@pytest.fixture
def raw_stub():
    """``raw_stub(script)`` accepts one connection on a loopback port and
    runs ``script(conn, stop)`` on it; ``stop`` is set when the test ends."""
    stop = threading.Event()
    threads = []

    def start(script):
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            with listener:
                conn, _ = listener.accept()
            with conn:
                conn.recv(65536)  # the request
                script(conn, stop)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        threads.append(thread)
        return listener.getsockname()[1]

    yield start
    stop.set()
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()


class _Echo(httpbase.JsonHandler):
    """Answers who asked: peer address, port and whether it offered a
    client certificate."""

    def do_GET(self):
        host, port = self.client_address
        self.send_json(200, {
            "host": host, "port": port, "cert": self.peer_cert_present(),
        })


class _ClosesWhenIdle(_Echo):
    """HTTP/1.1 without ``Connection: close``, yet it closes the connection
    after every response, as a server does on its idle timeout. It records
    every path it serves in ``seen``."""

    seen: list

    def do_GET(self):
        self.seen.append(self.path)
        super().do_GET()
        self.close_connection = True


class _Resets(httpbase.JsonHandler):
    def do_GET(self):
        self.connection.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        self.close_connection = True


def test_one_scan_reuses_connections_and_leaves_none_open(secure_testbed, connects):
    report = run_audit(secure_testbed.manifest)
    assert report.summary()["pass"] == 26
    # 71 wire requests ride on a few connections per (target, vantage,
    # identity), and run_audit closes every one of them before it returns
    assert 0 < len(connects) <= 12
    assert all(conn.sock is None for conn in connects)


def test_a_connection_closed_while_idle_is_replaced_once(http_stub, connects):
    seen = []
    port = http_stub(type("Handler", (_ClosesWhenIdle,), {"seen": seen}))
    http = HttpClient()
    try:
        first = http.request("GET", f"http://127.0.0.1:{port}/one")
        second = http.request("GET", f"http://127.0.0.1:{port}/two")
    finally:
        http.close()
    assert (first.status, second.status) == (200, 200)
    assert seen == ["/one", "/two"]
    assert len(connects) == 2


def test_a_fresh_connection_that_is_reset_is_not_retried(http_stub, connects):
    port = http_stub(_Resets)
    http = HttpClient()
    try:
        with pytest.raises(WireError):
            http.request("GET", f"http://127.0.0.1:{port}/")
    finally:
        http.close()
    assert len(connects) == 1


def test_connections_are_never_shared_across_identity_or_vantage(
    secure_testbed, http_stub, connects,
):
    paths = secure_testbed.cert_paths
    port = http_stub(
        _Echo, tls=httpbase.server_context(paths, ssl.CERT_OPTIONAL)
    )
    url = f"https://127.0.0.1:{port}/"
    http = HttpClient(
        ca_path=paths.ca_cert, client_cert=paths.client_cert,
        client_key=paths.client_key, allowlisted_source="127.0.0.2",
    )

    def ask(**kwargs):
        doc = http.request("GET", url, **kwargs).json()
        return doc["host"], doc["cert"], doc["port"]

    try:
        plain = ask()
        with_cert = ask(present_client_cert=True)
        plain_again = ask()
        allowlisted = ask(source="127.0.0.2")
        allowlisted_cert = ask(source="127.0.0.2", present_client_cert=True)
    finally:
        http.close()
    assert plain[:2] == ("127.0.0.1", False)
    assert with_cert[:2] == ("127.0.0.1", True)
    assert plain_again == plain  # the same connection, reused
    assert allowlisted[:2] == ("127.0.0.2", False)
    assert allowlisted_cert[:2] == ("127.0.0.2", True)
    assert len(connects) == 4
    assert len({plain[2], with_cert[2], allowlisted[2], allowlisted_cert[2]}) == 4


def test_concurrent_requests_build_each_tls_context_once(
    secure_testbed, http_stub, context_builds, credential_loads,
):
    paths = secure_testbed.cert_paths
    port = http_stub(
        _Echo, tls=httpbase.server_context(paths, ssl.CERT_OPTIONAL)
    )
    http = HttpClient(
        ca_path=paths.ca_cert, client_cert=paths.client_cert,
        client_key=paths.client_key,
    )
    workers = 8
    barrier = threading.Barrier(workers)
    statuses = []

    def fetch():
        barrier.wait(timeout=10)
        resp = http.request(
            "GET", f"https://127.0.0.1:{port}/", present_client_cert=True
        )
        statuses.append(resp.status)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fetch) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
        http.close()
    assert not any(thread.is_alive() for thread in threads)
    assert statuses == [200] * workers
    assert context_builds == [
        (paths.ca_cert, paths.client_cert, paths.client_key, False)
    ]


def test_a_client_certificate_that_is_not_configured_is_not_offered():
    # raised before any connection is opened
    with pytest.raises(
        WireError, match="^client certificate requested but not configured$"
    ):
        HttpClient().request("GET", "https://127.0.0.1:1/", present_client_cert=True)


@pytest.fixture
def credential_loads(monkeypatch):
    """The name of every credential load into any SSLContext while the test
    runs, in order; each load takes 20 ms longer, which widens any window
    between a cache lookup and its build."""
    loads = []
    for name in ("load_cert_chain", "load_verify_locations"):
        real = getattr(ssl.SSLContext, name)

        def counting(self, *args, _real=real, _name=name, **kwargs):
            loads.append(_name)
            time.sleep(0.02)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(ssl.SSLContext, name, counting)
    return loads


def test_a_second_scan_in_one_process_loads_no_credentials(
    secure_testbed, context_builds, credential_loads,
):
    paths = secure_testbed.cert_paths
    run_audit(secure_testbed.manifest)
    # identified, anonymous, TLS 1.2-capped, and the ClientHello's
    assert sorted(context_builds, key=repr) == sorted([
        (paths.ca_cert, paths.client_cert, paths.client_key, False),
        (paths.ca_cert, None, None, False),
        (paths.ca_cert, paths.client_cert, paths.client_key, True),
        (None, None, None, False),
    ], key=repr)
    credential_loads.clear()
    assert run_audit(secure_testbed.manifest).summary()["pass"] == 26
    assert credential_loads == []


def _copy_credentials(paths, directory: pathlib.Path) -> tuple[str, str, str]:
    """The CA, client certificate and client key of ``paths``, copied into
    ``directory``."""
    directory.mkdir()
    return tuple(
        shutil.copy(source, directory / pathlib.Path(source).name)
        for source in (paths.ca_cert, paths.client_cert, paths.client_key)
    )


def test_client_contexts_are_keyed_by_the_bytes_of_their_files(
    secure_testbed, http_stub, tmp_path, close_after,
):
    paths = secure_testbed.cert_paths
    original = wire.client_context(paths.ca_cert, paths.client_cert, paths.client_key)
    ca, cert, key = _copy_credentials(paths, tmp_path / "copy")
    assert wire.client_context(ca, cert, key) is original

    other = write_bundle(make_bundle(), str(tmp_path / "other"))
    url = f"https://127.0.0.1:{http_stub(_Echo, tls=httpbase.server_context(other))}/"
    before = wire.client_context(ca)
    with pytest.raises(WireError, match="CERTIFICATE_VERIFY_FAILED"):
        close_after(HttpClient(ca_path=ca)).request("GET", url)
    # the same path, rewritten in place with another CA
    pathlib.Path(ca).write_bytes(pathlib.Path(other.ca_cert).read_bytes())
    assert wire.client_context(ca) is not before
    assert close_after(HttpClient(ca_path=ca)).request("GET", url).status == 200


@pytest.mark.parametrize("broken, error", [
    ("ca", re.escape("[Errno 2] No such file or directory")),
    ("key", re.escape("[Errno 2] No such file or directory")),
    ("unparseable-ca", r"\[X509: NO_CERTIFICATE_OR_CRL_FOUND\] no certificate or crl "
                       r"found \(_ssl\.c:\d+\)"),
], ids=["missing-ca", "missing-key", "unparseable-ca"])
def test_credentials_that_cannot_be_loaded_are_not_assessable_and_not_cached(
    secure_testbed, tmp_path, broken, error,
):
    manifest = secure_testbed.manifest
    ca, cert, key = _copy_credentials(secure_testbed.cert_paths, tmp_path / "copy")
    target = pathlib.Path(key if broken == "key" else ca)
    good = target.read_bytes()
    if broken == "unparseable-ca":
        target.write_text("not a certificate\n")
    else:
        target.unlink()
    manifest = dataclasses.replace(
        manifest, ca_path=ca,
        oauth_client=dataclasses.replace(manifest.oauth_client, certificate=cert, key=key),
    )
    token_url = manifest.oauth_server().primary_endpoint().url("/token")
    labels = {
        "DB-01": [f"{db.id} {endpoint.url()}"
                  for db in manifest.by_role(ComponentRole.DB_NODE)
                  for endpoint in db.endpoints],
        # a token request that presents the client certificate
        "OAUTH-02": [f"POST {token_url}"],
    }
    results = {r.check_id: r for r in run_audit(manifest, set(labels)).results}
    for check_id, expected in labels.items():
        assert results[check_id].status is CheckStatus.NOT_ASSESSABLE
        assert len(results[check_id].evidence) == len(expected)
        for label, line in zip(expected, results[check_id].evidence):
            assert re.fullmatch(f"{re.escape(label)}: {error}", line), line

    # the file made good in place: the next scan loads it
    target.write_bytes(good)
    results = run_audit(manifest, set(labels)).results
    assert [r.status for r in results] == [CheckStatus.PASS] * 2


def test_concurrent_first_asks_for_new_credentials_build_one_context(
    secure_testbed, credential_loads, monkeypatch,
):
    monkeypatch.setattr(wire, "_CONTEXTS", {})  # nothing loaded yet
    paths = secure_testbed.cert_paths
    workers = 8
    barrier = threading.Barrier(workers)
    contexts = []

    def ask():
        barrier.wait(timeout=10)
        contexts.append(
            wire.client_context(paths.ca_cert, paths.client_cert, paths.client_key)
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(contexts) == workers
    assert all(context is contexts[0] for context in contexts)
    assert credential_loads == ["load_verify_locations", "load_cert_chain"]


def _drip(prefix: bytes, rest: bytes):
    def script(conn, stop):
        conn.sendall(prefix)
        for byte in rest:
            if stop.wait(0.3):
                return
            try:
                conn.sendall(bytes([byte]))
            except OSError:
                return  # the client gave up
    return script


_RESPONSE_HEAD = b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\n\r\n"


@pytest.mark.parametrize("prefix, rest", [
    (_RESPONSE_HEAD, b"hello world!"),
    (b"", _RESPONSE_HEAD + b"hello world!"),
], ids=["body", "status-and-headers"])
def test_a_dripped_response_ends_at_the_request_deadline(
    raw_stub, connects, prefix, rest,
):
    port = raw_stub(_drip(prefix, rest))
    http = HttpClient(timeout_s=0.5)
    started = time.monotonic()
    try:
        with pytest.raises(WireError, match="timed out"):
            http.request("GET", f"http://127.0.0.1:{port}/")
    finally:
        http.close()
    assert time.monotonic() - started < 1.5  # a drip once held it 3.6 s
    assert all(conn.sock is None for conn in connects)


@pytest.mark.parametrize("head", [
    b"HTTP/1.1 200 OK\r\nContent-Length: 4096\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n",
], ids=["content-length", "until-close"])
def test_a_body_over_the_cap_is_refused(raw_stub, connects, monkeypatch, head):
    monkeypatch.setattr(wire, "MAX_BODY_BYTES", 1024)
    port = raw_stub(lambda conn, stop: conn.sendall(head + b"x" * 4096))
    http = HttpClient()
    try:
        with pytest.raises(WireError, match="response body over 1024 bytes"):
            http.request("GET", f"http://127.0.0.1:{port}/")
    finally:
        http.close()
    assert all(conn.sock is None for conn in connects)


def test_a_scan_leaves_no_socket_unclosed_on_either_side(secure_testbed):
    before = set(threading.enumerate())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        run_audit(secure_testbed.manifest)
        # the testbed's connection threads end once the scanner has closed
        # its connections; each closes its socket on the way out
        for thread in set(threading.enumerate()) - before:
            thread.join(timeout=5)
            assert not thread.is_alive(), thread
        gc.collect()
    unclosed = [
        str(w.message) for w in caught
        if issubclass(w.category, ResourceWarning)
        and "socket" in str(w.message).lower()
    ]
    assert unclosed == []


def test_an_allowlisted_source_the_host_cannot_bind_is_not_assessable(secure_testbed):
    """192.0.2.77 is a TEST-NET-1 documentation address that no host
    interface carries, so every probe from the allowlisted vantage fails at
    bind time, before it leaves the host."""
    manifest = dataclasses.replace(
        secure_testbed.manifest, allowlist_sources=("192.0.2.77",)
    )
    results = {r.check_id: r for r in run_audit(manifest).results}
    unbound = "cannot bind source address 192.0.2.77"
    assert ("allowlisted-source verification not assessable from this vantage"
            in results["NET-01"].evidence)
    # a TLS posture probe, an HTTP probe, and a read whose transport refusal
    # would count as refused access
    for check_id in ("DB-01", "LOG-01", "LOG-04"):
        assert results[check_id].status is CheckStatus.NOT_ASSESSABLE
        assert any(unbound in line for line in results[check_id].evidence), check_id
    # each probe names what it sent, so two probes that fail alike still
    # leave two different lines
    for check_id, result in results.items():
        assert len(set(result.evidence)) == len(result.evidence), check_id


def test_dial_moves_past_addresses_it_cannot_open_or_connect_to(monkeypatch):
    """As create_connection does, an address whose socket cannot be made
    (here an address family the host lacks) or whose connect is refused
    gives way to the next one, and the first that accepts is used."""
    first = socket.create_server(("127.0.0.1", 0))
    second = socket.create_server(("127.0.0.1", 0))
    with socket.socket() as closed:
        closed.bind(("127.0.0.1", 0))
        refused = closed.getsockname()
    unsupported_family = 255
    monkeypatch.setattr(socket, "getaddrinfo", lambda *args: [
        (unsupported_family, socket.SOCK_STREAM, 0, "", ("203.0.113.1", 0)),
        *((socket.AF_INET, socket.SOCK_STREAM, socket.IPPROTO_TCP, "", address)
          for address in (refused, first.getsockname(), second.getsockname())),
    ])
    try:
        # each address's own port is replaced with the port dialled
        with wire.dial("ordered.test", first.getsockname()[1], None, 2.0) as sock:
            assert sock.getpeername() == first.getsockname()
            assert sock.gettimeout() == 2.0
    finally:
        first.close()
        second.close()


def test_dial_raises_the_last_address_error_or_the_lookup_error(monkeypatch):
    with socket.socket() as closed:
        closed.bind(("127.0.0.1", 0))
        port = closed.getsockname()[1]
    with pytest.raises(ConnectionRefusedError):
        wire.dial("127.0.0.1", port, None, 2.0)
    lookup_failed = socket.gaierror(socket.EAI_NONAME, "Name or service not known")

    def unresolvable(*args):
        raise lookup_failed

    monkeypatch.setattr(socket, "getaddrinfo", unresolvable)
    with pytest.raises(socket.gaierror):
        wire.dial("nowhere.test", port, None, 2.0)


# Calls that open a connection or build a TLS client context of their own.
_OWN_TRANSPORT = {
    ("socket", "create_connection"), ("socket", "socket"),
    ("ssl", "SSLContext"), ("ssl", "create_default_context"),
}
# Methods that load credentials into a TLS context, whatever the receiver.
_CREDENTIAL_LOADS = {"load_cert_chain", "load_verify_locations"}


def test_only_wire_dials_or_builds_a_tls_client_context():
    """Every probe connects with wire.dial and builds its TLS contexts with
    wire.client_context, so the vantage and identity rules live in one
    place, and no scanner module loads credentials outside its per-process
    cache. cli's ``testbed down`` port check is no probe."""
    stray = []
    for path in sorted(pathlib.Path(wire.__file__).parent.glob("*.py")):
        if path.name == "wire.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # ast.walk visits outer functions first, so the innermost name wins
        function = {
            inner: node.name
            for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            receiver = getattr(node.func.value, "id", None)
            own = ((receiver, node.func.attr) in _OWN_TRANSPORT
                   or node.func.attr in _CREDENTIAL_LOADS)
            where = (path.name, function.get(node))
            if own and where != ("cli.py", "_testbed_down"):
                stray.append((*where, node.lineno, ast.unparse(node.func)))
    assert stray == []


# The functions outside wire that ask for a TLS client context: each makes
# the TLS connection or the ClientHello it asks for.
_CONTEXT_ASKERS = {
    ("tlsaudit.py", "probe_tls"),  # DB-01's three handshakes
    ("netprobe.py", "_client_hello"),  # NET's ClientHello, written in memory
}


def test_client_contexts_are_asked_for_only_where_tls_is_spoken():
    """wire.client_context is the one cache of TLS client contexts, so no
    probe module keeps contexts of its own to hand on."""
    places = set()
    for path in sorted(pathlib.Path(wire.__file__).parent.glob("*.py")):
        if path.name == "wire.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # ast.walk visits outer functions first, so the innermost name wins
        function = {
            inner: node.name
            for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "client_context" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None),
            ):
                places.add((path.name, function.get(node)))
    assert places == _CONTEXT_ASKERS
