import ast
import pathlib
import socket
import threading
import time

import pytest

from utmaudit import netprobe
from utmaudit.manifest import Endpoint, parse_manifest
from utmaudit.netprobe import (
    CONFIRM_SETTLE_FACTOR,
    Outcome,
    ReachabilityObservation,
    check_zones,
    classify_observations,
    probe_reachability,
)
from utmaudit.results import CheckStatus
from utmaudit.wire import SourceUnavailable


class _Listener:
    """Accept loop with a configurable per-connection behaviour."""

    def __init__(self, behaviour):
        self.behaviour = behaviour
        self.received = []
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]
        self._stop = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        self.sock.settimeout(0.1)
        while not self._stop.is_set():
            try:
                conn, _ = self.sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                self.behaviour(conn, self.received)
            finally:
                conn.close()

    def close(self):
        self._stop.set()
        self.sock.close()
        self.thread.join(timeout=2)


def _hold_open(conn, received):
    conn.settimeout(0.5)
    try:
        received.append(conn.recv(64))
    except socket.timeout:
        received.append(b"")


def _drop_immediately(conn, received):
    pass  # close without sending anything


def _send_banner(conn, received):
    conn.sendall(b"ready\n")
    time.sleep(0.05)


def _hold_until_peer_closes(conn, received):
    conn.settimeout(5)
    chunks = []
    try:
        while chunk := conn.recv(4096):
            chunks.append(chunk)
    except OSError:
        pass
    received.append(b"".join(chunks))


def _answer_then_hold(conn, received):
    # a service that speaks only when spoken to
    conn.settimeout(5)
    try:
        received.append(conn.recv(4096))
        conn.sendall(b"ready\n")
    except OSError:
        return
    _hold_until_peer_closes(conn, [])


def _wait_for(received, count, timeout_s=2.0):
    deadline = time.monotonic() + timeout_s
    while len(received) < count and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.05)  # long enough for an unexpected extra connection to land


def _probe(port, **kw):
    ep = Endpoint(host="127.0.0.1", port=port, scheme="tcp")
    return probe_reachability(ep, None, **kw)


def test_open_listener_is_connect_ok():
    listener = _Listener(_hold_open)
    try:
        obs = _probe(listener.port, settle_ms=150)
        assert obs.outcome is Outcome.CONNECT_OK
    finally:
        listener.close()


def test_banner_service_is_connect_ok_quickly():
    listener = _Listener(_send_banner)
    try:
        start = time.monotonic()
        obs = _probe(listener.port, settle_ms=1000)
        assert obs.outcome is Outcome.CONNECT_OK
        # data arrival short-circuits the settle window
        assert time.monotonic() - start < 0.9
    finally:
        listener.close()


def test_policy_drop_is_connect_refused():
    listener = _Listener(_drop_immediately)
    try:
        obs = _probe(listener.port, settle_ms=300)
        assert obs.outcome is Outcome.CONNECT_REFUSED
    finally:
        listener.close()


def test_closed_port_is_connect_refused():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    obs = _probe(port)
    assert obs.outcome is Outcome.CONNECT_REFUSED


def test_saturated_backlog_times_out_with_elapsed_at_least_timeout():
    # listen(0) leaves a one-slot accept queue; once full, the kernel drops
    # further SYNs silently, so a fresh connect stalls until its timeout
    server = socket.socket()
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind(("127.0.0.1", 0))
    server.listen(0)
    port = server.getsockname()[1]
    fillers = []
    try:
        for _ in range(4):
            filler = socket.socket()
            filler.settimeout(0.2)
            try:
                filler.connect(("127.0.0.1", port))
                fillers.append(filler)
            except OSError:
                filler.close()
                break
        ep = Endpoint(host="127.0.0.1", port=port, scheme="tcp")
        obs = probe_reachability(ep, None, timeout_ms=300)
        assert obs.outcome is Outcome.TIMEOUT
        assert obs.elapsed_ms >= 300
    finally:
        for filler in fillers:
            filler.close()
        server.close()


@pytest.mark.parametrize("scheme", ["tcp", "https"])
def test_tls_schemes_greet_with_one_client_hello(scheme):
    listener = _Listener(_hold_until_peer_closes)
    try:
        ep = Endpoint(host="127.0.0.1", port=listener.port, scheme=scheme)
        obs = probe_reachability(ep, None, settle_ms=100)
        _wait_for(listener.received, 1)
    finally:
        listener.close()
    assert obs.outcome is Outcome.CONNECT_OK
    [greeting] = listener.received
    # one TLS handshake record (0x16) holding a ClientHello (type 0x01)
    assert greeting[0] == 0x16 and greeting[5] == 0x01
    assert len(greeting) == 5 + int.from_bytes(greeting[3:5], "big")


def test_http_greets_with_head_request():
    listener = _Listener(_hold_until_peer_closes)
    try:
        ep = Endpoint(host="127.0.0.1", port=listener.port, scheme="http")
        probe_reachability(ep, None, settle_ms=100)
        _wait_for(listener.received, 1)
    finally:
        listener.close()
    assert listener.received == [
        f"HEAD / HTTP/1.0\r\nHost: 127.0.0.1:{listener.port}\r\n\r\n".encode()
    ]


def test_answer_to_the_greeting_ends_the_probe_well_within_the_settle():
    listener = _Listener(_answer_then_hold)
    try:
        obs = _probe(listener.port, settle_ms=2000)
    finally:
        listener.close()
    assert obs.outcome is Outcome.CONNECT_OK
    assert obs.elapsed_ms < 500


def test_close_after_greeting_is_decided_by_a_silent_probe():
    # _hold_open reads what arrives within 0.5 s, then closes: the greeting
    # is read and closed on, so a fresh connection that sends no bytes
    # decides, and there the close before any data reads as refused
    listener = _Listener(_hold_open)
    try:
        obs = _probe(listener.port, settle_ms=1000)
        _wait_for(listener.received, 2)
    finally:
        listener.close()
    assert obs.outcome is Outcome.CONNECT_REFUSED
    assert len(listener.received) == 2
    assert listener.received[0].startswith(b"\x16")
    assert listener.received[1] == b""


# ---------------------------------------------------------------------------
# Confirming an external ConnectOk on a restricted endpoint
# ---------------------------------------------------------------------------

_SETTLE_MS = 100


def _closed_port():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def _silent_listener():
    """A listening socket that never accepts: the kernel completes each
    connect, and the peer never sends a byte."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(8)
    return sock


_HEAD = b"""\
[target]
mode = remote

[client]
client_id = auditor
client_secret = 0123456789abcdef0123456789abcdef0123456789abcdef
"""


def _kms_zones(listener):
    auth = _silent_listener()  # a public service that is up
    try:
        manifest = parse_manifest(_HEAD + f"""
[component auth]
role = OAuthServer
endpoints = https://127.0.0.1:{auth.getsockname()[1]}

[component kms]
role = KeyManagement
endpoints = tcp://127.0.0.1:{listener.port}
""".encode())
        net01, _ = check_zones(manifest, settle_ms=_SETTLE_MS)
    finally:
        auth.close()
    kms_line = f"kms tcp://127.0.0.1:{listener.port} from external"
    return net01, [line for line in net01.evidence if line.startswith(kms_line)]


def test_restricted_endpoint_that_closes_late_is_judged_refused():
    # the first probe's settle window ends before the close; the confirming
    # probe, five windows long, sees it
    def close_late(conn, received):
        time.sleep(2 * _SETTLE_MS / 1000)

    listener = _Listener(close_late)
    try:
        net01, lines = _kms_zones(listener)
    finally:
        listener.close()
    assert net01.status is CheckStatus.PASS
    assert len(lines) == 1 and lines[0].endswith(": refused")


def test_restricted_endpoint_that_stays_open_is_judged_reachable():
    listener = _Listener(_hold_until_peer_closes)
    try:
        net01, lines = _kms_zones(listener)
    finally:
        listener.close()
    assert net01.status is CheckStatus.FAIL and net01.component_id == "kms"
    assert len(lines) == 1 and lines[0].endswith(": reachable")
    assert len(listener.received) == 2  # the first probe and its confirmation


def test_restricted_endpoint_that_answers_fails_net01_without_the_long_settle():
    # the confirming probe greets too, so an answer ends it at once
    listener = _Listener(_answer_then_hold)
    try:
        start = time.monotonic()
        net01, lines = _kms_zones(listener)
        elapsed = time.monotonic() - start
    finally:
        listener.close()
    assert net01.status is CheckStatus.FAIL and net01.component_id == "kms"
    assert len(lines) == 1 and lines[0].endswith(": reachable")
    assert len(listener.received) == 2
    assert elapsed < CONFIRM_SETTLE_FACTOR * _SETTLE_MS / 1000 / 2


# ---------------------------------------------------------------------------
# The sweep: every probe in flight at once
# ---------------------------------------------------------------------------


def test_forty_silent_restricted_endpoints_take_one_settle_and_one_confirmation():
    # every probe waits out its whole settle window and then its whole
    # confirmation window; probed 16 at a time they would take 3 of each
    auth, *dbs = listeners = [_silent_listener() for _ in range(41)]
    try:
        manifest = parse_manifest(_HEAD + "".join([
            "\n[component auth]\nrole = OAuthServer\n"
            f"endpoints = https://127.0.0.1:{auth.getsockname()[1]}\n",
            *(f"\n[component db{i}]\nrole = DbNode\n"
              f"endpoints = tcp://127.0.0.1:{sock.getsockname()[1]}\n"
              for i, sock in enumerate(dbs)),
        ]).encode())
        start = time.monotonic()
        net01, _ = check_zones(manifest, settle_ms=_SETTLE_MS)
        elapsed = time.monotonic() - start
    finally:
        for sock in listeners:
            sock.close()
    assert net01.status is CheckStatus.FAIL
    assert sum(line.endswith(": reachable") for line in net01.evidence) == 40
    windows = (1 + CONFIRM_SETTLE_FACTOR) * _SETTLE_MS / 1000
    assert windows <= elapsed < 2 * windows


def test_a_named_host_is_looked_up_once_before_any_probe_starts(monkeypatch):
    # a slow resolver must neither run per probe nor eat into any probe's
    # connect deadline or settle window
    lookup_s = 0.5
    lookups = []

    def slow_lookup(host, port, *args):
        lookups.append(host)
        time.sleep(lookup_s)
        return [(socket.AF_INET, socket.SOCK_STREAM, socket.IPPROTO_TCP, "",
                 ("127.0.0.1", port))]

    auth, db = _silent_listener(), _silent_listener()
    kms = _Listener(_drop_immediately)  # refused only by the silent re-probe
    monkeypatch.setattr(socket, "getaddrinfo", slow_lookup)
    try:
        manifest = parse_manifest(_HEAD + f"""
[component auth]
role = OAuthServer
endpoints = https://utm.test:{auth.getsockname()[1]}

[component kms]
role = KeyManagement
endpoints = tcp://utm.test:{kms.port}

[component db]
role = DbNode
endpoints = tcp://utm.test:{db.getsockname()[1]}
""".encode())
        observations, _ = netprobe.collect_observations(
            manifest, settle_ms=_SETTLE_MS
        )
    finally:
        auth.close()
        db.close()
        kms.close()
    assert lookups == ["utm.test"]  # the re-probe and confirmation reuse it
    outcomes = {obs.component_id: obs for obs in observations}
    assert outcomes["auth"].outcome is Outcome.CONNECT_OK
    assert outcomes["kms"].outcome is Outcome.CONNECT_REFUSED
    assert outcomes["db"].outcome is Outcome.CONNECT_OK  # after its confirmation
    assert outcomes["auth"].elapsed_ms < lookup_s * 1000
    assert outcomes["kms"].elapsed_ms < lookup_s * 1000


def test_netprobe_starts_no_threads():
    tree = ast.parse(pathlib.Path(netprobe.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    } | {
        node.module for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
    }
    assert not imported & {"threading", "_thread", "concurrent", "concurrent.futures"}


def test_a_source_the_host_cannot_bind_is_unavailable():
    # 192.0.2.0/24 is reserved for documentation, so no host holds it; the
    # bind fails before any packet leaves
    ep = Endpoint(host="127.0.0.1", port=_closed_port(), scheme="tcp")
    with pytest.raises(SourceUnavailable, match="192.0.2.1"):
        probe_reachability(ep, "192.0.2.1")


@pytest.mark.parametrize("timeout_ms", [0, -1])
def test_a_probe_timeout_below_one_ms_is_rejected(timeout_ms):
    with pytest.raises(ValueError, match="at least 1 ms"):
        check_zones(_manifest(), timeout_ms=timeout_ms)


# ---------------------------------------------------------------------------
# Pure classification over recorded observations
# ---------------------------------------------------------------------------

_MANIFEST = """\
[target]
mode = remote

[client]
client_id = auditor
client_secret = 0123456789abcdef0123456789abcdef0123456789abcdef

[component auth]
role = OAuthServer
endpoints = https://127.0.0.1:8440

[component gw]
role = HttpsGateway
endpoints = https://127.0.0.1:8441

[component db]
role = DbNode
endpoints = tcp://127.0.0.1:8446
"""


def _manifest():
    return parse_manifest(_MANIFEST.encode())


def _obs(comp, port, source, outcome):
    return ReachabilityObservation(
        endpoint=Endpoint(host="127.0.0.1", port=port, scheme="tcp"),
        component_id=comp,
        source_label=source,
        outcome=outcome,
        elapsed_ms=3,
    )


def test_all_in_expected_zones_passes():
    m = _manifest()
    observations = [
        _obs("auth", 8440, "external", Outcome.CONNECT_OK),
        _obs("gw", 8441, "external", Outcome.CONNECT_OK),
        _obs("db", 8446, "external", Outcome.CONNECT_REFUSED),
        _obs("db", 8446, "allowlisted:127.0.0.2", Outcome.CONNECT_OK),
    ]
    net01, net02 = classify_observations(m, observations, allowlist_usable=True)
    assert net01.check_id == "NET-01" and net01.status is CheckStatus.PASS
    assert net02.check_id == "NET-02" and net02.status is CheckStatus.PASS


def test_restricted_component_reachable_externally_fails_net01():
    m = _manifest()
    observations = [
        _obs("auth", 8440, "external", Outcome.CONNECT_OK),
        _obs("gw", 8441, "external", Outcome.CONNECT_OK),
        _obs("db", 8446, "external", Outcome.CONNECT_OK),
    ]
    net01, net02 = classify_observations(m, observations, allowlist_usable=True)
    assert net01.status is CheckStatus.FAIL
    assert net01.component_id == "db"
    assert net02.status is CheckStatus.PASS


def test_unreachable_public_component_fails_net02():
    m = _manifest()
    observations = [
        _obs("auth", 8440, "external", Outcome.CONNECT_OK),
        _obs("gw", 8441, "external", Outcome.TIMEOUT),
        _obs("db", 8446, "external", Outcome.CONNECT_REFUSED),
    ]
    net01, net02 = classify_observations(m, observations, allowlist_usable=True)
    assert net01.status is CheckStatus.PASS
    assert net02.status is CheckStatus.FAIL
    assert net02.component_id == "gw"
    assert any("timeout" in line for line in net02.evidence)


def test_missing_allowlist_vantage_noted_but_not_failing():
    m = _manifest()
    observations = [
        _obs("auth", 8440, "external", Outcome.CONNECT_OK),
        _obs("gw", 8441, "external", Outcome.CONNECT_OK),
        _obs("db", 8446, "external", Outcome.CONNECT_REFUSED),
    ]
    net01, _ = classify_observations(m, observations, allowlist_usable=False)
    assert net01.status is CheckStatus.PASS
    assert any("not assessable" in line for line in net01.evidence)


def test_overrestricted_component_warns_without_failing():
    m = _manifest()
    observations = [
        _obs("auth", 8440, "external", Outcome.CONNECT_OK),
        _obs("gw", 8441, "external", Outcome.CONNECT_OK),
        _obs("db", 8446, "external", Outcome.CONNECT_REFUSED),
        _obs("db", 8446, "allowlisted:127.0.0.2", Outcome.CONNECT_REFUSED),
    ]
    net01, _ = classify_observations(m, observations, allowlist_usable=True)
    assert net01.status is CheckStatus.PASS
    assert any("over-restriction" in line for line in net01.evidence)


def test_no_endpoint_reachable_from_any_vantage_leaves_net01_not_assessable():
    m = _manifest()
    observations = [
        _obs("auth", 8440, "external", Outcome.CONNECT_REFUSED),
        _obs("gw", 8441, "external", Outcome.TIMEOUT),
        _obs("db", 8446, "external", Outcome.CONNECT_REFUSED),
        _obs("db", 8446, "allowlisted:127.0.0.2", Outcome.CONNECT_REFUSED),
    ]
    net01, net02 = classify_observations(m, observations, allowlist_usable=True)
    assert net01.status is CheckStatus.NOT_ASSESSABLE
    assert net01.evidence[-1].startswith("no endpoint reachable from any vantage")
    assert net02.status is CheckStatus.FAIL


def test_classification_deterministic_on_replay():
    m = _manifest()
    observations = [
        _obs("auth", 8440, "external", Outcome.CONNECT_OK),
        _obs("gw", 8441, "external", Outcome.TIMEOUT),
        _obs("db", 8446, "external", Outcome.CONNECT_OK),
    ]
    first = classify_observations(m, observations, allowlist_usable=True)
    second = classify_observations(m, list(observations), allowlist_usable=True)
    assert [(r.check_id, r.status, r.evidence) for r in first] == [
        (r.check_id, r.status, r.evidence) for r in second
    ]
