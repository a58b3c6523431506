import json
import socket
import struct
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import pytest
from hypothesis import given, strategies as st

from utmaudit.manifest import parse_manifest
from utmaudit.results import CheckStatus
from utmaudit.sqliprobe import (
    CorpusError,
    Payload,
    ResponseSummary,
    SqliConfig,
    check_sql_injection,
    load_corpus,
    parse_corpus,
    response_distance,
    scan_inject_target,
    summarize_response,
)
from utmaudit.testbed.store import IsaStore, QueryError
from utmaudit.wire import HttpClient


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------


def test_packaged_corpus_loads_and_excludes_time_by_default():
    payloads = load_corpus()
    kinds = {p.kind for p in payloads}
    assert "error" in kinds and "bool_true" in kinds and "bool_false" in kinds
    assert "time" not in kinds
    assert any(p.kind == "time" for p in load_corpus(include_time_based=True))


def test_corpus_payloads_are_read_only():
    forbidden = ("drop ", "delete ", "update ", "insert ", "truncate ", "alter ")
    for payload in load_corpus(include_time_based=True):
        lowered = payload.text.lower()
        for verb in forbidden:
            assert verb not in lowered, payload.text


def test_parse_corpus_rejects_unknown_class():
    with pytest.raises(CorpusError):
        parse_corpus("union|' UNION SELECT 1")


def test_parse_corpus_rejects_orphan_pair_members():
    with pytest.raises(CorpusError):
        parse_corpus("bool_true|x' AND '1'='1")
    with pytest.raises(CorpusError):
        parse_corpus("bool_false|x' AND '1'='2")
    with pytest.raises(CorpusError):
        parse_corpus("bool_true|a\nerror|'\nbool_false|b")


def test_baseline_substitution():
    payload = Payload(kind="bool_true", text="{BASELINE}' AND '1'='1")
    assert payload.rendered("zone-a") == "zone-a' AND '1'='1"


# ---------------------------------------------------------------------------
# Distance metric
# ---------------------------------------------------------------------------


def test_distance_identity_and_status_mismatch():
    a = summarize_response(200, b'{"rows": [1, 2, 3]}')
    assert response_distance(a, a) == 0.0
    b = summarize_response(500, b'{"rows": [1, 2, 3]}')
    assert response_distance(a, b) == 1.0


def test_distance_tolerates_formatting_jitter():
    rows = [{"id": "isa-001", "area": "zone-a"}, {"id": "isa-002", "area": "zone-a"}]
    compact = json.dumps(rows, separators=(",", ":")).encode()
    spaced = json.dumps(rows, indent=2).encode()
    d = response_distance(
        summarize_response(200, compact), summarize_response(200, spaced)
    )
    assert d <= 0.15


def test_distance_separates_disjoint_result_sets():
    full = json.dumps({"rows": [{"id": f"isa-{n}", "area": "zone-a"} for n in range(4)]})
    empty = json.dumps({"rows": []})
    d = response_distance(
        summarize_response(200, full.encode()), summarize_response(200, empty.encode())
    )
    assert d > 0.15


@given(
    st.binary(max_size=400),
    st.binary(max_size=400),
    st.sampled_from([200, 404, 500]),
    st.sampled_from([200, 404, 500]),
)
def test_distance_bounded_and_symmetric(body_a, body_b, status_a, status_b):
    a = summarize_response(status_a, body_a)
    b = summarize_response(status_b, body_b)
    d = response_distance(a, b)
    assert 0.0 <= d <= 1.0
    assert d == response_distance(b, a)
    assert response_distance(a, a) == 0.0


# ---------------------------------------------------------------------------
# Live scans against the two query routes
# ---------------------------------------------------------------------------


class _IsaHandler(BaseHTTPRequestHandler):
    store = None
    concat = False

    def log_message(self, *args):
        pass

    def do_GET(self):
        parsed = urlparse(self.path)
        if parsed.path != "/isa":
            self._reply(404, {"error": "not found"})
            return
        area = parse_qs(parsed.query).get("area", [""])[0]
        try:
            if self.concat:
                rows = self.store.query_concat(area)
            else:
                rows = self.store.query_param(area)
        except QueryError as exc:
            self._reply(500, {"error": str(exc)})
            return
        self._reply(200, {"rows": rows})

    def _reply(self, status, obj):
        body = json.dumps(obj).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def isa_server():
    servers = []

    def start(concat):
        handler = type(
            "Handler", (_IsaHandler,), {"store": IsaStore(), "concat": concat}
        )
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append((server, thread))
        return server.server_address[1]

    yield start
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=2)


def _manifest(port):
    text = f"""\
[target]
mode = remote

[client]
client_id = auditor
client_secret = 0123456789abcdef0123456789abcdef0123456789abcdef

[component auth]
role = OAuthServer
endpoints = https://127.0.0.1:1

[component gw]
role = HttpsGateway
endpoints = http://127.0.0.1:{port}
inject = GET /isa param=area baseline=zone-a
"""
    return parse_manifest(text.encode())


def test_concatenating_route_is_flagged(isa_server):
    port = isa_server(concat=True)
    manifest = _manifest(port)
    comp = manifest.component("gw")
    verdict = scan_inject_target(comp, comp.inject, HttpClient())
    assert verdict.vulnerable
    joined = "\n".join(verdict.evidence)
    assert "error signature" in joined
    assert "boolean differential" in joined


def test_parameterized_route_is_clean(isa_server):
    port = isa_server(concat=False)
    manifest = _manifest(port)
    comp = manifest.component("gw")
    verdict = scan_inject_target(comp, comp.inject, HttpClient())
    assert not verdict.vulnerable
    assert verdict.assessable
    assert any("no error signatures" in line for line in verdict.evidence)


def test_check_fails_on_vulnerable_gateway(isa_server):
    port = isa_server(concat=True)
    result = check_sql_injection(_manifest(port), HttpClient())
    assert result.check_id == "DB-02"
    assert result.status is CheckStatus.FAIL
    assert result.component_id == "gw"


def test_check_passes_on_safe_gateway(isa_server):
    port = isa_server(concat=False)
    result = check_sql_injection(_manifest(port), HttpClient())
    assert result.status is CheckStatus.PASS


def test_unreachable_gateway_not_assessable():
    result = check_sql_injection(
        _manifest(1), HttpClient(timeout_s=0.5)
    )
    assert result.status is CheckStatus.NOT_ASSESSABLE


def test_no_declared_parameters_passes_with_note(isa_server):
    port = isa_server(concat=True)
    text = f"""\
[target]
mode = remote

[client]
client_id = auditor
client_secret = 0123456789abcdef0123456789abcdef0123456789abcdef

[component auth]
role = OAuthServer
endpoints = https://127.0.0.1:1

[component gw]
role = HttpsGateway
endpoints = http://127.0.0.1:{port}
"""
    result = check_sql_injection(parse_manifest(text.encode()), HttpClient())
    assert result.status is CheckStatus.PASS
    assert result.evidence == ["no injectable parameters declared"]


def test_scan_repeats_identically(isa_server):
    port = isa_server(concat=True)
    manifest = _manifest(port)
    comp = manifest.component("gw")
    first = scan_inject_target(comp, comp.inject, HttpClient())
    second = scan_inject_target(comp, comp.inject, HttpClient())
    assert first.evidence == second.evidence


class _PayloadResetHandler(_IsaHandler):
    """Answers the baseline value; resets the connection on anything else,
    the way a WAF drops requests it classifies as attacks."""

    def do_GET(self):
        area = parse_qs(urlparse(self.path).query).get("area", [""])[0]
        if area == "zone-a":
            super().do_GET()
            return
        self.connection.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        self.close_connection = True


def test_payloads_dropped_at_transport_are_not_assessable():
    handler = type(
        "Handler", (_PayloadResetHandler,), {"store": IsaStore(), "concat": True}
    )
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        result = check_sql_injection(_manifest(server.server_address[1]), HttpClient())
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=2)
    count = len(load_corpus())
    assert result.status is CheckStatus.NOT_ASSESSABLE
    assert result.evidence == [
        f"gw GET /isa param area: {count} of {count} payload requests failed "
        "at transport level"
    ]
