"""LOG checks against a stub log repository that answers malformed bodies."""

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from utmaudit.jwtkit import make_token
from utmaudit.logaudit import check_logs
from utmaudit.manifest import parse_manifest
from utmaudit.results import CheckStatus
from utmaudit.wire import HttpClient

LOG_IDS = ("LOG-01", "LOG-02", "LOG-03", "LOG-04")


class _StubRepo(BaseHTTPRequestHandler):
    """Authenticated reads get `listing`, appends get `append`; overwrites,
    deletes and anonymous reads are refused."""

    listing = b'{"records": []}'
    append = b'{"seq": 1}'

    def log_message(self, *args):
        pass

    def _reply(self, status, body=b""):
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.headers.get("Authorization"):
            self._reply(200, self.listing)
        else:
            self._reply(401)

    def do_POST(self):
        self._reply(201, self.append)

    def do_PUT(self):
        self._reply(403)

    def do_DELETE(self):
        self._reply(403)


@pytest.fixture
def stub_repo():
    servers = []

    def start(**bodies):
        server = ThreadingHTTPServer(("127.0.0.1", 0), type("Repo", (_StubRepo,), bodies))
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return parse_manifest(f"""\
[target]
mode = remote

[client]
client_id = auditor
client_secret = 0123456789abcdef0123456789abcdef

[component auth]
role = OAuthServer
endpoints = https://127.0.0.1:1

[component logs]
role = LogRepository
endpoints = http://127.0.0.1:{server.server_address[1]}
audience = logs
read = GET /records scope=logs.read
write = POST /records scope=logs.write
""".encode())

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def _mint(**_):
    return make_token({"alg": "none"}, {"sub": "auditor"}, None)


def _check_logs(manifest):
    results = check_logs(manifest, _mint, HttpClient(timeout_s=2.0), LOG_IDS)
    return {r.check_id: r for r in results}


@pytest.mark.parametrize("listing", [b"<html>busy</html>", b"[1, 2]", b'{"records": 7}'])
def test_unreadable_listing_costs_only_the_snapshot_checks(stub_repo, listing):
    results = _check_logs(stub_repo(listing=listing))
    for check_id in ("LOG-01", "LOG-03"):
        assert results[check_id].status is CheckStatus.NOT_ASSESSABLE
        assert results[check_id].evidence == [
            "logs: record listing is not a JSON object with a records list"
        ]
    assert results["LOG-02"].status is CheckStatus.PASS
    assert results["LOG-04"].status is CheckStatus.PASS


def test_append_answer_without_json_object_is_not_assessable(stub_repo):
    results = _check_logs(stub_repo(append=b"[]"))
    assert results["LOG-02"].status is CheckStatus.NOT_ASSESSABLE
    assert results["LOG-02"].evidence
    assert results["LOG-04"].status is CheckStatus.PASS
