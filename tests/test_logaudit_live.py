"""LOG checks against a stub log repository that answers malformed bodies."""

import contextlib
import dataclasses
import functools
from http.server import BaseHTTPRequestHandler

import pytest

from utmaudit.logaudit import check_logs
from utmaudit.manifest import parse_manifest
from utmaudit.results import CheckStatus
from utmaudit.testbed import httpbase
from utmaudit.wire import HttpClient, WireError

from .oracles.token_signing import make_token

LOG_IDS = ("LOG-01", "LOG-02", "LOG-03", "LOG-04")


class _StubRepo(BaseHTTPRequestHandler):
    """Authenticated reads get `listing` with `listing_status`, appends get
    `append` with `append_status`; overwrites, deletes and anonymous reads
    are refused."""

    listing = b'{"records": []}'
    listing_status = 200
    append = b'{"seq": 1}'
    append_status = 201

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
            self._reply(self.listing_status, self.listing)
        else:
            self._reply(401)

    def do_POST(self):
        self._reply(self.append_status, self.append)

    def do_PUT(self):
        self._reply(403)

    def do_DELETE(self):
        self._reply(403)


@pytest.fixture
def stub_repo():
    servers = []

    def start(**bodies):
        server = httpbase.TestbedHttpServer(
            ("127.0.0.1", 0), type("Repo", (_StubRepo,), bodies), None
        )
        server.start()
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
        server.stop()


def _mint(**_):
    return make_token({"alg": "none"}, {"sub": "auditor"}, None)


class _ReadsDown(HttpClient):
    """Every read fails at transport level, authorized or not."""

    def request(self, method, url, **kwargs):
        if method == "GET":
            raise WireError(f"{method} {url}: timed out")
        return super().request(method, url, **kwargs)


def _check_logs(manifest, client=HttpClient):
    with contextlib.closing(client(timeout_s=2.0)) as http:
        results = check_logs(manifest, _mint, http, LOG_IDS)
    return {r.check_id: r for r in results}


@pytest.mark.parametrize("listing", [
    b"<html>busy</html>", b"[1, 2]", b'{"records": 7}', b"{}",
])
def test_unreadable_listing_costs_only_the_snapshot_checks(stub_repo, listing):
    results = _check_logs(stub_repo(listing=listing))
    for check_id in ("LOG-01", "LOG-03"):
        assert results[check_id].status is CheckStatus.NOT_ASSESSABLE
        assert results[check_id].evidence == [
            "logs: record listing is not a JSON object with a records list"
        ]
    assert results["LOG-02"].status is CheckStatus.PASS
    assert results["LOG-04"].status is CheckStatus.PASS


@pytest.mark.parametrize("append_status, status", [
    (201, CheckStatus.FAIL), (400, CheckStatus.NOT_ASSESSABLE),
], ids=["forged-link-accepted", "forged-link-rejected"])
def test_an_empty_log_has_no_link_to_verify(stub_repo, append_status, status):
    # No link was verified, so the chain is not assessed; a forged link that
    # the repository accepts still fails LOG-03.
    word = "accepted" if append_status == 201 else "rejected"
    results = _check_logs(stub_repo(append_status=append_status))
    assert results["LOG-03"].status is status
    assert results["LOG-03"].evidence == [
        "logs: repository holds no records; no hash link to verify",
        f"append with forged chain link {word}: HTTP {append_status}",
    ]
    assert results["LOG-01"].status is CheckStatus.NOT_ASSESSABLE
    assert results["LOG-01"].evidence == ["logs: repository holds no records to sample"]
    if append_status == 400:
        assert results["LOG-02"].status is CheckStatus.NOT_ASSESSABLE
        assert results["LOG-02"].evidence == [
            "sacrificial append rejected (HTTP 400); mutation probing has no safe target"
        ]


@pytest.mark.parametrize("fault", ["503", "transport", "no-read"])
def test_a_listing_that_cannot_be_fetched_costs_the_checks_that_read_it(stub_repo, fault):
    # LOG-04's refusals mean nothing unless the listing read, its control,
    # was answered: a repository that is down refuses every read.
    if fault == "no-read":
        manifest = stub_repo()
        repo = manifest.component("logs")
        manifest = dataclasses.replace(manifest, components=tuple(
            dataclasses.replace(c, read=None) if c is repo else c
            for c in manifest.components
        ))
        results = _check_logs(manifest)
        line = "logs: no read action declared"
    elif fault == "503":
        manifest = stub_repo(listing_status=503)
        results = _check_logs(manifest)
        line = "logs: record listing returned HTTP 503"
    else:
        manifest = stub_repo()
        results = _check_logs(manifest, _ReadsDown)
        line = "logs: GET {url}: timed out"
    url = manifest.component("logs").primary_endpoint().url("/records")
    for check_id in ("LOG-01", "LOG-03", "LOG-04"):
        assert results[check_id].status is CheckStatus.NOT_ASSESSABLE
        assert results[check_id].evidence == [line.format(url=url)]
    assert results["LOG-02"].status is CheckStatus.PASS
    assert results["LOG-02"].evidence == [
        "sacrificial record appended for mutation probing",
        "overwrite attempt rejected: HTTP 403",
        "delete attempt rejected: HTTP 403",
    ]


def test_append_answer_without_json_object_is_not_assessable(stub_repo):
    # Without an integer seq, the overwrite and delete would go to a guessed
    # record URL, so their rejection proves nothing.
    for append in (b"[]", b"{}", b'{"seq": "../1"}', b'{"seq": true}'):
        results = _check_logs(stub_repo(append=append))
        assert results["LOG-02"].status is CheckStatus.NOT_ASSESSABLE, append
        assert results["LOG-02"].evidence == [
            "sacrificial append answered without an integer seq; the record to "
            "mutate is unknown"
        ], append
        assert results["LOG-04"].status is CheckStatus.PASS, append


def test_a_repository_that_serves_every_source_fails_log04(stub_repo):
    # The stub answers every source address, so the tokened read from the
    # external vantage (the host's default source) is served.
    results = _check_logs(
        stub_repo(), functools.partial(HttpClient, allowlisted_source="127.0.0.2")
    )
    assert results["LOG-04"].status is CheckStatus.FAIL
    assert results["LOG-04"].component_id == "logs"
    assert results["LOG-04"].evidence == [
        "unauthenticated read rejected: HTTP 401",
        "records readable from the external network vantage: HTTP 200",
    ]
