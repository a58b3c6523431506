"""Secret-strength arithmetic and token-request guard rails."""

import concurrent.futures
import contextlib
import json
import math
import socket
import sys
import threading
import time

import pytest

from utmaudit import oauthaudit
from utmaudit.manifest import ComponentRole, ComponentSpec, Endpoint, parse_manifest
from utmaudit.oauthaudit import (
    AuditorError,
    TokenRefused,
    TokenRequest,
    TokenResponse,
    check_oauth,
    estimate_secret_strength,
    make_mint,
    request_token,
)
from utmaudit.results import CheckStatus
from utmaudit.wire import HttpClient, HttpResponse, WireError

from .oracles.token_signing import make_token

# Hand-computed closed-form cases: bits = length * log2(charset).
CASES = [
    # 43-char Base64URL exhibiting all four classes -> charset 64
    ("aB9-" * 10 + "xYz", 43, 64, 258.0),
    # 32-char lowercase hex -> charset 16
    ("0123456789abcdef0123456789abcdef", 32, 16, 128.0),
    ("DEADBEEF", 8, 16, 32.0),
    ("1234567890", 10, 10, 10 * math.log2(10)),
    ("abcdefgh", 8, 26, 8 * math.log2(26)),
    ("aB3", 3, 62, 3 * math.log2(62)),
    # 'b' breaks upper-hex, 'A' breaks lower-hex -> class union
    ("AbF3", 4, 62, 4 * math.log2(62)),
    ("a!B2", 4, 92, 4 * math.log2(92)),
    ("----", 4, 2, 4.0),
    ("pass word", 9, 56, 9 * math.log2(56)),
]


@pytest.mark.parametrize("secret,length,charset,bits", CASES)
def test_entropy_table(secret, length, charset, bits):
    estimate = estimate_secret_strength(secret)
    assert estimate.length == length
    assert estimate.charset_size == charset
    assert estimate.estimated_bits == bits  # full precision, no tolerance


def test_entropy_empty_secret():
    estimate = estimate_secret_strength("")
    assert estimate.length == 0
    assert estimate.estimated_bits == 0.0


def test_entropy_formula_holds_for_every_case():
    for secret, _, _, _ in CASES:
        estimate = estimate_secret_strength(secret)
        assert estimate.estimated_bits == estimate.length * math.log2(
            estimate.charset_size
        )


def test_token_request_requires_grant_type():
    with pytest.raises(ValueError, match="grant_type"):
        TokenRequest(grant_type="", client_id="c")


def test_secret_never_sent_over_plaintext():
    server = ComponentSpec(
        id="auth",
        role=ComponentRole.OAUTH_SERVER,
        endpoints=(Endpoint("127.0.0.1", 80, "http"),),
        token_path="/token",
    )
    req = TokenRequest(
        grant_type="client_credentials", client_id="c", client_secret="s3cret"
    )
    with pytest.raises(AuditorError, match="refusing to send client_secret"):
        request_token(server, req, HttpClient())


def test_a_stalled_token_endpoint_is_asked_once():
    """A token endpoint that accepts the connection and never answers costs
    one request deadline: nothing sends the request again."""
    listener = socket.create_server(("127.0.0.1", 0))
    server = ComponentSpec(
        id="auth",
        role=ComponentRole.OAUTH_SERVER,
        endpoints=(Endpoint("127.0.0.1", listener.getsockname()[1], "http"),),
        token_path="/token",
    )
    req = TokenRequest(grant_type="client_credentials", client_id="c")
    with listener, contextlib.closing(HttpClient(timeout_s=0.3)) as http:
        with pytest.raises(WireError, match="timed out"):
            request_token(server, req, http)
        # the kernel completed every handshake; none was answered
        listener.setblocking(False)
        connections = []
        with contextlib.suppress(BlockingIOError):
            while True:
                connections.append(listener.accept()[0])
        for conn in connections:
            conn.close()
    assert len(connections) == 1


class _StubHttp(HttpClient):
    """Answers every request with one fixed status, body and headers."""

    def __init__(self, status, body, headers=()):
        super().__init__()
        self.response = HttpResponse(status, list(headers), body)

    def request(self, *args, **kwargs):
        return self.response


def _token_from(status, body):
    server = ComponentSpec(
        id="auth",
        role=ComponentRole.OAUTH_SERVER,
        endpoints=(Endpoint("127.0.0.1", 443, "https"),),
        token_path="/token",
    )
    req = TokenRequest(grant_type="client_credentials", client_id="c")
    return request_token(server, req, _StubHttp(status, body))


@pytest.mark.parametrize("body", [b"[]", b"null"])
def test_success_body_that_is_not_an_object_is_a_failed_issuance(body):
    result = _token_from(200, body)
    assert not result.ok and result.token is None
    assert result.error == (
        "success body without parseable token: body is not a JSON object"
    )


def test_error_body_that_is_a_list_is_a_failed_issuance():
    result = _token_from(400, b'["invalid_client"]')
    assert not result.ok and result.status == 400
    assert result.error == "error body is not a JSON object"


def test_granted_scope_that_is_not_a_string_leaves_oauth02_not_assessable():
    manifest = parse_manifest(b"""\
[client]
client_id = auditor
client_secret = 0123456789abcdef0123456789abcdef
entitled_scopes = utm.read

[component auth]
role = OAuthServer
endpoints = https://127.0.0.1:1
""")
    token = make_token({"alg": "none"}, {"sub": "auditor"}, None).compact()
    body = json.dumps({"access_token": token, "scope": ["admin"]}).encode()
    [result] = check_oauth(manifest, _StubHttp(200, body), ["OAUTH-02"])
    assert result.status is CheckStatus.NOT_ASSESSABLE
    assert result.evidence == ["granted scope in the token response is not a string"]
    # no scope granted at all
    [result] = check_oauth(
        manifest, _StubHttp(400, b'{"error": "invalid_scope"}'), ["OAUTH-02"]
    )
    assert result.status is CheckStatus.NOT_ASSESSABLE
    assert result.evidence == ["token request for entitled scopes rejected: HTTP 400"]


_AUTH_ONLY = parse_manifest(b"""\
[client]
client_id = auditor
client_secret = 0123456789abcdef0123456789abcdef

[component auth]
role = OAuthServer
endpoints = https://127.0.0.1:1
""")


# Each check's probes: (label, artifact, sent to the token endpoint).
_REFUSED_PROBES = {
    "OAUTH-01": [("issuance without client certificate", "token", True)],
    "OAUTH-05": [("password grant", "token", True), ("implicit flow", "token", False),
                 ("authorization_code flow without PKCE", "code", False)],
    "OAUTH-06": [("authorization request without a state parameter", "code", False)],
}


def _refusal_checks(status, body=b"", location=None):
    """OAUTH-01, -05 and -06 against a server that gives every request one
    answer."""
    http = _StubHttp(status, body, [("Location", location)] if location else [])
    return {r.check_id: r for r in check_oauth(_AUTH_ONLY, http, _REFUSED_PROBES)}


@pytest.mark.parametrize("status, body, detail", [
    (500, b"", ""),
    (503, b'{"error": "temporarily_unavailable"}', " (error=temporarily_unavailable)"),
    (200, b"{}", " (error=success body without parseable token: 'access_token')"),
    (302, b"", ""),
], ids=["500", "503", "200-without-token", "302-without-artifact"])
def test_an_answer_that_is_no_refusal_is_not_assessable(status, body, detail):
    # Only a 4xx, or a redirect that carries an error, refuses; the 302 here
    # carries neither an error nor the artifact.
    location = "https://auditor.invalid/callback?state=audit-state"
    results = _refusal_checks(status, body, location if status == 302 else None)
    for check_id, probes in _REFUSED_PROBES.items():
        assert results[check_id].status is CheckStatus.NOT_ASSESSABLE
        assert results[check_id].evidence == [
            f"{label} answered HTTP {status}{detail if token_endpoint else ''}: "
            f"neither a refusal nor a {artifact}"
            for label, artifact, token_endpoint in probes
        ]


@pytest.mark.parametrize("separator", ["?", "#"], ids=["query", "fragment"])
def test_an_authorization_redirect_that_carries_an_error_is_a_refusal(separator):
    location = f"https://auditor.invalid/callback{separator}error=access_denied&state=s"
    results = _refusal_checks(302, location=location)
    assert results["OAUTH-06"].status is CheckStatus.PASS
    assert results["OAUTH-06"].evidence == [
        "authorization request without a state parameter rejected: HTTP 302 "
        "(error=access_denied)"
    ]
    # a token endpoint refuses with a 4xx alone
    assert results["OAUTH-05"].status is CheckStatus.NOT_ASSESSABLE
    assert results["OAUTH-05"].evidence[0] == (
        "password grant answered HTTP 302: neither a refusal nor a token"
    )


def test_an_implicit_grant_in_the_fragment_fails_oauth05():
    results = _refusal_checks(
        302, location="https://auditor.invalid/callback#access_token=t&state=s"
    )
    assert results["OAUTH-05"].status is CheckStatus.FAIL
    assert "implicit flow completed and granted a token" in results["OAUTH-05"].evidence


@pytest.fixture
def token_requests(monkeypatch):
    """Stubs request_token and records each request's (scope, audience). The
    scope "refused" is answered HTTP 503, the scope "unreachable" raises a
    transport error, and every other scope gets a token."""
    sent = []
    token = make_token({"alg": "none"}, {"sub": "auditor"}, None)

    def answer(server, req, http):
        sent.append((req.scope, req.audience))
        if req.scope == "refused":
            return TokenResponse(ok=False, status=503, error="temporarily_unavailable")
        if req.scope == "unreachable":
            raise WireError("POST https://127.0.0.1:1/token: timed out")
        return TokenResponse(ok=True, status=200, token=token)

    monkeypatch.setattr(oauthaudit, "request_token", answer)
    return sent


def test_mint_requests_each_distinct_token_once(token_requests):
    mint = make_mint(_AUTH_ONLY, HttpClient())
    first = mint(scope="utm.read", audience="gateway")
    assert mint(scope="utm.read", audience="gateway") is first
    mint(scope="utm.read", audience="logs")
    assert token_requests == [("utm.read", "gateway"), ("utm.read", "logs")]


@pytest.mark.parametrize("scope,error,text", [
    ("refused", TokenRefused,
     "auth token endpoint: HTTP 503 (error=temporarily_unavailable)"),
    ("unreachable", WireError, "POST https://127.0.0.1:1/token: timed out"),
])
def test_a_failed_token_request_raises_every_time_and_is_not_repeated(
    token_requests, scope, error, text,
):
    mint = make_mint(_AUTH_ONLY, HttpClient())
    for _ in range(2):
        with pytest.raises(error) as raised:
            mint(scope=scope, audience="gateway")
        assert str(raised.value) == text
    assert token_requests == [(scope, "gateway")]


def test_concurrent_mints_ask_each_token_at_most_once_per_caller(token_requests):
    """Areas share one mint. Two that ask for one token at the same moment
    share one request, and no caller sends a token's request twice."""
    mint = make_mint(_AUTH_ONLY, HttpClient())
    scopes = ["utm.read", "utm.write", "logs.read", "refused"]

    def caller(_) -> None:
        for _ in range(200):
            for scope in scopes:
                try:
                    assert mint(scope=scope).claims == {"sub": "auditor"}
                except TokenRefused:
                    assert scope == "refused"

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(caller, range(8), timeout=30))
    finally:
        sys.setswitchinterval(interval)
    for scope in scopes:
        assert token_requests.count((scope, None)) == 1, scope


def test_a_slow_token_endpoint_gets_one_request_per_token(monkeypatch):
    """A token endpoint that takes 200 ms to answer: four callers that ask
    for one token at once share its one request, and another token's
    request goes out beside it, not after it."""
    sent = []
    token = make_token({"alg": "none"}, {"sub": "auditor"}, None)
    # each distinct request waits for the other, so they must overlap
    overlap = threading.Barrier(2, timeout=5)

    def slow(server, req, http):
        sent.append((req.scope, req.audience))
        overlap.wait()
        time.sleep(0.2)
        return TokenResponse(ok=True, status=200, token=token)

    monkeypatch.setattr(oauthaudit, "request_token", slow)
    mint = make_mint(_AUTH_ONLY, HttpClient())
    asks = [("utm.read", "gateway"), ("logs.read", "logs")] * 4
    with concurrent.futures.ThreadPoolExecutor(max_workers=len(asks)) as pool:
        issued = list(pool.map(
            lambda ask: mint(scope=ask[0], audience=ask[1]), asks, timeout=10
        ))
    assert sorted(sent) == [("logs.read", "logs"), ("utm.read", "gateway")]
    assert len({id(t) for t in issued[0::2]}) == len({id(t) for t in issued[1::2]}) == 1
