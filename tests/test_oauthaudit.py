"""Secret-strength arithmetic and token-request guard rails."""

import json
import math

import pytest

from utmaudit.manifest import ComponentRole, ComponentSpec, Endpoint, parse_manifest
from utmaudit.oauthaudit import (
    AuditorError,
    TokenRequest,
    check_oauth,
    estimate_secret_strength,
    request_token,
)
from utmaudit.results import CheckStatus
from utmaudit.wire import HttpClient, HttpResponse

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


class _StubHttp(HttpClient):
    """Answers every request with one fixed status and body."""

    def __init__(self, status, body):
        super().__init__()
        self.response = HttpResponse(status, [], body)

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
