"""The live JWT battery: each check stands on its own evidence."""

import pytest

from utmaudit import jwtkit
from utmaudit.engine import REGISTRY
from utmaudit.oauthaudit import make_mint
from utmaudit.results import CheckStatus
from utmaudit.testbed.harness import start_testbed
from utmaudit.wire import HttpClient, HttpResponse, WireError

JWT_IDS = [d.check_id for d in REGISTRY if d.area == "JWT"]


def _client(manifest, cls=HttpClient, **extra) -> HttpClient:
    return cls(
        ca_path=manifest.ca_path,
        client_cert=manifest.oauth_client.certificate,
        client_key=manifest.oauth_client.key,
        allowlisted_source=manifest.allowlisted_source,
        **extra,
    )


def _battery(manifest, http, wanted):
    results = jwtkit.run_jwt_battery(
        manifest, http=http, mint=make_mint(manifest, http), wanted=wanted
    )
    return {r.check_id: r for r in results}


class _LogRepoDown(HttpClient):
    """Every request to one port fails at transport level."""

    def __init__(self, *args, down_port, **kwargs):
        super().__init__(*args, **kwargs)
        self.down_port = down_port

    def request(self, method, url, **kwargs):
        if f":{self.down_port}/" in url:
            raise WireError(f"{method} {url}: timed out")
        return super().request(method, url, **kwargs)


def test_transport_error_on_one_service_keeps_a_fail_elsewhere(close_after):
    tb = start_testbed(("accept-none-alg",))
    try:
        manifest = tb.manifest
        logs = manifest.component("log-repo")
        http = close_after(_client(manifest, _LogRepoDown,
                                   down_port=logs.primary_endpoint().port))
        result = _battery(manifest, http, ["JWT-06"])["JWT-06"]
    finally:
        tb.stop()
    assert result.status is CheckStatus.FAIL
    assert result.component_id == "gateway"
    assert any("with none-alg token" in line and "(accepted)" in line
               for line in result.evidence), result.evidence
    assert any(line.startswith("log-repo GET /records with none-alg token: ")
               for line in result.evidence), result.evidence


class _AnonymousReadsAllowed(HttpClient):
    """Answers 200 to every request without an Authorization header, as if
    every declared service admitted anonymous callers."""

    def request(self, method, url, **kwargs):
        if "Authorization" not in (kwargs.get("headers") or {}):
            return HttpResponse(200, [], b"{}")
        return super().request(method, url, **kwargs)


def test_services_that_all_admit_anonymous_reads_are_not_called_undeclared(
    secure_testbed, close_after,
):
    manifest = secure_testbed.manifest
    mint = make_mint(manifest, close_after(_client(manifest)))
    ids = ["JWT-02", "JWT-05", "JWT-06", "JWT-07", "JWT-09"]
    results = jwtkit.run_jwt_battery(
        manifest, http=close_after(_client(manifest, _AnonymousReadsAllowed)),
        mint=mint, wanted=ids,
    )
    services = jwtkit.token_services(manifest)
    for result in results:
        assert result.status is CheckStatus.NOT_ASSESSABLE, result
        assert result.evidence[:-1] == [
            f"{c.id} {c.read.method} {c.read.path}: accepts anonymous requests; "
            "token validation not exercised there"
            for c in services
        ], result
        assert result.evidence[-1] == (
            "no token-demanding action remains to present a token to"
        ), result


class _AnonymousGatewayWrites(HttpClient):
    """Answers 200 to a gateway write that carries no Authorization header,
    as if the gateway admitted anonymous writers."""

    def __init__(self, *args, gateway_port, **kwargs):
        super().__init__(*args, **kwargs)
        self.gateway_port = gateway_port

    def request(self, method, url, **kwargs):
        if (method != "GET" and f":{self.gateway_port}/" in url
                and "Authorization" not in (kwargs.get("headers") or {})):
            return HttpResponse(200, [], b"{}")
        return super().request(method, url, **kwargs)


def test_a_write_action_that_admits_anonymous_requests_is_noted_in_jwt08(
    secure_testbed, close_after,
):
    manifest = secure_testbed.manifest
    gateway = manifest.component("gateway")
    http = close_after(_client(
        manifest, _AnonymousGatewayWrites,
        gateway_port=gateway.primary_endpoint().port,
    ))
    result = _battery(manifest, http, ["JWT-08"])["JWT-08"]
    assert result.status is CheckStatus.PASS
    assert result.evidence[0] == (
        "gateway PUT /isa/audit-probe: accepts anonymous requests; "
        "scope validation not exercised there"
    )
    # the log repository's write is still probed with both tokens
    assert [line.split(" token: ")[0] for line in result.evidence[1:3]] == [
        "log-repo POST /records with forged added-scope",
        "log-repo POST /records with legitimately scoped read-only",
    ]
    assert result.evidence[3:] == ["write actions demand their declared scope"]


class _JwksUnreadable(HttpClient):
    """The declared JWKS path answers 503, fails at transport level, or
    publishes one of the documents in ``DOCUMENTS``."""

    DOCUMENTS = {
        "not-an-object": b"[]",
        "keys-string": b'{"keys": "dpq"}',
        "rsa-without-n": b'{"keys": [{"kty": "RSA"}]}',
        "rsa-n-not-text": b'{"keys": [{"kty": "RSA", "n": 5, "e": "AQAB"}]}',
        "rsa-n-not-base64url": b'{"keys": [{"kty": "RSA", "n": "!!", "e": "AQAB"}]}',
    }

    def __init__(self, *args, jwks_url, fault, **kwargs):
        super().__init__(*args, **kwargs)
        self.jwks_url = jwks_url
        self.fault = fault

    def request(self, method, url, **kwargs):
        if url != self.jwks_url:
            return super().request(method, url, **kwargs)
        if self.fault == "503":
            return HttpResponse(503, [], b"unavailable")
        if self.fault in self.DOCUMENTS:
            return HttpResponse(200, [], self.DOCUMENTS[self.fault])
        raise WireError(f"{method} {url}: timed out")


@pytest.mark.parametrize("fault, reason", [
    ("503", "HTTP 503"),
    ("transport", "GET {url}: timed out"),
    ("not-an-object", "not a JSON object"),
    ("keys-string", "keys is not a list of objects"),
])
def test_unreadable_jwks_leaves_jwt04_not_assessable(
    secure_testbed, close_after, fault, reason,
):
    manifest = secure_testbed.manifest
    server = manifest.oauth_server()
    url = server.primary_endpoint().url(server.jwks_path)
    http = close_after(_client(manifest, _JwksUnreadable, jwks_url=url, fault=fault))
    results = _battery(manifest, http, ["JWT-04", "JWT-07"])
    line = f"{server.id} JWKS {server.jwks_path}: " + reason.format(url=url)
    assert results["JWT-04"].status is CheckStatus.NOT_ASSESSABLE
    assert results["JWT-04"].evidence[-1] == line
    assert "no JWKS document published" not in results["JWT-04"].evidence
    assert results["JWT-07"].status is CheckStatus.NOT_ASSESSABLE
    assert results["JWT-07"].evidence[-1] == line


@pytest.mark.parametrize("fault", ["rsa-without-n", "rsa-n-not-text"])
def test_rsa_jwk_without_usable_n_e_leaves_jwt07_not_assessable(
    secure_testbed, close_after, fault,
):
    manifest = secure_testbed.manifest
    server = manifest.oauth_server()
    url = server.primary_endpoint().url(server.jwks_path)
    http = close_after(_client(manifest, _JwksUnreadable, jwks_url=url, fault=fault))
    results = _battery(manifest, http, ["JWT-04", "JWT-07"])
    assert results["JWT-04"].status is CheckStatus.PASS
    assert results["JWT-07"].status is CheckStatus.NOT_ASSESSABLE
    assert results["JWT-07"].evidence == [f"{server.id} JWKS: RSA key without usable n/e"]


def test_malformed_jwks_costs_only_the_confusion_check(
    secure_testbed, secure_audit, close_after,
):
    report, _ = secure_audit
    expected = {r.check_id: r for r in report.results if r.check_id.startswith("JWT-")}
    manifest = secure_testbed.manifest
    server = manifest.oauth_server()
    url = server.primary_endpoint().url(server.jwks_path)
    http = close_after(_client(manifest, _JwksUnreadable, jwks_url=url,
                               fault="rsa-n-not-base64url"))
    results = _battery(manifest, http, JWT_IDS)
    assert list(results) == JWT_IDS
    assert results["JWT-07"].status is CheckStatus.NOT_ASSESSABLE
    assert results["JWT-07"].evidence == [
        f"{manifest.oauth_server().id} JWKS: RSA key without usable n/e"
    ]
    for check_id, result in results.items():
        if check_id != "JWT-07":
            assert result.status is expected[check_id].status, check_id
            assert result.evidence == expected[check_id].evidence, check_id
