"""The live JWT battery: each check stands on its own evidence."""

from utmaudit import jwtkit
from utmaudit.engine import REGISTRY
from utmaudit.oauthaudit import make_mint
from utmaudit.results import CheckStatus
from utmaudit.testbed.harness import start_testbed
from utmaudit.wire import HttpClient, WireError

JWT_IDS = [d.check_id for d in REGISTRY if d.area == "JWT"]


def _client(manifest, cls=HttpClient, **extra) -> HttpClient:
    return cls(
        ca_path=manifest.ca_path,
        client_cert=manifest.oauth_client.certificate,
        client_key=manifest.oauth_client.key,
        allowlisted_source=(
            manifest.allowlist_sources[0] if manifest.allowlist_sources else None
        ),
        **extra,
    )


def _battery(manifest, http, wanted, keys=None):
    mint = make_mint(manifest, http)
    anchor = jwtkit.token_services(manifest)[0]
    live = mint(scope=anchor.read.scope, audience=anchor.audience)
    assert live is not None
    results = jwtkit.run_jwt_battery(
        manifest, live, keys, http=http, mint=mint, wanted=wanted
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


def test_transport_error_on_one_service_keeps_a_fail_elsewhere():
    tb = start_testbed(("accept-none-alg",))
    try:
        manifest = tb.manifest
        logs = manifest.component("log-repo")
        http = _client(manifest, _LogRepoDown,
                       down_port=logs.primary_endpoint().port)
        result = _battery(manifest, http, ["JWT-06"])["JWT-06"]
    finally:
        tb.stop()
    assert result.status is CheckStatus.FAIL
    assert result.component_id == "gateway"
    assert any("with none-alg token" in line and "(accepted)" in line
               for line in result.evidence), result.evidence
    assert any(line.startswith("log-repo: ") for line in result.evidence), result.evidence


def test_malformed_jwks_costs_only_the_confusion_check(secure_testbed, secure_audit):
    report, _ = secure_audit
    expected = {r.check_id: r for r in report.results if r.check_id.startswith("JWT-")}
    manifest = secure_testbed.manifest
    results = _battery(
        manifest, _client(manifest), JWT_IDS,
        keys={"keys": [{"kty": "RSA", "n": "!!", "e": "AQAB"}]},
    )
    assert list(results) == JWT_IDS
    assert results["JWT-07"].status is CheckStatus.NOT_ASSESSABLE
    assert results["JWT-07"].evidence[0].startswith("probe aborted: TokenError")
    for check_id, result in results.items():
        if check_id != "JWT-07":
            assert result.status is expected[check_id].status, check_id
            assert result.evidence == expected[check_id].evidence, check_id
