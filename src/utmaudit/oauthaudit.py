"""Authorization-server checks: flow surface, credential hygiene, privilege.

Secret strength is estimated structurally (length times log2 of the inferred
character set): one sample cannot support a statistical estimate, and the
evidence labels it as an estimate. The inference is class-based: a secret
drawn only from hex digits is scored on the hex alphabet, otherwise on the
union of the character classes it exhibits.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass, field
from typing import Collection, Optional

from . import jwtkit
from .manifest import ComponentSpec, TargetManifest
from .results import CheckResult, CheckStatus, fold, judged, run_checks, unassessable
from .wire import HttpClient, WireError

ENTROPY_THRESHOLD_BITS = 256

_LOWER = set(string.ascii_lowercase)
_UPPER = set(string.ascii_uppercase)
_DIGITS = set(string.digits)
_B64URL_MARKS = {"-", "_"}
_HEX_LOWER = set("0123456789abcdef")
_HEX_UPPER = set("0123456789ABCDEF")


class AuditorError(Exception):
    """The auditor was about to do something unsafe; aborted client-side."""


@dataclass(frozen=True)
class SecretStrengthEstimate:
    length: int
    charset_size: int
    estimated_bits: float


def estimate_secret_strength(secret: str) -> SecretStrengthEstimate:
    """estimated_bits = length * log2(charset_size), charset inferred from
    observed character classes."""
    chars = set(secret)
    if not chars:
        return SecretStrengthEstimate(0, 0, 0.0)
    if chars <= _DIGITS:
        charset = 10
    elif chars <= _HEX_LOWER or chars <= _HEX_UPPER:
        charset = 16
    else:
        charset = 0
        if chars & _LOWER:
            charset += 26
        if chars & _UPPER:
            charset += 26
        if chars & _DIGITS:
            charset += 10
        if chars & _B64URL_MARKS:
            charset += 2
        other = chars - _LOWER - _UPPER - _DIGITS - _B64URL_MARKS
        if other:
            charset += 30
    return SecretStrengthEstimate(
        length=len(secret),
        charset_size=charset,
        estimated_bits=len(secret) * math.log2(charset),
    )


# ---------------------------------------------------------------------------
# Token endpoint client
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TokenRequest:
    grant_type: str
    client_id: str
    client_secret: Optional[str] = None
    scope: Optional[str] = None
    audience: Optional[str] = None
    present_client_cert: bool = True
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.grant_type:
            raise ValueError("grant_type must be nonempty")


@dataclass
class TokenResponse:
    ok: bool
    status: int
    token: Optional[jwtkit.SignedToken] = None
    granted_scope: str = ""
    error: Optional[str] = None
    client_cert_presented: bool = False


def request_token(server: ComponentSpec, req: TokenRequest, http: HttpClient) -> TokenResponse:
    endpoint = server.primary_endpoint()
    if req.client_secret and endpoint.scheme != "https":
        raise AuditorError(
            f"refusing to send client_secret over {endpoint.scheme} to {server.id}"
        )
    url = (
        f"{endpoint.scheme}://{endpoint.host}:{endpoint.port}"
        f"{server.token_path or '/token'}"
    )
    form = {"grant_type": req.grant_type, "client_id": req.client_id}
    if req.client_secret:
        form["client_secret"] = req.client_secret
    if req.scope:
        form["scope"] = req.scope
    if req.audience:
        form["audience"] = req.audience
    form.update(req.extra)

    resp = http.request(
        "POST", url, form=form,
        present_client_cert=req.present_client_cert,
        max_retries=3,
    )
    if resp.status != 200:
        try:
            body = resp.json()
        except ValueError:
            body = {}  # not JSON: no error code to report
        error = (
            body.get("error") if isinstance(body, dict)
            else "error body is not a JSON object"
        )
        return TokenResponse(ok=False, status=resp.status, error=error,
                             client_cert_presented=req.present_client_cert)
    try:
        body = resp.json()
        if not isinstance(body, dict):
            raise ValueError("body is not a JSON object")
        compact = body["access_token"]
        if not isinstance(compact, str):
            raise ValueError("access_token is not a string")
        token = jwtkit.decode(compact)
    except (ValueError, KeyError, jwtkit.TokenError) as exc:
        return TokenResponse(ok=False, status=resp.status,
                             error=f"success body without parseable token: {exc}",
                             client_cert_presented=req.present_client_cert)
    return TokenResponse(
        ok=True,
        status=resp.status,
        token=token,
        granted_scope=body.get("scope", token.claims.get("scope", "")),
        client_cert_presented=req.present_client_cert,
    )


def make_mint(manifest: TargetManifest, http: HttpClient):
    """Closure the engine hands to consumers that need fresh tokens."""
    server = manifest.oauth_server()
    client = manifest.oauth_client

    def mint(scope=None, audience=None, lifetime_s=None, iat_offset_s=None):
        extra = {}
        if manifest.audit_fixture:
            if lifetime_s is not None:
                extra["x_lifetime_s"] = str(lifetime_s)
            if iat_offset_s is not None:
                extra["x_iat_offset_s"] = str(iat_offset_s)
        elif lifetime_s is not None or iat_offset_s is not None:
            return None  # issuance-shaping needs fixture cooperation
        req = TokenRequest(
            grant_type="client_credentials",
            client_id=client.client_id,
            client_secret=client.client_secret,
            scope=scope,
            audience=audience,
            present_client_cert=client.has_certificate(),
            extra=extra,
        )
        try:
            result = request_token(server, req, http)
        except WireError:
            return None
        return result.token if result.ok else None

    return mint


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_oauth(
    manifest: TargetManifest, http: HttpClient, wanted: Collection[str]
) -> list[CheckResult]:
    """The wanted checks of OAUTH-01..OAUTH-06 against the declared
    authorization server."""
    server = manifest.oauth_server()
    client = manifest.oauth_client
    return run_checks(wanted, [
        ("OAUTH-01", lambda: _check_sender_constraining(server, client, http)),
        ("OAUTH-02", lambda: _check_least_privilege(server, client, http)),
        ("OAUTH-03", lambda: _check_secret_entropy(client)),
        ("OAUTH-04", lambda: _check_secret_storage(manifest, server, client)),
        ("OAUTH-05", lambda: _check_extra_grants(server, client, http)),
        ("OAUTH-06", lambda: _check_csrf_state(server, client, http)),
    ])


def _authorize_url(server: ComponentSpec, **params) -> str:
    endpoint = server.primary_endpoint()
    query = "&".join(f"{k}={v}" for k, v in params.items())
    return (
        f"{endpoint.scheme}://{endpoint.host}:{endpoint.port}"
        f"{server.authorize_path or '/authorize'}?{query}"
    )


def _redirect_grants(resp) -> Optional[str]:
    """The artifact granted on a 3xx redirect, if any."""
    if 300 <= resp.status < 400:
        location = resp.header("Location") or ""
        if "access_token=" in location:
            return "token"
        if "code=" in location:
            return "code"
    return None


def _check_sender_constraining(server, client, http) -> CheckResult:
    req = TokenRequest(
        grant_type="client_credentials",
        client_id=client.client_id,
        client_secret=client.client_secret,
        scope=None,
        present_client_cert=False,
    )
    try:
        result = request_token(server, req, http)
    except WireError as exc:
        return CheckResult("OAUTH-01", CheckStatus.NOT_ASSESSABLE, [str(exc)])
    if result.ok:
        return CheckResult(
            "OAUTH-01", CheckStatus.FAIL,
            ["token issued without the registered client certificate; "
             "issuance is not sender-constrained"],
            component_id=server.id,
        )
    detail = f" (error={result.error})" if result.error else ""
    return CheckResult(
        "OAUTH-01", CheckStatus.PASS,
        [f"issuance without client certificate rejected: HTTP {result.status}{detail}"],
    )


def _check_least_privilege(server, client, http) -> CheckResult:
    if not client.entitled_scopes:
        return CheckResult(
            "OAUTH-02", CheckStatus.NOT_ASSESSABLE,
            ["manifest declares no scope entitlement to compare against"],
        )
    requested = " ".join(client.entitled_scopes)
    req = TokenRequest(
        grant_type="client_credentials",
        client_id=client.client_id,
        client_secret=client.client_secret,
        scope=requested,
        present_client_cert=client.has_certificate(),
    )
    try:
        result = request_token(server, req, http)
    except WireError as exc:
        return CheckResult("OAUTH-02", CheckStatus.NOT_ASSESSABLE, [str(exc)])
    if not result.ok:
        return CheckResult(
            "OAUTH-02", CheckStatus.NOT_ASSESSABLE,
            [f"token request for entitled scopes rejected: HTTP {result.status}"],
        )
    granted = set(result.granted_scope.split())
    excess = granted - set(client.entitled_scopes)
    if excess:
        return CheckResult(
            "OAUTH-02", CheckStatus.FAIL,
            ["granted scopes exceed declared entitlement: "
             + ", ".join(sorted(excess))],
            component_id=server.id,
        )
    return CheckResult(
        "OAUTH-02", CheckStatus.PASS,
        ["granted scopes stay within the declared entitlement: "
         + ", ".join(sorted(granted))],
    )


def _check_secret_entropy(client) -> CheckResult:
    estimate = estimate_secret_strength(client.client_secret)
    summary = (
        f"estimated entropy {estimate.estimated_bits:.1f} bits "
        f"({estimate.length} chars over inferred charset of {estimate.charset_size})"
    )
    if estimate.estimated_bits < ENTROPY_THRESHOLD_BITS:
        return CheckResult(
            "OAUTH-03", CheckStatus.FAIL,
            [summary + f"; below required {ENTROPY_THRESHOLD_BITS} bits"],
        )
    return CheckResult(
        "OAUTH-03", CheckStatus.PASS,
        [summary + f"; meets required {ENTROPY_THRESHOLD_BITS} bits"],
    )


def _check_secret_storage(manifest, server, client) -> CheckResult:
    if manifest.mode != "introspective" or not server.storage_path:
        return CheckResult(
            "OAUTH-04", CheckStatus.NOT_ASSESSABLE,
            ["credential-store inspection requires introspective mode with a "
             "declared storage path"],
        )
    try:
        with open(server.storage_path, "rb") as fh:
            stored = fh.read()
    except OSError as exc:
        return CheckResult("OAUTH-04", CheckStatus.NOT_ASSESSABLE,
                           [f"credential store unreadable: {exc}"])
    if client.client_secret.encode("utf-8") in stored:
        return CheckResult(
            "OAUTH-04", CheckStatus.FAIL,
            ["credential store contains the client_secret recoverable in plaintext"],
            component_id=server.id,
        )
    return CheckResult(
        "OAUTH-04", CheckStatus.PASS,
        ["credential store does not contain the literal client_secret; "
         "stored form is not plaintext-recoverable"],
    )


def _check_extra_grants(server, client, http) -> CheckResult:
    outcomes = []
    if "password" not in client.grant_types:
        req = TokenRequest(
            grant_type="password",
            client_id=client.client_id,
            client_secret=client.client_secret,
            present_client_cert=client.has_certificate(),
            extra={"username": "audit-probe", "password": "audit-probe"},
        )
        try:
            result = request_token(server, req, http)
        except WireError as exc:
            outcomes.append(unassessable(str(exc)))
        else:
            if result.ok:
                outcomes.append(judged(
                    True, "undeclared password grant accepted and issued a token",
                    server.id))
            else:
                detail = f" (error={result.error})" if result.error else ""
                outcomes.append(judged(
                    False, f"password grant rejected: HTTP {result.status}{detail}"))

    redirect_uri = "https://auditor.invalid/callback"
    probes = [
        ("implicit flow", {"response_type": "token", "client_id": client.client_id,
                           "redirect_uri": redirect_uri, "state": "audit-state"},
         "token"),
        ("authorization_code flow without PKCE",
         {"response_type": "code", "client_id": client.client_id,
          "redirect_uri": redirect_uri, "state": "audit-state"},
         "code"),
    ]
    for label, params, artifact in probes:
        try:
            resp = http.request("GET", _authorize_url(server, **params))
        except WireError as exc:
            outcomes.append(unassessable(f"{label}: {exc}"))
            continue
        if _redirect_grants(resp) == artifact:
            outcomes.append(judged(
                True, f"{label} completed and granted a {artifact}", server.id))
        else:
            outcomes.append(judged(False, f"{label} rejected: HTTP {resp.status}"))
    return fold("OAUTH-05", outcomes)


def _check_csrf_state(server, client, http) -> CheckResult:
    params = {
        "response_type": "code",
        "client_id": client.client_id,
        "redirect_uri": "https://auditor.invalid/callback",
        "code_challenge": "E9Melhoa2OwvFrEMTJguCHaoeK1t8URWbuGJSstw-cM",
        "code_challenge_method": "S256",
        # no state parameter: a protected flow must refuse to continue
    }
    try:
        resp = http.request("GET", _authorize_url(server, **params))
    except WireError as exc:
        return CheckResult("OAUTH-06", CheckStatus.NOT_ASSESSABLE, [str(exc)])
    if _redirect_grants(resp) == "code":
        return CheckResult(
            "OAUTH-06", CheckStatus.FAIL,
            ["authorization flow completed without an anti-CSRF state parameter"],
            component_id=server.id,
        )
    return CheckResult(
        "OAUTH-06", CheckStatus.PASS,
        [f"authorization request without a state parameter rejected: "
         f"HTTP {resp.status}"],
    )
