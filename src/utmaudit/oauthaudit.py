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
import threading
import urllib.parse
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Collection, Optional

from . import jwtkit
from .manifest import ComponentSpec, TargetManifest
from .results import (
    CheckResult, Outcome, attempt, fold, judged, run_checks, unassessable,
)
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
    # None when the response's scope is not a string
    granted_scope: Optional[str] = ""
    error: Optional[str] = None


def request_token(server: ComponentSpec, req: TokenRequest, http: HttpClient) -> TokenResponse:
    endpoint = server.primary_endpoint()
    if req.client_secret and endpoint.scheme != "https":
        raise AuditorError(
            f"refusing to send client_secret over {endpoint.scheme} to {server.id}"
        )
    url = endpoint.url(server.token_path or "/token")
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
        return TokenResponse(ok=False, status=resp.status, error=error)
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
                             error=f"success body without parseable token: {exc}")
    granted = body.get("scope", token.claims.get("scope", ""))
    return TokenResponse(
        ok=True,
        status=resp.status,
        token=token,
        granted_scope=granted if isinstance(granted, str) else None,
    )


class TokenRefused(WireError):
    """The authorization server answered a token request without a token."""


def make_mint(manifest: TargetManifest, http: HttpClient) -> jwtkit.MintFn:
    """The scan's one token source, which the engine hands to every area.

    mint(scope, audience, lifetime_s, iat_offset_s) returns the issued token
    or raises: TokenRefused naming the server's answer, or the request's own
    WireError. Each distinct request goes out at most once per scan, and a
    failure is remembered like a token: the first caller of a request sends
    it, and a concurrent caller of the same one waits for its outcome, while
    different requests go out in parallel. lifetime_s and iat_offset_s
    shape issuance on an audit fixture; a caller checks audit_fixture first.
    """
    server = manifest.oauth_server()
    client = manifest.oauth_client
    outcomes: dict[tuple, Future] = {}
    guard = threading.Lock()

    def issued(scope, audience, lifetime_s, iat_offset_s):
        extra = {}
        if lifetime_s is not None:
            extra["x_lifetime_s"] = str(lifetime_s)
        if iat_offset_s is not None:
            extra["x_iat_offset_s"] = str(iat_offset_s)
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
        except WireError as exc:  # kept, to raise again on the next ask
            return exc
        if result.ok:
            return result.token
        detail = f" (error={result.error})" if result.error else ""
        return TokenRefused(f"{server.id} token endpoint: HTTP {result.status}{detail}")

    def mint(scope=None, audience=None, lifetime_s=None,
             iat_offset_s=None) -> jwtkit.SignedToken:
        key = (scope, audience, lifetime_s, iat_offset_s)
        with guard:
            pending = outcomes.get(key)
            first = pending is None
            if first:
                pending = outcomes[key] = Future()
        if first:
            try:
                pending.set_result(issued(*key))
            except BaseException as exc:  # no waiter may hang on it
                pending.set_exception(exc)
                raise
        outcome = pending.result()
        if isinstance(outcome, WireError):
            raise outcome
        return outcome

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
    query = "&".join(f"{k}={v}" for k, v in params.items())
    return server.primary_endpoint().url(f"{server.authorize_path or '/authorize'}?{query}")


def _redirect_params(resp) -> dict[str, list[str]]:
    """The parameters in the query and fragment of a 3xx answer's Location,
    where an authorization endpoint grants or refuses (RFC 6749 §4.1.2,
    §4.2.2); none for any other answer."""
    if not 300 <= resp.status < 400:
        return {}
    location = urllib.parse.urlsplit(resp.header("Location") or "")
    return {**urllib.parse.parse_qs(location.query, keep_blank_values=True),
            **urllib.parse.parse_qs(location.fragment, keep_blank_values=True)}


# The redirect parameter that carries each artifact of an authorization flow.
_GRANT_PARAMS = {"token": "access_token", "code": "code"}


def _issuance(server, req: TokenRequest, http, issued: str, refused: str) -> list[Outcome]:
    """One token request that a secure server refuses with a 4xx: a token
    issued fails the check with the issued line, and any other answer (a
    5xx, a 2xx without a parseable token) is no refusal."""
    result = request_token(server, req, http)
    detail = f" (error={result.error})" if result.error else ""
    if result.ok:
        return [judged(True, issued, server.id)]
    if 400 <= result.status < 500:
        return [judged(False, f"{refused} rejected: HTTP {result.status}{detail}")]
    return [unassessable(
        f"{refused} answered HTTP {result.status}{detail}: neither a refusal nor a token")]


def _authorization(server, http, params: dict, artifact: str, granted: str,
                   refused: str) -> list[Outcome]:
    """One authorization request that a secure server refuses with a 4xx, or
    with a redirect that carries an error: a redirect granting the artifact
    fails the check with the granted line, and any other answer is no
    refusal."""
    resp = http.request("GET", _authorize_url(server, **params))
    redirect = _redirect_params(resp)
    if _GRANT_PARAMS[artifact] in redirect:
        return [judged(True, granted, server.id)]
    if 400 <= resp.status < 500:
        return [judged(False, f"{refused} rejected: HTTP {resp.status}")]
    if "error" in redirect:
        return [judged(False, f"{refused} rejected: HTTP {resp.status} "
                       f"(error={redirect['error'][0]})")]
    return [unassessable(
        f"{refused} answered HTTP {resp.status}: neither a refusal nor a {artifact}")]


def _check_sender_constraining(server, client, http) -> CheckResult:
    req = TokenRequest(
        grant_type="client_credentials",
        client_id=client.client_id,
        client_secret=client.client_secret,
        scope=None,
        present_client_cert=False,
    )
    return fold("OAUTH-01", attempt(None, lambda: _issuance(
        server, req, http,
        "token issued without the registered client certificate; "
        "issuance is not sender-constrained",
        "issuance without client certificate",
    )))


def _check_least_privilege(server, client, http) -> CheckResult:
    if not client.entitled_scopes:
        return fold("OAUTH-02", [unassessable(
            "manifest declares no scope entitlement to compare against")])
    req = TokenRequest(
        grant_type="client_credentials",
        client_id=client.client_id,
        client_secret=client.client_secret,
        scope=" ".join(client.entitled_scopes),
        present_client_cert=client.has_certificate(),
    )

    def granted() -> list[Outcome]:
        result = request_token(server, req, http)
        if not result.ok:
            return [unassessable(
                f"token request for entitled scopes rejected: HTTP {result.status}")]
        if result.granted_scope is None:
            return [unassessable("granted scope in the token response is not a string")]
        scopes = set(result.granted_scope.split())
        excess = scopes - set(client.entitled_scopes)
        if excess:
            return [judged(True, "granted scopes exceed declared entitlement: "
                           + ", ".join(sorted(excess)), server.id)]
        return [judged(False, "granted scopes stay within the declared entitlement: "
                       + ", ".join(sorted(scopes)))]

    return fold("OAUTH-02", attempt(None, granted))


def _check_secret_entropy(client) -> CheckResult:
    estimate = estimate_secret_strength(client.client_secret)
    weak = estimate.estimated_bits < ENTROPY_THRESHOLD_BITS
    return fold("OAUTH-03", [judged(
        weak,
        f"estimated entropy {estimate.estimated_bits:.1f} bits "
        f"({estimate.length} chars over inferred charset of {estimate.charset_size}); "
        f"{'below' if weak else 'meets'} required {ENTROPY_THRESHOLD_BITS} bits",
    )])


def _check_secret_storage(manifest, server, client) -> CheckResult:
    if manifest.mode != "introspective" or not server.storage_path:
        return fold("OAUTH-04", [unassessable(
            "credential-store inspection requires introspective mode with a "
            "declared storage path")])

    def stored() -> list[Outcome]:
        with open(server.storage_path, "rb") as fh:
            if client.client_secret.encode("utf-8") in fh.read():
                return [judged(True, "credential store contains the client_secret "
                               "recoverable in plaintext", server.id)]
        return [judged(False, "credential store does not contain the literal "
                       "client_secret; stored form is not plaintext-recoverable")]

    return fold("OAUTH-04", attempt("credential store unreadable", stored))


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
        outcomes += attempt(None, lambda: _issuance(
            server, req, http,
            "undeclared password grant accepted and issued a token", "password grant"))

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
        outcomes += attempt(label, lambda: _authorization(
            server, http, params, artifact,
            f"{label} completed and granted a {artifact}", label))
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
    return fold("OAUTH-06", attempt(None, lambda: _authorization(
        server, http, params, "code",
        "authorization flow completed without an anti-CSRF state parameter",
        "authorization request without a state parameter",
    )))
