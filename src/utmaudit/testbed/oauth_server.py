"""Mock authorization server.

Client-credentials issuance is sender-constrained: the TLS layer accepts
anonymous peers, but the token endpoint refuses to issue unless the peer
presented the client certificate. The authorization endpoint auto-approves
code requests so browser flows can be probed without a human, while still
enforcing state and PKCE the way a careful deployment would.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import hmac
import secrets
import threading
from dataclasses import dataclass, field
from typing import Optional

from . import tokens
from .httpbase import JsonHandler
from .toggles import Switches

_PBKDF2_ITERATIONS = 210000
_DEFAULT_AUDIENCE = "gateway"


@functools.cache
def pbkdf2_line(client_id: str, secret: str) -> str:
    """The hashed store line, derived once per credential pair in a process:
    the key stretching is the slowest step of a testbed's first start."""
    salt = secrets.token_hex(8)
    digest = hashlib.pbkdf2_hmac(
        "sha256", secret.encode(), salt.encode(), _PBKDF2_ITERATIONS
    ).hex()
    return f"{client_id} pbkdf2_sha256${_PBKDF2_ITERATIONS}${salt}${digest}\n"


@dataclass
class OAuthConfig:
    client_id: str
    client_secret: str
    entitled_scopes: frozenset[str]
    switches: Switches = Switches()


@dataclass
class _CodeGrant:
    challenge: str
    scope: str
    redirect_uri: str


class OAuthService:
    def __init__(self, keys: tokens.SigningKeys, config: OAuthConfig):
        self.keys = keys
        self.config = config
        self.switches = config.switches
        algorithm = "HS256" if self.switches.weak_alg_hs256_default else "RS256"
        lifetime = (
            tokens.LONG_LIFETIME_S
            if self.switches.long_expiry
            else tokens.DEFAULT_LIFETIME_S
        )
        self.issuer_policy = tokens.IssuerPolicy(
            algorithm=algorithm, lifetime_s=lifetime
        )
        self._codes: dict[str, _CodeGrant] = {}
        self._lock = threading.Lock()

    # -- credential storage -------------------------------------------------

    def write_secret_store(self, path: str) -> None:
        if self.switches.plaintext_secret_store:
            line = f"{self.config.client_id} {self.config.client_secret}\n"
        else:
            line = pbkdf2_line(self.config.client_id, self.config.client_secret)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(line)

    # -- issuance -----------------------------------------------------------

    def _client_secret_ok(self, supplied: Optional[str]) -> bool:
        return supplied is not None and hmac.compare_digest(
            supplied, self.config.client_secret
        )

    def _grant_scopes(self, requested: str) -> str:
        asked = [s for s in requested.split() if s]
        if self.switches.over_scoped_profile:
            granted = list(asked)
            if "admin" not in granted:
                granted.append("admin")
            return " ".join(granted)
        return " ".join(s for s in asked if s in self.config.entitled_scopes)

    def _issue(self, form: dict[str, str], scope: str) -> dict:
        audience = form.get("audience") or _DEFAULT_AUDIENCE
        lifetime: Optional[int] = None
        iat_offset = 0
        if "x_lifetime_s" in form:
            lifetime = int(form["x_lifetime_s"])
        if "x_iat_offset_s" in form:
            iat_offset = int(form["x_iat_offset_s"])
        compact = tokens.issue(
            self.keys,
            self.issuer_policy,
            subject=self.config.client_id,
            scope=scope,
            audience=audience,
            lifetime_s=lifetime,
            iat_offset_s=iat_offset,
        )
        expires_in = (
            lifetime if lifetime is not None else self.issuer_policy.lifetime_s
        )
        return {
            "access_token": compact,
            "token_type": "Bearer",
            "expires_in": expires_in,
            "scope": scope,
        }

    def handle_token(self, form: dict[str, str], peer_cert_present: bool):
        if not self.switches.no_client_cert_binding:
            if not peer_cert_present:
                return 401, {"error": "invalid_client",
                             "error_description": "client certificate required"}
        grant_type = form.get("grant_type", "")
        if form.get("client_id") != self.config.client_id:
            return 401, {"error": "invalid_client"}

        if grant_type == "client_credentials":
            if not self._client_secret_ok(form.get("client_secret")):
                return 401, {"error": "invalid_client"}
            scope = self._grant_scopes(form.get("scope", ""))
            return 200, self._issue(form, scope)

        if grant_type == "password":
            if not self.switches.enable_password_grant:
                return 400, {"error": "unsupported_grant_type"}
            if not self._client_secret_ok(form.get("client_secret")):
                return 401, {"error": "invalid_client"}
            if not form.get("username") or not form.get("password"):
                return 400, {"error": "invalid_request"}
            scope = self._grant_scopes(form.get("scope", ""))
            return 200, self._issue(form, scope)

        if grant_type == "authorization_code":
            with self._lock:
                grant = self._codes.pop(form.get("code", ""), None)
            if grant is None:
                return 400, {"error": "invalid_grant"}
            verifier = form.get("code_verifier", "")
            digest = hashlib.sha256(verifier.encode()).digest()
            expected = base64.urlsafe_b64encode(digest).rstrip(b"=").decode()
            if not hmac.compare_digest(expected, grant.challenge):
                return 400, {"error": "invalid_grant"}
            return 200, self._issue(form, self._grant_scopes(grant.scope))

        return 400, {"error": "unsupported_grant_type"}

    def handle_authorize(self, params: dict[str, str]):
        """Returns ("redirect", location) or (status, body)."""
        if params.get("client_id") != self.config.client_id:
            return 400, {"error": "unauthorized_client"}
        response_type = params.get("response_type", "")
        if response_type == "token":
            return 400, {"error": "unsupported_response_type"}
        if response_type != "code":
            return 400, {"error": "invalid_request"}
        redirect_uri = params.get("redirect_uri", "")
        if not redirect_uri.startswith("https://"):
            return 400, {"error": "invalid_request",
                         "error_description": "redirect_uri must be https"}
        state = params.get("state")
        if not state and not self.switches.missing_csrf_state:
            return 400, {"error": "invalid_request",
                         "error_description": "state required"}
        challenge = params.get("code_challenge", "")
        if not challenge or params.get("code_challenge_method") != "S256":
            return 400, {"error": "invalid_request",
                         "error_description": "PKCE S256 required"}
        code = secrets.token_urlsafe(24)
        with self._lock:
            self._codes[code] = _CodeGrant(
                challenge=challenge,
                scope=params.get("scope", ""),
                redirect_uri=redirect_uri,
            )
        sep = "&" if "?" in redirect_uri else "?"
        location = f"{redirect_uri}{sep}code={code}"
        if state:
            location += f"&state={state}"
        return "redirect", location


class OAuthHandler(JsonHandler):
    def do_POST(self):
        if self.route() == "/token":
            status, body = self.service.handle_token(
                self.read_form(), self.peer_cert_present()
            )
            self.send_json(status, body)
            return
        self.send_json(404, {"error": "not found"})

    def do_GET(self):
        service: OAuthService = self.service
        route = self.route()
        if route == "/authorize":
            outcome = service.handle_authorize(self.query())
            if outcome[0] == "redirect":
                self.send_redirect(outcome[1])
            else:
                self.send_json(outcome[0], outcome[1])
            return
        if route == "/jwks.json":
            self.send_json(
                200,
                tokens.jwks_document(
                    service.keys,
                    include_private_fields=service.switches.jwks_private_fields,
                ),
            )
            return
        if route == "/private.pem":
            if service.switches.expose_private_key:
                self.send_bytes(
                    200, service.keys.private_pem, "application/x-pem-file"
                )
            else:
                self.send_json(404, {"error": "not found"})
            return
        self.send_json(404, {"error": "not found"})
