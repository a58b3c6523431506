"""JWT parsing, forgery, and the ten token checks.

The pure half decodes, re-encodes, and mutates compact JWS tokens without
ever needing a network; every mutation is a small, named transformation so
tests can quantify over the full set. The live half presents mutated tokens
to the deployment's token-accepting services and turns acceptance behavior
into check results JWT-01 through JWT-10.

Tokens keep their original Base64URL part strings; only mutated parts are
re-serialized. That makes decode/encode lossless for issuer-produced tokens.
"""

from __future__ import annotations

import base64
import binascii
import functools
import hashlib
import hmac
import json
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Collection, Optional

from .manifest import (
    ApiAction, ComponentSpec, TargetManifest, Zone, expected_zone, vantage,
)
from .results import (
    CheckResult, Outcome, attempt, fold, judged, note, run_checks, unassessable,
)
from .wire import HttpClient, WireError

_B64URL_RE = re.compile(r"^[A-Za-z0-9_-]*$")


class TokenError(ValueError):
    """Malformed compact serialization or impossible mutation."""


# ---------------------------------------------------------------------------
# Base64URL without padding
# ---------------------------------------------------------------------------


def b64url_encode(data: bytes) -> str:
    return base64.urlsafe_b64encode(data).rstrip(b"=").decode("ascii")


def b64url_decode(text: str) -> bytes:
    if not _B64URL_RE.match(text):
        raise TokenError(f"invalid Base64URL part: {text[:32]!r}")
    padded = text + "=" * (-len(text) % 4)
    try:
        return base64.urlsafe_b64decode(padded)
    except (binascii.Error, ValueError) as exc:
        raise TokenError(f"invalid Base64URL part: {exc}") from None


def _json_part(mapping: dict) -> str:
    return b64url_encode(json.dumps(mapping, separators=(",", ":")).encode("utf-8"))


# ---------------------------------------------------------------------------
# Token model
# ---------------------------------------------------------------------------


@dataclass
class SignedToken:
    header: dict
    claims: dict
    signature: bytes
    # Original part strings are authoritative; header/claims are parsed views.
    header_b64: str
    claims_b64: str

    def compact(self) -> str:
        return f"{self.header_b64}.{self.claims_b64}.{b64url_encode(self.signature)}"

    def signing_input(self) -> bytes:
        return f"{self.header_b64}.{self.claims_b64}".encode("ascii")

    def with_header(self, **changes) -> "SignedToken":
        header = dict(self.header)
        header.update(changes)
        return SignedToken(
            header=header,
            claims=self.claims,
            signature=self.signature,
            header_b64=_json_part(header),
            claims_b64=self.claims_b64,
        )

    def with_claims(self, **changes) -> "SignedToken":
        claims = dict(self.claims)
        claims.update(changes)
        return SignedToken(
            header=self.header,
            claims=claims,
            signature=self.signature,
            header_b64=self.header_b64,
            claims_b64=_json_part(claims),
        )


def decode(compact: str) -> SignedToken:
    parts = compact.split(".")
    if len(parts) != 3:
        raise TokenError(f"expected 3 parts, got {len(parts)}")
    header_b64, claims_b64, sig_b64 = parts
    header = _decode_mapping(header_b64, "header")
    claims = _decode_mapping(claims_b64, "claims")
    if "alg" not in header:
        raise TokenError("header lacks alg")
    return SignedToken(
        header=header,
        claims=claims,
        signature=b64url_decode(sig_b64),
        header_b64=header_b64,
        claims_b64=claims_b64,
    )


def _decode_mapping(part: str, label: str) -> dict:
    raw = b64url_decode(part)
    try:
        value = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TokenError(f"{label} is not valid JSON: {exc}") from None
    if not isinstance(value, dict):
        raise TokenError(f"{label} is not a JSON mapping")
    return value


# ---------------------------------------------------------------------------
# Signing primitive
# ---------------------------------------------------------------------------


def sign_hs256(signing_input: bytes, key: bytes) -> bytes:
    return hmac.new(key, signing_input, hashlib.sha256).digest()


# ---------------------------------------------------------------------------
# JWKS helpers
# ---------------------------------------------------------------------------

_JWK_PRIVATE_FIELDS = ("d", "p", "q", "dp", "dq", "qi")
# AlgorithmIdentifier of rsaEncryption (1.2.840.113549.1.1.1), NULL parameters
_RSA_ENCRYPTION_ID = bytes.fromhex("300d06092a864886f70d0101010500")


def _der(tag: int, content: bytes) -> bytes:
    size = len(content)
    if size < 0x80:
        return bytes((tag, size)) + content
    octets = size.to_bytes((size.bit_length() + 7) // 8, "big")
    return bytes((tag, 0x80 | len(octets))) + octets + content


def _der_uint(value: int) -> bytes:
    # one more octet than the bits need keeps the sign bit clear
    return _der(0x02, value.to_bytes(value.bit_length() // 8 + 1, "big"))


def jwk_to_public_pem(jwk: dict) -> bytes:
    """RSA JWK (n, e) to the canonical SubjectPublicKeyInfo PEM bytes;
    TokenError unless n and e are Base64URL text of a usable key: n >= 3
    and an odd e with 3 <= e < n, as RSA libraries require of a public key."""
    if jwk.get("kty") != "RSA":
        raise TokenError(f"not an RSA JWK: kty={jwk.get('kty')!r}")
    n, e = jwk.get("n"), jwk.get("e")
    if not (isinstance(n, str) and isinstance(e, str)):
        raise TokenError("RSA JWK without Base64URL text n and e")
    n, e = (int.from_bytes(b64url_decode(v), "big") for v in (n, e))
    if n < 3 or not 3 <= e < n or e % 2 == 0:
        raise TokenError("unusable RSA JWK: need n >= 3 and an odd e, 3 <= e < n")
    rsa_public_key = _der(0x30, _der_uint(n) + _der_uint(e))  # PKCS#1
    spki = base64.b64encode(
        _der(0x30, _RSA_ENCRYPTION_ID + _der(0x03, b"\x00" + rsa_public_key))
    ).decode("ascii")
    lines = [spki[i:i + 64] for i in range(0, len(spki), 64)]
    return "\n".join(
        ["-----BEGIN PUBLIC KEY-----", *lines, "-----END PUBLIC KEY-----", ""]
    ).encode("ascii")


def jwks_private_fields(jwks: dict) -> list[str]:
    exposed = []
    for entry in jwks.get("keys", []):
        for name in _JWK_PRIVATE_FIELDS:
            if name in entry and name not in exposed:
                exposed.append(name)
    return exposed


# ---------------------------------------------------------------------------
# Mutations
# ---------------------------------------------------------------------------


class Mutation:
    name = "mutation"


@dataclass(frozen=True)
class SetAlgNone(Mutation):
    name: str = field(default="none-alg", init=False)


@dataclass(frozen=True)
class AlgConfusionHs256(Mutation):
    public_key_pem: bytes
    name: str = field(default="alg-confusion-hs256", init=False)


@dataclass(frozen=True)
class StripSignature(Mutation):
    name: str = field(default="strip-signature", init=False)


@dataclass(frozen=True)
class FlipSignatureBit(Mutation):
    bit_index: int = 0
    name: str = field(default="flip-signature-bit", init=False)


@dataclass(frozen=True)
class AddScope(Mutation):
    scope: str = ""
    name: str = field(default="add-scope", init=False)


def _copy(base: SignedToken) -> SignedToken:
    """Copy preserving the original part bytes exactly."""
    return SignedToken(
        header=dict(base.header),
        claims=dict(base.claims),
        signature=base.signature,
        header_b64=base.header_b64,
        claims_b64=base.claims_b64,
    )


def forge(base: SignedToken, mutation: Mutation) -> SignedToken:
    """Apply one named mutation. Claim edits deliberately leave the old
    signature in place; a sound verifier must reject the result."""
    if isinstance(mutation, SetAlgNone):
        token = base.with_header(alg="none")
        token.signature = b""
        return token
    if isinstance(mutation, AlgConfusionHs256):
        token = base.with_header(alg="HS256")
        token.signature = sign_hs256(token.signing_input(), mutation.public_key_pem)
        return token
    if isinstance(mutation, StripSignature):
        token = _copy(base)
        token.signature = b""
        return token
    if isinstance(mutation, FlipSignatureBit):
        if not base.signature:
            raise TokenError("cannot flip a bit of an empty signature")
        index = mutation.bit_index
        if not 0 <= index < len(base.signature) * 8:
            raise TokenError(f"bit index {index} out of range")
        raw = bytearray(base.signature)
        raw[index // 8] ^= 1 << (index % 8)
        token = _copy(base)
        token.signature = bytes(raw)
        return token
    if isinstance(mutation, AddScope):
        current = base.claims.get("scope", "")
        merged = f"{current} {mutation.scope}".strip()
        return base.with_claims(scope=merged)
    raise TokenError(f"unknown mutation {mutation!r}")


# ---------------------------------------------------------------------------
# Live battery
# ---------------------------------------------------------------------------

LIFETIME_THRESHOLD_S = 900
ALLOWED_ALGS = frozenset({"RS256", "ES256", "PS256"})
KEY_PATHS = ("/private.pem", "/.env", "/keys/")

# mint(scope, audience, lifetime_s, iat_offset_s) -> SignedToken; raises
# WireError when no token is issued (oauthaudit.make_mint).
MintFn = Callable[..., SignedToken]

_KEY_EXPOSURE_MARKERS = (b"PRIVATE KEY", b"client_secret=", b"CLIENT_SECRET=")
_NO_ENFORCING = "no token-demanding action remains to present a token to"


def token_services(manifest: TargetManifest) -> list[ComponentSpec]:
    """Components that accept bearer tokens on a declared API action."""
    return [
        comp
        for comp in manifest.components
        if comp.read
        and comp.audience
        and comp.endpoints
        and comp.primary_endpoint().scheme in ("http", "https")
    ]


def _presented(
    http: HttpClient,
    comp: ComponentSpec,
    action: ApiAction,
    variant: str,
    token: Callable[[], SignedToken],
    body: Optional[bytes] = None,
) -> list[Outcome]:
    """Present the token that ``token()`` returns to an action: acceptance
    fails the check, and a token that cannot be minted or a transport error
    leaves this presentation unassessed."""
    label = f"{comp.id} {action.method} {action.path} with {variant} token"

    def present() -> list[Outcome]:
        resp = http.request(
            action.method,
            comp.primary_endpoint().url(action.path),
            body=body,
            headers={"Authorization": f"Bearer {token().compact()}"},
            source=vantage(comp, http.allowlisted_source),
        )
        accepted = 200 <= resp.status < 300
        word = "accepted" if accepted else "rejected"
        return [judged(accepted, f"{label}: HTTP {resp.status} ({word})", comp.id)]

    return attempt(label, present)


def _baseline(mint: MintFn, comp: ComponentSpec) -> SignedToken:
    """A token for the service's read action, from the scan's mint."""
    return mint(scope=comp.read.scope, audience=comp.audience)


def _rejects_anonymous(
    http: HttpClient,
    comp: ComponentSpec,
    method: str,
    path: str,
    body: Optional[bytes] = None,
) -> Optional[bool]:
    """Whether the action turns away a request carrying no token at all.

    None when the service cannot be reached; the per-check probes surface
    that as NotAssessable themselves.
    """
    try:
        resp = http.request(method, comp.primary_endpoint().url(path), body=body,
                            source=vantage(comp, http.allowlisted_source))
    except WireError:
        return None
    return not (200 <= resp.status < 300)


def _enforcing_services(
    services: list[ComponentSpec], http: HttpClient
) -> tuple[list[ComponentSpec], list[Outcome]]:
    """Split off services whose read action admits anonymous callers.

    Presenting a forged token to an action that never demands one proves
    nothing about token validation; the missing access control is its own
    finding elsewhere. Unreachable services stay in, so the token probes
    report them NotAssessable with their own evidence.
    """
    enforcing: list[ComponentSpec] = []
    notes: list[Outcome] = []
    for comp in services:
        if _rejects_anonymous(http, comp, comp.read.method, comp.read.path) is False:
            notes.append(note(
                f"{comp.id} {comp.read.method} {comp.read.path}: accepts "
                "anonymous requests; token validation not exercised there"
            ))
        else:
            enforcing.append(comp)
    return enforcing, notes


def run_jwt_battery(
    manifest: TargetManifest,
    *,
    http: HttpClient,
    mint: MintFn,
    wanted: Collection[str],
) -> list[CheckResult]:
    """Execute the wanted checks of JWT-01..JWT-10 against every
    token-accepting service. Shared inputs are fetched once, by the first
    check that reads them, so a failure costs only the checks that do."""
    services = token_services(manifest)
    jwks = functools.cache(lambda: _fetch_jwks(manifest, http))
    enforcing = functools.cache(lambda: _enforcing_services(services, http))

    def judge_issued(check_id: str, judge: Callable[[SignedToken], Outcome]) -> CheckResult:
        # JWT-01 and JWT-03 judge the token issued for the first service.
        return fold(check_id, attempt(
            "authorization server did not issue a probe token",
            lambda: [judge(_baseline(mint, services[0]))]))

    def presenting(check_id: str, probes: Callable[[list[ComponentSpec]], list[Outcome]],
                   pass_line: Optional[str] = None) -> CheckResult:
        # Tokens go only to services that demand one; each other service
        # leaves its note.
        targets, notes = enforcing()
        if not targets:
            return fold(check_id, notes + [unassessable(_NO_ENFORCING)])
        return fold(check_id, notes + probes(targets), pass_line)

    return run_checks(wanted, [
        ("JWT-01", lambda: judge_issued("JWT-01", _lifetime)),
        ("JWT-02", lambda: presenting(
            "JWT-02", lambda targets: _expired(manifest, targets, http, mint))),
        ("JWT-03", lambda: judge_issued("JWT-03", _algorithm)),
        ("JWT-04", lambda: _check_key_exposure(manifest, http, *jwks())),
        ("JWT-05", lambda: presenting(
            "JWT-05", lambda targets: _forgeries(
                targets, mint, http, [StripSignature(), FlipSignatureBit(0)]),
            pass_line="signature validation enforced for every variant")),
        ("JWT-06", lambda: presenting(
            "JWT-06", lambda targets: _forgeries(targets, mint, http, [SetAlgNone()]),
            pass_line="alg=none token rejected everywhere")),
        ("JWT-07", lambda: presenting(
            "JWT-07", lambda targets: _confusion(manifest, targets, mint, http, jwks),
            pass_line="HMAC-with-public-key forgery rejected everywhere")),
        ("JWT-08", lambda: _check_scope(services, mint, http)),
        ("JWT-09", lambda: presenting(
            "JWT-09", lambda targets: _audience(services, targets, http, mint),
            pass_line="tokens are rejected outside their minted audience")),
        ("JWT-10", lambda: _check_web_token_storage(manifest, http)),
    ])


def _fetch_jwks(
    manifest: TargetManifest, http: HttpClient
) -> tuple[Optional[dict], list[Outcome]]:
    """The declared JWKS document, or None with JWT-04's NotAssessable line
    when it is declared but unreadable. (None, []) when none is declared."""
    server = manifest.oauth_server()
    if not server.jwks_path:
        return None, []
    label = f"{server.id} JWKS {server.jwks_path}"
    doc: Optional[dict] = None

    def fetch() -> list[Outcome]:
        nonlocal doc
        resp = http.request("GET", server.primary_endpoint().url(server.jwks_path))
        if resp.status != 200:
            return [unassessable(f"{label}: HTTP {resp.status}")]
        doc = resp.json_object()
        if doc is None:
            return [unassessable(f"{label}: not a JSON object")]
        keys = doc.get("keys", [])
        if not isinstance(keys, list) or not all(isinstance(k, dict) for k in keys):
            doc = None
            return [unassessable(f"{label}: keys is not a list of objects")]
        return []

    unreadable = attempt(label, fetch)
    return doc, unreadable


def _is_number(value) -> bool:
    """A finite JSON number; true and false are not numbers here."""
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, int) and not isinstance(value, bool)


def _lifetime(token: SignedToken) -> Outcome:
    # A claim that is not a number bounds nothing, like a missing one.
    claims = token.claims
    if not _is_number(claims.get("exp")):
        kind = "numeric exp" if "exp" in claims else "exp"
        return judged(True, f"issued token carries no {kind} claim (unbounded lifetime)")
    if not _is_number(claims.get("iat")):
        kind = "numeric iat" if "iat" in claims else "iat"
        return judged(True, f"issued token carries exp but no {kind}; lifetime cannot be "
                      "bounded at issue time")
    lifetime = int(claims["exp"]) - int(claims["iat"])
    if lifetime > LIFETIME_THRESHOLD_S:
        return judged(True, f"issued token lifetime exp-iat = {lifetime} s exceeds "
                      f"threshold: {lifetime} > {LIFETIME_THRESHOLD_S}")
    return judged(False, f"issued token lifetime exp-iat = {lifetime} s within "
                  f"threshold {LIFETIME_THRESHOLD_S} s")


def _expired(
    manifest: TargetManifest, services: list[ComponentSpec], http: HttpClient, mint: MintFn
) -> list[Outcome]:
    if not manifest.audit_fixture:
        return [unassessable(
            "a validly signed expired token cannot be obtained without issuer "
            "cooperation; declare audit_fixture mode or wait out a real token "
            "lifetime to assess expiry enforcement"
        )]
    outcomes = []
    for comp in services:
        # Issuer fixture parameters yield a validly signed, already expired
        # token; forging expiry would also break the signature and prove
        # nothing about expiry enforcement.
        outcomes += _presented(
            http, comp, comp.read, "validly-signed expired",
            lambda: mint(scope=comp.read.scope, audience=comp.audience,
                         lifetime_s=60, iat_offset_s=-3600),
        )
    return outcomes


def _algorithm(token: SignedToken) -> Outcome:
    alg = token.header.get("alg")
    outside = not isinstance(alg, str) or alg not in ALLOWED_ALGS
    allowed = ", ".join(sorted(ALLOWED_ALGS))
    word = "outside allowed set" if outside else "allowed set"
    return judged(outside, f"issued token header alg = {alg}; {word}: {allowed}")


def _check_key_exposure(
    manifest: TargetManifest,
    http: HttpClient,
    keys: Optional[dict],
    unreadable: list[Outcome],
) -> CheckResult:
    outcomes = []
    public_web = [
        comp
        for comp in manifest.components
        if expected_zone(comp.role) is Zone.PUBLIC
        and comp.endpoints
        and comp.primary_endpoint().scheme in ("http", "https")
    ]

    def key_path(comp: ComponentSpec, path: str) -> list[Outcome]:
        resp = http.request("GET", comp.primary_endpoint().url(path))
        if resp.status == 200 and any(
            marker in resp.body for marker in _KEY_EXPOSURE_MARKERS
        ):
            return [judged(
                True, f"{comp.id} GET {path}: HTTP 200 returns key material", comp.id)]
        return [judged(False, f"{comp.id} GET {path}: HTTP {resp.status}")]

    for comp in public_web:
        for path in KEY_PATHS:
            outcomes += attempt(comp.id, lambda: key_path(comp, path))
    exposed = jwks_private_fields(keys) if keys is not None else []
    if unreadable:
        outcomes += unreadable
    elif keys is None:
        outcomes.append(judged(False, "no JWKS document published"))
    elif exposed:
        outcomes.append(judged(
            True, "published JWKS exposes private fields: " + ", ".join(exposed),
            manifest.oauth_server().id,
        ))
    else:
        outcomes.append(judged(False, "published JWKS contains public parameters only"))
    return fold("JWT-04", outcomes)


def _forgeries(
    services: list[ComponentSpec], mint: MintFn, http: HttpClient, mutations: list[Mutation]
) -> list[Outcome]:
    outcomes = []
    for comp in services:
        for mutation in mutations:
            outcomes += _presented(
                http, comp, comp.read, mutation.name,
                lambda: forge(_baseline(mint, comp), mutation),
            )
    return outcomes


def _confusion(
    manifest: TargetManifest,
    services: list[ComponentSpec],
    mint: MintFn,
    http: HttpClient,
    jwks: Callable[[], tuple[Optional[dict], list[Outcome]]],
) -> list[Outcome]:
    keys, unreadable = jwks()
    if unreadable:
        return unreadable
    rsa_keys = [e for e in (keys or {}).get("keys", []) if e.get("kty") == "RSA"]
    if not rsa_keys:
        return [unassessable(
            "no published RSA key; confusion forgery cannot be constructed")]
    try:
        public_pem = jwk_to_public_pem(rsa_keys[0])
    except TokenError:
        return [unassessable(
            f"{manifest.oauth_server().id} JWKS: RSA key without usable n/e")]
    return _forgeries(services, mint, http, [AlgConfusionHs256(public_pem)])


def _check_scope(
    services: list[ComponentSpec],
    mint: MintFn,
    http: HttpClient,
) -> CheckResult:
    writable = [c for c in services if c.write]
    if not writable:
        return fold("JWT-08", [unassessable("no scope-gated write action declared")])
    outcomes = []
    for comp in writable:
        body = comp.write_body.encode("utf-8") if comp.write_body else b"{}"
        if _rejects_anonymous(
            http, comp, comp.write.method, comp.write.path, body=body
        ) is False:
            outcomes.append(note(
                f"{comp.id} {comp.write.method} {comp.write.path}: accepts "
                "anonymous requests; scope validation not exercised there"
            ))
            continue
        probes = [
            ("forged added-scope",
             lambda: forge(_baseline(mint, comp), AddScope(comp.write.scope))),
            ("legitimately scoped read-only", lambda: _baseline(mint, comp)),
        ]
        for variant, token in probes:
            outcomes += _presented(http, comp, comp.write, variant, token, body=body)
    return fold("JWT-08", outcomes, "write actions demand their declared scope")


def _audience(
    services: list[ComponentSpec],
    enforcing: list[ComponentSpec],
    http: HttpClient,
    mint: MintFn,
) -> list[Outcome]:
    # Audience candidates come from every declared service; presentation is
    # limited to services that demand a token in the first place.
    audiences = []
    for comp in services:
        if comp.audience not in audiences:
            audiences.append(comp.audience)
    if len(audiences) < 2:
        return [unassessable(
            "fewer than two token audiences declared; cross-audience replay "
            "cannot be constructed")]
    outcomes = []
    for comp in enforcing:
        foreign = next(a for a in audiences if a != comp.audience)
        # Correct scope for the target, wrong audience: only the audience
        # check separates this token from a legitimate one.
        outcomes += _presented(
            http, comp, comp.read, f"audience={foreign}",
            lambda: mint(scope=comp.read.scope, audience=foreign),
        )
    return outcomes


_COOKIE_REQUIRED_FLAGS = ("secure", "httponly", "samesite=strict")
_STORAGE_PATTERN = re.compile(r"localStorage\s*\.\s*setItem|window\.localStorage")


def _page_storage(http: HttpClient, comp: ComponentSpec) -> list[Outcome]:
    """JWT-10's outcomes for one web application's landing page."""
    resp = http.request("GET", comp.primary_endpoint().url("/"),
                        source=vantage(comp, http.allowlisted_source))
    outcomes = []
    for cookie in resp.header_all("Set-Cookie"):
        cookie_name = cookie.split("=", 1)[0].strip()
        lowered = cookie.lower()
        missing = [flag for flag in _COOKIE_REQUIRED_FLAGS if flag not in lowered]
        if missing:
            outcomes.append(judged(
                True, f"{comp.id} cookie {cookie_name} missing flags: "
                + ", ".join(missing), comp.id))
        else:
            outcomes.append(judged(
                False, f"{comp.id} cookie {cookie_name} sets Secure, HttpOnly, "
                "SameSite=Strict"))
    if _STORAGE_PATTERN.search(resp.text()):
        outcomes.append(judged(
            True, f"{comp.id} page persists values to browser localStorage", comp.id))
    else:
        outcomes.append(judged(
            False, f"{comp.id} page does not persist tokens to browser storage"))
    return outcomes


def _check_web_token_storage(manifest: TargetManifest, http: HttpClient) -> CheckResult:
    outcomes = []
    for comp in manifest.web_apps():
        outcomes += attempt(comp.id, lambda: _page_storage(http, comp))
    return fold("JWT-10", outcomes)
