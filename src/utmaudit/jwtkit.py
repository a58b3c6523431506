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
import enum
import hashlib
import hmac
import json
import re
from dataclasses import dataclass, field
from typing import Callable, Collection, Optional

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import padding, rsa

from .manifest import ComponentSpec, TargetManifest, Zone, expected_zone
from .results import (
    CheckResult, CheckStatus, Outcome, fold, judged, note, run_checks, unassessable,
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


def encode(token: SignedToken) -> str:
    return token.compact()


# ---------------------------------------------------------------------------
# Key material and signing primitives
# ---------------------------------------------------------------------------


class KeyKind(enum.Enum):
    RSA_PUBLIC = "RsaPublic"
    RSA_PRIVATE = "RsaPrivate"
    HMAC_SECRET = "HmacSecret"


@dataclass(frozen=True)
class KeyMaterial:
    kind: KeyKind
    data: bytes  # PEM for RSA, raw secret for HMAC


def sign_hs256(signing_input: bytes, key: bytes) -> bytes:
    return hmac.new(key, signing_input, hashlib.sha256).digest()


def verify_hs256(signing_input: bytes, signature: bytes, key: bytes) -> bool:
    return hmac.compare_digest(sign_hs256(signing_input, key), signature)


def sign_rs256(signing_input: bytes, private_pem: bytes) -> bytes:
    key = serialization.load_pem_private_key(private_pem, password=None)
    return key.sign(signing_input, padding.PKCS1v15(), hashes.SHA256())


def verify_rs256(signing_input: bytes, signature: bytes, public_pem: bytes) -> bool:
    key = serialization.load_pem_public_key(public_pem)
    try:
        key.verify(signature, signing_input, padding.PKCS1v15(), hashes.SHA256())
        return True
    except InvalidSignature:
        return False


def make_token(header: dict, claims: dict, key: Optional[KeyMaterial]) -> SignedToken:
    """Build and sign a fresh token (issuer-shaped helper for tests/fixtures)."""
    token = SignedToken(
        header=dict(header),
        claims=dict(claims),
        signature=b"",
        header_b64=_json_part(header),
        claims_b64=_json_part(claims),
    )
    alg = header.get("alg")
    if alg == "none":
        return token
    if key is None:
        raise TokenError(f"alg {alg} requires key material")
    if alg == "RS256":
        if key.kind != KeyKind.RSA_PRIVATE:
            raise TokenError("RS256 requires an RSA private key")
        token.signature = sign_rs256(token.signing_input(), key.data)
    elif alg == "HS256":
        if key.kind != KeyKind.HMAC_SECRET:
            raise TokenError("HS256 requires an HMAC secret")
        token.signature = sign_hs256(token.signing_input(), key.data)
    else:
        raise TokenError(f"unsupported algorithm {alg!r}")
    return token


def verify_token(token: SignedToken, key: KeyMaterial) -> bool:
    """Signature validity under the given key; alg 'none' never verifies."""
    alg = token.header.get("alg")
    if alg == "RS256" and key.kind == KeyKind.RSA_PUBLIC:
        return verify_rs256(token.signing_input(), token.signature, key.data)
    if alg == "HS256" and key.kind == KeyKind.HMAC_SECRET:
        return verify_hs256(token.signing_input(), token.signature, key.data)
    return False


# ---------------------------------------------------------------------------
# JWKS helpers
# ---------------------------------------------------------------------------

_JWK_PRIVATE_FIELDS = ("d", "p", "q", "dp", "dq", "qi")


def jwk_to_public_pem(jwk: dict) -> bytes:
    """RSA JWK (n, e) to the canonical SubjectPublicKeyInfo PEM bytes."""
    if jwk.get("kty") != "RSA":
        raise TokenError(f"not an RSA JWK: kty={jwk.get('kty')!r}")
    n = int.from_bytes(b64url_decode(jwk["n"]), "big")
    e = int.from_bytes(b64url_decode(jwk["e"]), "big")
    public_key = rsa.RSAPublicNumbers(e, n).public_key()
    return public_key.public_bytes(
        serialization.Encoding.PEM, serialization.PublicFormat.SubjectPublicKeyInfo
    )


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
class SetExpiry(Mutation):
    expires_at: int = 0
    name: str = field(default="set-expiry", init=False)


@dataclass(frozen=True)
class AddScope(Mutation):
    scope: str = ""
    name: str = field(default="add-scope", init=False)


@dataclass(frozen=True)
class SetAudience(Mutation):
    audience: str = ""
    name: str = field(default="set-audience", init=False)


@dataclass(frozen=True)
class ResignWith(Mutation):
    key: KeyMaterial = None
    name: str = field(default="resign", init=False)


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
    if isinstance(mutation, SetExpiry):
        return base.with_claims(exp=mutation.expires_at)
    if isinstance(mutation, AddScope):
        current = base.claims.get("scope", "")
        merged = f"{current} {mutation.scope}".strip()
        return base.with_claims(scope=merged)
    if isinstance(mutation, SetAudience):
        return base.with_claims(aud=mutation.audience)
    if isinstance(mutation, ResignWith):
        key = mutation.key
        if key is None:
            raise TokenError("resign requires key material")
        if key.kind == KeyKind.RSA_PRIVATE:
            token = base.with_header(alg="RS256")
            token.signature = sign_rs256(token.signing_input(), key.data)
        elif key.kind == KeyKind.HMAC_SECRET:
            token = base.with_header(alg="HS256")
            token.signature = sign_hs256(token.signing_input(), key.data)
        else:
            raise TokenError("cannot sign with a public key")
        return token
    raise TokenError(f"unknown mutation {mutation!r}")


# ---------------------------------------------------------------------------
# Live battery
# ---------------------------------------------------------------------------

LIFETIME_THRESHOLD_S = 900
ALLOWED_ALGS = frozenset({"RS256", "ES256", "PS256"})
KEY_PATHS = ("/private.pem", "/.env", "/keys/")

# mint(scope, audience, lifetime_s, iat_offset_s) -> SignedToken or None.
MintFn = Callable[..., Optional[SignedToken]]

_KEY_EXPOSURE_MARKERS = (b"PRIVATE KEY", b"client_secret=", b"CLIENT_SECRET=")
_NO_SERVICES = "no token-accepting services declared"


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


def _source_for(http: HttpClient, comp: ComponentSpec) -> str:
    if expected_zone(comp.role) is Zone.RESTRICTED and http.allowlisted_source:
        return "allowlisted"
    return "external"


def _presented(
    http: HttpClient,
    comp: ComponentSpec,
    method: str,
    path: str,
    token: str,
    variant: str,
    body: Optional[bytes] = None,
) -> Outcome:
    """Present one token to an action: acceptance fails the check, a
    transport error leaves this target unassessed."""
    try:
        resp = http.request(
            method,
            comp.primary_endpoint().url(path),
            body=body,
            headers={"Authorization": f"Bearer {token}"},
            source=_source_for(http, comp),
        )
    except WireError as exc:
        return unassessable(f"{comp.id}: {exc}")
    accepted = 200 <= resp.status < 300
    word = "accepted" if accepted else "rejected"
    return judged(
        accepted,
        f"{comp.id} {method} {path} with {variant} token: HTTP {resp.status} ({word})",
        comp.id,
    )


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
                            source=_source_for(http, comp))
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
    live_token: SignedToken,
    keys: Optional[dict] = None,
    *,
    http: HttpClient,
    mint: MintFn,
    wanted: Collection[str],
) -> list[CheckResult]:
    """Execute the wanted checks of JWT-01..JWT-10 against every
    token-accepting service."""
    services = token_services(manifest)
    if keys is None:
        keys = _fetch_jwks(manifest, http)
    enforcing, notes = _enforcing_services(services, http)

    baselines: dict[str, Optional[SignedToken]] = {}

    def baseline(comp: ComponentSpec) -> Optional[SignedToken]:
        if comp.id not in baselines:
            baselines[comp.id] = mint(scope=comp.read.scope, audience=comp.audience)
        return baselines[comp.id]

    return run_checks(wanted, [
        ("JWT-01", lambda: _check_lifetime(live_token)),
        ("JWT-02", lambda: _check_expired(manifest, enforcing, notes, http, mint)),
        ("JWT-03", lambda: _check_algorithm(live_token)),
        ("JWT-04", lambda: _check_key_exposure(manifest, http, keys)),
        ("JWT-05", lambda: _check_forgeries(
            "JWT-05", enforcing, notes, baseline, http,
            [StripSignature(), FlipSignatureBit(0)],
            "signature validation enforced for every variant")),
        ("JWT-06", lambda: _check_forgeries(
            "JWT-06", enforcing, notes, baseline, http,
            [SetAlgNone()], "alg=none token rejected everywhere")),
        ("JWT-07", lambda: _check_confusion(enforcing, notes, baseline, http, keys)),
        ("JWT-08", lambda: _check_scope(services, baseline, http)),
        ("JWT-09", lambda: _check_audience(services, enforcing, notes, http, mint)),
        ("JWT-10", lambda: _check_web_token_storage(manifest, http)),
    ])


def _fetch_jwks(manifest: TargetManifest, http: HttpClient) -> Optional[dict]:
    server = manifest.oauth_server()
    if not server.jwks_path:
        return None
    try:
        resp = http.request("GET", server.primary_endpoint().url(server.jwks_path))
        if resp.status == 200:
            doc = resp.json()
            if isinstance(doc, dict):
                return doc
    except (WireError, ValueError):
        pass
    return None


def _check_lifetime(live_token: SignedToken) -> CheckResult:
    claims = live_token.claims
    if "exp" not in claims:
        return CheckResult(
            "JWT-01", CheckStatus.FAIL,
            ["issued token carries no exp claim (unbounded lifetime)"],
        )
    if "iat" not in claims:
        return CheckResult(
            "JWT-01", CheckStatus.FAIL,
            ["issued token carries exp but no iat; lifetime cannot be bounded at issue time"],
        )
    lifetime = int(claims["exp"]) - int(claims["iat"])
    if lifetime > LIFETIME_THRESHOLD_S:
        return CheckResult(
            "JWT-01", CheckStatus.FAIL,
            [f"issued token lifetime exp-iat = {lifetime} s exceeds threshold: "
             f"{lifetime} > {LIFETIME_THRESHOLD_S}"],
        )
    return CheckResult(
        "JWT-01", CheckStatus.PASS,
        [f"issued token lifetime exp-iat = {lifetime} s within threshold "
         f"{LIFETIME_THRESHOLD_S} s"],
    )


def _check_expired(
    manifest: TargetManifest,
    services: list[ComponentSpec],
    notes: list[Outcome],
    http: HttpClient,
    mint: MintFn,
) -> CheckResult:
    if not services:
        return fold("JWT-02", notes + [unassessable(_NO_SERVICES)])
    if not manifest.audit_fixture:
        return fold("JWT-02", notes + [unassessable(
            "a validly signed expired token cannot be obtained without issuer "
            "cooperation; declare audit_fixture mode or wait out a real token "
            "lifetime to assess expiry enforcement"
        )])
    outcomes = list(notes)
    for comp in services:
        # Issuer fixture parameters yield a validly signed, already expired
        # token; forging expiry would also break the signature and prove
        # nothing about expiry enforcement.
        expired = mint(scope=comp.read.scope, audience=comp.audience,
                       lifetime_s=60, iat_offset_s=-3600)
        if expired is None:
            outcomes.append(unassessable(
                f"{comp.id}: no validly signed expired token could be minted"))
            continue
        outcomes.append(_presented(http, comp, comp.read.method, comp.read.path,
                                   expired.compact(), "validly-signed expired"))
    return fold("JWT-02", outcomes)


def _check_algorithm(live_token: SignedToken) -> CheckResult:
    alg = live_token.header.get("alg")
    allowed = ", ".join(sorted(ALLOWED_ALGS))
    if alg not in ALLOWED_ALGS:
        return CheckResult(
            "JWT-03", CheckStatus.FAIL,
            [f"issued token header alg = {alg}; outside allowed set: {allowed}"],
        )
    return CheckResult(
        "JWT-03", CheckStatus.PASS,
        [f"issued token header alg = {alg}; allowed set: {allowed}"],
    )


def _check_key_exposure(
    manifest: TargetManifest, http: HttpClient, keys: Optional[dict]
) -> CheckResult:
    outcomes = []
    public_web = [
        comp
        for comp in manifest.components
        if expected_zone(comp.role) is Zone.PUBLIC
        and comp.endpoints
        and comp.primary_endpoint().scheme in ("http", "https")
    ]
    for comp in public_web:
        for path in KEY_PATHS:
            try:
                resp = http.request("GET", comp.primary_endpoint().url(path))
            except WireError as exc:
                outcomes.append(unassessable(f"{comp.id}: {exc}"))
                continue
            if resp.status == 200 and any(
                marker in resp.body for marker in _KEY_EXPOSURE_MARKERS
            ):
                outcomes.append(judged(
                    True, f"{comp.id} GET {path}: HTTP 200 returns key material", comp.id))
            else:
                outcomes.append(judged(False, f"{comp.id} GET {path}: HTTP {resp.status}"))
    exposed = jwks_private_fields(keys) if keys is not None else []
    if keys is None:
        outcomes.append(judged(False, "no JWKS document published"))
    elif exposed:
        outcomes.append(judged(
            True, "published JWKS exposes private fields: " + ", ".join(exposed),
            manifest.oauth_server().id,
        ))
    else:
        outcomes.append(judged(False, "published JWKS contains public parameters only"))
    return fold("JWT-04", outcomes)


def _check_forgeries(
    check_id: str,
    services: list[ComponentSpec],
    notes: list[Outcome],
    baseline: Callable[[ComponentSpec], Optional[SignedToken]],
    http: HttpClient,
    mutations: list[Mutation],
    pass_line: str,
) -> CheckResult:
    outcomes = list(notes)
    if not services:
        outcomes.append(unassessable(_NO_SERVICES))
    for comp in services:
        base = baseline(comp)
        if base is None:
            outcomes.append(unassessable(f"{comp.id}: no baseline token could be minted"))
            continue
        for mutation in mutations:
            outcomes.append(_presented(
                http, comp, comp.read.method, comp.read.path,
                forge(base, mutation).compact(), mutation.name,
            ))
    return fold(check_id, outcomes, pass_line)


def _check_confusion(
    services: list[ComponentSpec],
    notes: list[Outcome],
    baseline: Callable[[ComponentSpec], Optional[SignedToken]],
    http: HttpClient,
    keys: Optional[dict],
) -> CheckResult:
    if not services:
        return fold("JWT-07", notes + [unassessable(_NO_SERVICES)])
    rsa_keys = [e for e in (keys or {}).get("keys", []) if e.get("kty") == "RSA"]
    if not rsa_keys:
        return fold("JWT-07", notes + [unassessable(
            "no published RSA key; confusion forgery cannot be constructed")])
    return _check_forgeries(
        "JWT-07", services, notes, baseline, http,
        [AlgConfusionHs256(jwk_to_public_pem(rsa_keys[0]))],
        "HMAC-with-public-key forgery rejected everywhere",
    )


def _check_scope(
    services: list[ComponentSpec],
    baseline: Callable[[ComponentSpec], Optional[SignedToken]],
    http: HttpClient,
) -> CheckResult:
    writable = [c for c in services if c.write]
    if not writable:
        return fold("JWT-08", [unassessable("no scope-gated write action declared")])
    outcomes = []
    for comp in writable:
        base = baseline(comp)
        if base is None:
            outcomes.append(unassessable(f"{comp.id}: no baseline token could be minted"))
            continue
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
            (forge(base, AddScope(comp.write.scope)), "forged added-scope"),
            (base, "legitimately scoped read-only"),
        ]
        for token, variant in probes:
            outcomes.append(_presented(
                http, comp, comp.write.method, comp.write.path,
                token.compact(), variant, body=body,
            ))
    return fold("JWT-08", outcomes, "write actions demand their declared scope")


def _check_audience(
    services: list[ComponentSpec],
    enforcing: list[ComponentSpec],
    notes: list[Outcome],
    http: HttpClient,
    mint: MintFn,
) -> CheckResult:
    # Audience candidates come from every declared service; presentation is
    # limited to services that demand a token in the first place.
    audiences = []
    for comp in services:
        if comp.audience not in audiences:
            audiences.append(comp.audience)
    if len(audiences) < 2:
        return fold("JWT-09", notes + [unassessable(
            "fewer than two token audiences declared; cross-audience replay "
            "cannot be constructed")])
    if not enforcing:
        return fold("JWT-09", notes + [unassessable(
            "no token-demanding action remains to present a cross-audience "
            "token to")])
    outcomes = list(notes)
    for comp in enforcing:
        foreign = next(a for a in audiences if a != comp.audience)
        # Correct scope for the target, wrong audience: only the audience
        # check separates this token from a legitimate one.
        token = mint(scope=comp.read.scope, audience=foreign)
        if token is None:
            outcomes.append(unassessable(f"could not mint a token for audience {foreign}"))
            continue
        outcomes.append(_presented(http, comp, comp.read.method, comp.read.path,
                                   token.compact(), f"audience={foreign}"))
    return fold("JWT-09", outcomes, "tokens are rejected outside their minted audience")


_COOKIE_REQUIRED_FLAGS = ("secure", "httponly", "samesite=strict")
_STORAGE_PATTERN = re.compile(r"localStorage\s*\.\s*setItem|window\.localStorage")


def _check_web_token_storage(manifest: TargetManifest, http: HttpClient) -> CheckResult:
    outcomes = []
    for comp in manifest.web_apps():
        try:
            resp = http.request("GET", comp.primary_endpoint().url("/"),
                                source=_source_for(http, comp))
        except WireError as exc:
            outcomes.append(unassessable(f"{comp.id}: {exc}"))
            continue
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
    return fold("JWT-10", outcomes)
