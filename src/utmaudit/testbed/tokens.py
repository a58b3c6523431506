"""Token issuance and validation for the mock services.

Deliberately self-contained: this module carries its own base64url and
signing code instead of importing the auditor's token machinery, so the
ground truth cannot inherit a bug from the code under test.

Validation runs in fixed stages: parse, algorithm policy, signature,
expiry, audience, scope. Each toggle removes exactly one stage's teeth.
"""

from __future__ import annotations

import base64
import binascii
import hmac
import hashlib
import json
import secrets
import time
from dataclasses import dataclass, field
from typing import Optional

from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import padding, rsa

from .toggles import Switches

ISSUER = "testbed-oauth"
DEFAULT_LIFETIME_S = 300
LONG_LIFETIME_S = 30 * 24 * 3600
CLOCK_SKEW_S = 30


def _b64e(data: bytes) -> str:
    return base64.urlsafe_b64encode(data).rstrip(b"=").decode()


def _b64d(text: str) -> bytes:
    pad = "=" * (-len(text) % 4)
    return base64.urlsafe_b64decode(text + pad)


def _uint_b64(value: int) -> str:
    length = (value.bit_length() + 7) // 8
    return _b64e(value.to_bytes(length, "big"))


@dataclass(frozen=True)
class SigningKeys:
    """The issuer's key material, parsed once in ``make_signing_keys``
    rather than on every issuance, validation and JWKS render."""

    private_pem: bytes
    public_pem: bytes
    kid: str
    private_key: rsa.RSAPrivateKey
    public_key: rsa.RSAPublicKey
    hs256_secret: bytes = field(default_factory=lambda: secrets.token_bytes(32))


@dataclass(frozen=True)
class IssuerPolicy:
    algorithm: str = "RS256"  # or HS256 under the weak-algorithm toggle
    lifetime_s: int = DEFAULT_LIFETIME_S


@dataclass(frozen=True)
class ValidatorPolicy:
    expected_audience: str
    switches: Switches = Switches()


@dataclass(frozen=True)
class Verdict:
    ok: bool
    status: int
    reason: str
    claims: dict = field(default_factory=dict)


def issue(
    keys: SigningKeys,
    policy: IssuerPolicy,
    *,
    subject: str,
    scope: str,
    audience: str,
    lifetime_s: Optional[int] = None,
    iat_offset_s: int = 0,
) -> str:
    now = int(time.time()) + iat_offset_s
    lifetime = policy.lifetime_s if lifetime_s is None else lifetime_s
    header = {"alg": policy.algorithm, "typ": "JWT", "kid": keys.kid}
    claims = {
        "iss": ISSUER,
        "sub": subject,
        "aud": audience,
        "scope": scope,
        "iat": now,
        "exp": now + lifetime,
        "jti": secrets.token_hex(8),
    }
    signing_input = (
        _b64e(json.dumps(header, separators=(",", ":")).encode())
        + "."
        + _b64e(json.dumps(claims, separators=(",", ":")).encode())
    )
    if policy.algorithm == "HS256":
        sig = hmac.new(keys.hs256_secret, signing_input.encode(), hashlib.sha256).digest()
    else:
        sig = keys.private_key.sign(
            signing_input.encode(), padding.PKCS1v15(), hashes.SHA256()
        )
    return signing_input + "." + _b64e(sig)


def _verify_rs256(keys: SigningKeys, signing_input: bytes, sig: bytes) -> bool:
    try:
        keys.public_key.verify(
            sig, signing_input, padding.PKCS1v15(), hashes.SHA256()
        )
        return True
    except Exception:
        return False


def validate(
    keys: SigningKeys,
    policy: ValidatorPolicy,
    compact: str,
    *,
    required_scope: Optional[str],
    now: Optional[int] = None,
) -> Verdict:
    now = int(time.time()) if now is None else now
    switches = policy.switches
    parts = compact.split(".")
    if len(parts) != 3:
        return Verdict(False, 401, "malformed token")
    header_b64, claims_b64, sig_b64 = parts
    try:
        header = json.loads(_b64d(header_b64))
        claims = json.loads(_b64d(claims_b64))
        signature = _b64d(sig_b64) if sig_b64 else b""
    except (ValueError, binascii.Error):
        return Verdict(False, 401, "malformed token")
    if not isinstance(header, dict) or not isinstance(claims, dict):
        return Verdict(False, 401, "malformed token")

    alg = header.get("alg")
    signing_input = (header_b64 + "." + claims_b64).encode()

    # Each allowed algorithm with the check of its signature: RS256 with
    # the signing key, HS256 with each key that an HMAC toggle adds, and
    # none only under its toggle. skip-signature-check skips every check.
    # Each toggle widens what the others allow, and none shadows another.
    hmac_keys = [key for key, on in (
        (keys.hs256_secret, switches.weak_alg_hs256_default),
        (keys.public_pem, switches.accept_alg_confusion),
    ) if on]
    checks = {"RS256": lambda: _verify_rs256(keys, signing_input, signature)}
    if hmac_keys:
        checks["HS256"] = lambda: any(hmac.compare_digest(
            hmac.new(key, signing_input, hashlib.sha256).digest(), signature
        ) for key in hmac_keys)
    if switches.accept_none_alg:
        checks["none"] = lambda: True  # accepted without any signature
    check = checks.get(alg) if isinstance(alg, str) else None
    if check is None:
        return Verdict(False, 401, "algorithm not allowed")
    if not switches.skip_signature_check and not check():
        return Verdict(False, 401, "bad signature")

    if not switches.accept_expired:
        exp = claims.get("exp")
        if not isinstance(exp, int) or now > exp + CLOCK_SKEW_S:
            return Verdict(False, 401, "token expired")

    if not switches.no_audience_check:
        if claims.get("aud") != policy.expected_audience:
            return Verdict(False, 401, "audience mismatch")

    if not switches.no_scope_check and required_scope is not None:
        granted = str(claims.get("scope", "")).split()
        if required_scope not in granted:
            return Verdict(False, 403, "insufficient scope")

    return Verdict(True, 200, "ok", claims)


# ---------------------------------------------------------------------------
# JWKS rendering
# ---------------------------------------------------------------------------


def jwks_document(keys: SigningKeys, *, include_private_fields: bool = False) -> dict:
    numbers = keys.private_key.private_numbers()
    pub = numbers.public_numbers
    jwk = {
        "kty": "RSA",
        "use": "sig",
        "alg": "RS256",
        "kid": keys.kid,
        "n": _uint_b64(pub.n),
        "e": _uint_b64(pub.e),
    }
    if include_private_fields:
        jwk.update(
            {
                "d": _uint_b64(numbers.d),
                "p": _uint_b64(numbers.p),
                "q": _uint_b64(numbers.q),
                "dp": _uint_b64(numbers.dmp1),
                "dq": _uint_b64(numbers.dmq1),
                "qi": _uint_b64(numbers.iqmp),
            }
        )
    return {"keys": [jwk]}


def make_signing_keys(private_pem: bytes, public_pem: bytes, kid: str) -> SigningKeys:
    # The PEM is the key certs.make_bundle has just generated in this
    # process. Re-validating it (a primality check) would add ~70 ms to
    # a process's first testbed start, which is every `testbed up`.
    private_key = serialization.load_pem_private_key(
        private_pem, password=None, unsafe_skip_rsa_key_validation=True
    )
    return SigningKeys(
        private_pem=private_pem,
        public_pem=public_pem,
        kid=kid,
        private_key=private_key,
        public_key=serialization.load_pem_public_key(public_pem),
    )
