"""Issuer-side token helpers that only tests need: key material, RS256 and
HS256 signing and verification, fresh tokens, and the mutations that
re-sign or edit claims. The scanner never signs with a real key, so none of
this lives in the package. ``forge`` handles the mutations defined here and
hands every other one to ``utmaudit.jwtkit.forge``.
"""

from __future__ import annotations

import enum
import hmac
from dataclasses import dataclass, field
from typing import Optional

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import padding

from utmaudit import jwtkit
from utmaudit.jwtkit import Mutation, SignedToken, TokenError, _json_part, sign_hs256


class KeyKind(enum.Enum):
    RSA_PUBLIC = "RsaPublic"
    RSA_PRIVATE = "RsaPrivate"
    HMAC_SECRET = "HmacSecret"


@dataclass(frozen=True)
class KeyMaterial:
    kind: KeyKind
    data: bytes  # PEM for RSA, raw secret for HMAC


def encode(token: SignedToken) -> str:
    return token.compact()


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


@dataclass(frozen=True)
class SetExpiry(Mutation):
    expires_at: int = 0
    name: str = field(default="set-expiry", init=False)


@dataclass(frozen=True)
class SetAudience(Mutation):
    audience: str = ""
    name: str = field(default="set-audience", init=False)


@dataclass(frozen=True)
class ResignWith(Mutation):
    key: KeyMaterial = None
    name: str = field(default="resign", init=False)


def forge(base: SignedToken, mutation: Mutation) -> SignedToken:
    """``jwtkit.forge`` plus the three mutations above. Claim edits leave
    the old signature in place; ResignWith signs the token afresh."""
    if isinstance(mutation, SetExpiry):
        return base.with_claims(exp=mutation.expires_at)
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
    return jwtkit.forge(base, mutation)
