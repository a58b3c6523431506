"""Token parsing, round-trip identity, and every forgery mutation.

The confusion-forgery signature is checked against the independent HMAC
implementation from tests/oracles, never against the code that produced it.
"""

import contextlib
import json

import pytest
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import rsa
from hypothesis import given, settings
from hypothesis import strategies as st

from utmaudit.jwtkit import (
    ALLOWED_ALGS,
    AddScope,
    AlgConfusionHs256,
    FlipSignatureBit,
    SetAlgNone,
    SignedToken,
    StripSignature,
    TokenError,
    b64url_decode,
    b64url_encode,
    decode,
    jwk_to_public_pem,
    jwks_private_fields,
    run_jwt_battery,
)
from utmaudit.manifest import parse_manifest
from utmaudit.results import CheckStatus
from utmaudit.wire import HttpClient

from .oracles.pure_hash import hmac_sha256
from .oracles.token_signing import (
    KeyKind,
    KeyMaterial,
    ResignWith,
    SetAudience,
    SetExpiry,
    encode,
    forge,
    make_token,
    sign_rs256,
    verify_hs256,
    verify_rs256,
    verify_token,
)

_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"


def oracle_b64url_decode(text: str) -> bytes:
    """Base64URL decoded by table lookup and bit arithmetic only."""
    bits = "".join(format(_ALPHABET.index(ch), "06b") for ch in text)
    usable = len(bits) - (len(bits) % 8)
    return bytes(int(bits[i:i + 8], 2) for i in range(0, usable, 8))


@pytest.fixture(scope="module")
def rsa_key():
    return rsa.generate_private_key(public_exponent=65537, key_size=2048)


@pytest.fixture(scope="module")
def private_pem(rsa_key):
    return rsa_key.private_bytes(
        serialization.Encoding.PEM,
        serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption(),
    )


@pytest.fixture(scope="module")
def public_pem(rsa_key):
    return rsa_key.public_key().public_bytes(
        serialization.Encoding.PEM, serialization.PublicFormat.SubjectPublicKeyInfo
    )


@pytest.fixture(scope="module")
def rs256_token(private_pem):
    return make_token(
        {"alg": "RS256", "typ": "JWT", "kid": "k1"},
        {"iss": "auth", "sub": "client-a", "aud": "gateway",
         "scope": "utm.read", "iat": 1_700_000_000, "exp": 1_700_000_300},
        KeyMaterial(KeyKind.RSA_PRIVATE, private_pem),
    )


# ---------------------------------------------------------------------------
# Base64URL and decoding
# ---------------------------------------------------------------------------


def test_none_alg_header_part_decodes():
    part = "eyJhbGciOiJub25lIn0"
    assert json.loads(oracle_b64url_decode(part)) == {"alg": "none"}
    assert json.loads(b64url_decode(part)) == {"alg": "none"}


@given(st.binary(max_size=200))
def test_b64url_round_trip_matches_oracle(data):
    encoded = b64url_encode(data)
    assert "=" not in encoded
    assert b64url_decode(encoded) == data
    assert oracle_b64url_decode(encoded) == data


@pytest.mark.parametrize("bad", ["a.b", "a.b.c.d", "", "onlyone"])
def test_decode_wrong_part_count(bad):
    with pytest.raises(TokenError, match="3 parts"):
        decode(bad)


def test_decode_rejects_bad_parts():
    with pytest.raises(TokenError, match="Base64URL"):
        decode("$$$.e30.")
    with pytest.raises(TokenError, match="JSON"):
        decode(b64url_encode(b"not json") + ".e30.")
    # valid JSON but not a mapping
    with pytest.raises(TokenError, match="mapping"):
        decode(b64url_encode(b"[1,2]") + ".e30.")
    with pytest.raises(TokenError, match="alg"):
        decode("e30.e30.")


def test_issuer_bytes_survive_reencoding():
    # Odd spacing and key order the canonical serializer would not produce.
    header = b'{"typ": "JWT",  "alg": "HS256"}'
    claims = b'{"b": 2, "a": 1}'
    compact = (
        b64url_encode(header) + "." + b64url_encode(claims) + "." + b64url_encode(b"sig")
    )
    token = decode(compact)
    assert encode(token) == compact
    assert token.header == {"typ": "JWT", "alg": "HS256"}


@st.composite
def well_formed_tokens(draw):
    secret = draw(st.binary(min_size=8, max_size=32))
    claims = {
        "sub": draw(st.text("abcdef", min_size=1, max_size=8)),
        "iat": draw(st.integers(0, 2**31)),
        "exp": draw(st.integers(0, 2**31)),
        "scope": draw(st.sampled_from(["utm.read", "utm.read utm.write", "logs.read"])),
    }
    alg = draw(st.sampled_from(["HS256", "none"]))
    key = KeyMaterial(KeyKind.HMAC_SECRET, secret) if alg == "HS256" else None
    return make_token({"alg": alg}, claims, key)


@settings(max_examples=100, deadline=None)
@given(well_formed_tokens())
def test_decode_encode_identity(token):
    assert decode(encode(token)) == token


# ---------------------------------------------------------------------------
# Mutations
# ---------------------------------------------------------------------------


def test_set_alg_none(rs256_token):
    forged = forge(rs256_token, SetAlgNone())
    assert forged.compact().endswith(".")
    assert forged.header["alg"] == "none"
    assert forged.signature == b""
    assert forged.claims == rs256_token.claims
    assert forged.claims_b64 == rs256_token.claims_b64


def test_strip_signature_preserves_parts(rs256_token):
    forged = forge(rs256_token, StripSignature())
    assert forged.compact() == rs256_token.header_b64 + "." + rs256_token.claims_b64 + "."
    assert forged.header["alg"] == "RS256"


def test_flip_signature_bit(rs256_token):
    forged = forge(rs256_token, FlipSignatureBit(13))
    assert len(forged.signature) == len(rs256_token.signature)
    diff = bytes(a ^ b for a, b in zip(forged.signature, rs256_token.signature))
    assert sum(bin(b).count("1") for b in diff) == 1
    assert diff[13 // 8] == 1 << (13 % 8)


def test_flip_signature_bit_bounds(rs256_token):
    with pytest.raises(TokenError, match="out of range"):
        forge(rs256_token, FlipSignatureBit(len(rs256_token.signature) * 8))
    stripped = forge(rs256_token, StripSignature())
    with pytest.raises(TokenError, match="empty signature"):
        forge(stripped, FlipSignatureBit(0))


def test_claim_mutations_leave_signature_stale(rs256_token, public_pem):
    for mutation, claim, value in [
        (SetExpiry(1_700_999_999), "exp", 1_700_999_999),
        (AddScope("utm.write"), "scope", "utm.read utm.write"),
        (SetAudience("logs"), "aud", "logs"),
    ]:
        forged = forge(rs256_token, mutation)
        assert forged.claims[claim] == value
        assert forged.signature == rs256_token.signature
        assert forged.header_b64 == rs256_token.header_b64
        # the stale signature no longer covers the claims
        assert not verify_rs256(forged.signing_input(), forged.signature, public_pem)
    assert verify_rs256(
        rs256_token.signing_input(), rs256_token.signature, public_pem
    )


def test_add_scope_on_scopeless_token(private_pem):
    token = make_token(
        {"alg": "RS256"}, {"sub": "x"}, KeyMaterial(KeyKind.RSA_PRIVATE, private_pem)
    )
    assert forge(token, AddScope("admin")).claims["scope"] == "admin"


def test_alg_confusion_verifies_under_independent_hmac(rs256_token, public_pem):
    forged = forge(rs256_token, AlgConfusionHs256(public_pem))
    assert forged.header["alg"] == "HS256"
    assert forged.claims_b64 == rs256_token.claims_b64
    # Independent HMAC implementation keyed with the exact public-key bytes.
    assert forged.signature == hmac_sha256(public_pem, forged.signing_input())
    assert verify_hs256(forged.signing_input(), forged.signature, public_pem)


def test_resign_with_valid_key_verifies(rs256_token, private_pem, public_pem):
    tampered = forge(rs256_token, SetExpiry(1_700_999_999))
    resigned = forge(tampered, ResignWith(KeyMaterial(KeyKind.RSA_PRIVATE, private_pem)))
    assert verify_rs256(resigned.signing_input(), resigned.signature, public_pem)
    assert verify_token(resigned, KeyMaterial(KeyKind.RSA_PUBLIC, public_pem))


def test_resign_requires_private_material(rs256_token, public_pem):
    with pytest.raises(TokenError, match="public key"):
        forge(rs256_token, ResignWith(KeyMaterial(KeyKind.RSA_PUBLIC, public_pem)))
    with pytest.raises(TokenError, match="key material"):
        forge(rs256_token, ResignWith(None))


def test_public_key_cannot_produce_rs256(public_pem):
    with pytest.raises(Exception):
        sign_rs256(b"payload", public_pem)
    with pytest.raises(TokenError):
        make_token({"alg": "RS256"}, {}, KeyMaterial(KeyKind.RSA_PUBLIC, public_pem))


def test_verify_token_never_accepts_none(rs256_token, public_pem):
    forged = forge(rs256_token, SetAlgNone())
    assert not verify_token(forged, KeyMaterial(KeyKind.RSA_PUBLIC, public_pem))
    assert not verify_token(forged, KeyMaterial(KeyKind.HMAC_SECRET, b"s"))


# ---------------------------------------------------------------------------
# JWKS
# ---------------------------------------------------------------------------


def _jwk_entry(rsa_key):
    numbers = rsa_key.public_key().public_numbers()
    def b64int(v):
        raw = v.to_bytes((v.bit_length() + 7) // 8, "big")
        return b64url_encode(raw)
    return {"kty": "RSA", "kid": "k1", "alg": "RS256", "use": "sig",
            "n": b64int(numbers.n), "e": b64int(numbers.e)}


def test_jwk_to_public_pem_matches_direct_serialization(rsa_key, public_pem):
    assert jwk_to_public_pem(_jwk_entry(rsa_key)) == public_pem


def test_jwk_rejects_non_rsa():
    with pytest.raises(TokenError, match="kty"):
        jwk_to_public_pem({"kty": "EC"})


@pytest.mark.parametrize("jwk", [
    {"kty": "RSA"},
    {"kty": "RSA", "n": 5, "e": "AQAB"},
    {"kty": "RSA", "n": "!!", "e": "AQAB"},
    {"kty": "RSA", "n": "", "e": "AQAB"},
])
def test_jwk_without_usable_n_e_raises_token_error(jwk):
    with pytest.raises(TokenError):
        jwk_to_public_pem(jwk)


def _uint_b64url(value: int, pad: int) -> str:
    return b64url_encode(bytes(pad) + value.to_bytes((value.bit_length() + 7) // 8, "big"))


_RSA_INTS = st.one_of(st.integers(0, 2 ** 17), st.integers(0, 2 ** 4100))


@settings(max_examples=300, deadline=None)
@given(n=_RSA_INTS, e=_RSA_INTS, pad=st.integers(0, 2))
def test_jwk_to_public_pem_agrees_with_the_rsa_library(n, e, pad):
    """The scanner's own DER encoding gives the PEM that the RSA library
    gives, and refuses exactly the keys that the library refuses, so the
    same JWKs are usable and JWT-07's HMAC key is byte-identical."""
    try:
        expected = rsa.RSAPublicNumbers(e, n).public_key().public_bytes(
            serialization.Encoding.PEM,
            serialization.PublicFormat.SubjectPublicKeyInfo,
        )
    except ValueError:
        expected = None
    jwk = {"kty": "RSA", "n": _uint_b64url(n, pad), "e": _uint_b64url(e, pad)}
    if expected is None:
        with pytest.raises(TokenError):
            jwk_to_public_pem(jwk)
    else:
        assert jwk_to_public_pem(jwk) == expected


def test_jwks_private_field_detection(rsa_key):
    clean = {"keys": [_jwk_entry(rsa_key)]}
    assert jwks_private_fields(clean) == []
    leaky = {"keys": [{**_jwk_entry(rsa_key), "d": "AQAB", "p": "AQAB"}]}
    assert jwks_private_fields(leaky) == ["d", "p"]


# ---------------------------------------------------------------------------
# JWT-01 and JWT-03 on the issued token's own claims
# ---------------------------------------------------------------------------

# JWT-01 and JWT-03 read only the token that the mint issues, so they run
# against a declared but unreachable deployment.
_OFFLINE = parse_manifest(b"""\
[target]
mode = remote

[client]
client_id = auditor
client_secret = 0123456789abcdef0123456789abcdef

[component auth]
role = OAuthServer
endpoints = https://127.0.0.1:1

[component gw]
role = HttpsGateway
endpoints = https://127.0.0.1:1
audience = gw
read = GET /isa scope=utm.read
""")


def _judged_on(token, check_id):
    with contextlib.closing(HttpClient(timeout_s=1.0)) as http:
        [result] = run_jwt_battery(
            _OFFLINE, http=http, mint=lambda **_: token, wanted=[check_id]
        )
    return result


def _none_alg(claims):
    return make_token({"alg": "none"}, claims, None)


@pytest.mark.parametrize("value", ["soon", None, True, False, float("inf"), [0]])
def test_an_exp_or_iat_that_is_not_a_number_bounds_no_lifetime(value):
    bad_exp = _judged_on(_none_alg({"exp": value, "iat": 0}), "JWT-01")
    assert bad_exp.status is CheckStatus.FAIL
    assert bad_exp.evidence == [
        "issued token carries no numeric exp claim (unbounded lifetime)"
    ]
    bad_iat = _judged_on(_none_alg({"exp": 300, "iat": value}), "JWT-01")
    assert bad_iat.status is CheckStatus.FAIL
    assert bad_iat.evidence == [
        "issued token carries exp but no numeric iat; lifetime cannot be bounded at "
        "issue time"
    ]


@pytest.mark.parametrize("claims, line", [
    ({"iat": 0}, "issued token carries no exp claim (unbounded lifetime)"),
    ({"exp": 300}, "issued token carries exp but no iat; lifetime cannot be bounded "
                   "at issue time"),
], ids=["no-exp", "no-iat"])
def test_a_missing_exp_or_iat_fails_jwt01(claims, line):
    result = _judged_on(_none_alg(claims), "JWT-01")
    assert result.status is CheckStatus.FAIL
    assert result.evidence == [line]


def test_a_float_lifetime_within_threshold_passes_jwt01():
    result = _judged_on(_none_alg({"exp": 300.5, "iat": 0}), "JWT-01")
    assert result.status is CheckStatus.PASS
    assert result.evidence == ["issued token lifetime exp-iat = 300 s within threshold 900 s"]


@pytest.mark.parametrize("alg", [["RS256"], {"RS256": True}, None, 256])
def test_an_alg_that_is_not_a_string_is_outside_the_allowed_set(alg):
    result = _judged_on(_none_alg({"exp": 300, "iat": 0}).with_header(alg=alg), "JWT-03")
    allowed = ", ".join(sorted(ALLOWED_ALGS))
    assert result.status is CheckStatus.FAIL
    assert result.evidence == [
        f"issued token header alg = {alg}; outside allowed set: {allowed}"
    ]
