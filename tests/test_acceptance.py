"""End-to-end acceptance gate.

Each test exercises one shipped guarantee against the live testbed or the
pure primitives, so `pytest -v` prints a one-line verdict per criterion:

  AC-1  secure deployment audits clean, quickly
  AC-2  seeded proof-of-concept profile yields exactly its three findings
  AC-3  every single toggle flips exactly its own checks
  AC-4  the registry is the full 27-check catalog
  AC-5  hash primitives match published vectors; confusion forgeries are
        plain HMAC over the public key bytes
  AC-6  a mutated log record is located exactly, over randomized chains
  AC-7  the secure deployment rejects every token forgery
  AC-8  scan output is deterministic modulo timing fields
  AC-9  secret strength is length times log2(charset)
"""

import json
import math
import random
import time

import pytest

from utmaudit import jwtkit, oauthaudit
from utmaudit.cli import main as cli_main
from utmaudit.engine import REGISTRY, run_audit, strip_volatile
from utmaudit.logaudit import LogChain, LogRecord, build_chain, verify_chain
from utmaudit.manifest import Zone, expected_zone
from utmaudit.results import CheckStatus
from utmaudit.testbed.toggles import TOGGLES, load_matrix
from utmaudit.wire import HttpClient

from .oracles import token_signing
from .oracles.pure_hash import hmac_sha256, sha256_hex

POC_FINDINGS = ("DB-01", "OAUTH-05", "JWT-04")


def _client_for(manifest) -> HttpClient:
    return HttpClient(
        ca_path=manifest.ca_path,
        client_cert=manifest.oauth_client.certificate,
        client_key=manifest.oauth_client.key,
        allowlisted_source=manifest.allowlisted_source,
    )


def test_ac1_secure_deployment_audits_clean_within_budget(secure_audit):
    report, wall_seconds = secure_audit
    assert wall_seconds < 60
    assert len(report.results) == 27
    assert [r.check_id for r in report.results] == [d.check_id for d in REGISTRY]
    for result in report.results:
        assert result.status in (CheckStatus.PASS, CheckStatus.SKIPPED), (
            result.check_id,
            result.status,
            result.evidence,
        )
    assert report.findings == []


def test_ac2_poc_profile_yields_exactly_the_three_findings(paper_poc_testbed):
    report = run_audit(paper_poc_testbed.manifest)
    assert tuple(f.check_id for f in report.findings) == POC_FINDINGS
    for result in report.results:
        if result.check_id in POC_FINDINGS:
            assert result.status is CheckStatus.FAIL, result.check_id
        else:
            assert result.status in (CheckStatus.PASS, CheckStatus.SKIPPED), (
                result.check_id,
                result.status,
                result.evidence,
            )


def test_ac3_each_toggle_flips_exactly_its_own_checks(secure_audit, first_scans):
    baseline_report, _ = secure_audit
    baseline = {r.check_id: r.status for r in baseline_report.results}
    matrix = load_matrix()
    deadline = time.monotonic() + 900

    deviations = []
    for toggle in TOGGLES:
        report = first_scans(toggle).report
        statuses = {r.check_id: r.status for r in report.results}
        flipped = {c for c in baseline if statuses[c] != baseline[c]}
        expected = set(matrix[toggle])
        if flipped != expected:
            deviations.append((toggle, sorted(flipped), sorted(expected)))
            continue
        for check_id in flipped:
            if statuses[check_id] is not CheckStatus.FAIL:
                deviations.append((toggle, check_id, statuses[check_id]))
    assert not deviations, deviations
    assert time.monotonic() < deadline


def test_ac4_registry_is_the_full_27_check_catalog():
    assert len(REGISTRY) == 27
    sizes = {"NET": 2, "DB": 4, "OAUTH": 6, "JWT": 10, "WEB": 1, "LOG": 4}
    for area, size in sizes.items():
        ids = [d.check_id for d in REGISTRY if d.area == area]
        assert ids == [f"{area}-{n:02d}" for n in range(1, size + 1)]
    for d in REGISTRY:
        assert d.title.strip(), d.check_id
        assert d.remediation.strip(), d.check_id
        assert d.severity is not None, d.check_id


def test_ac5_hash_vectors_and_confusion_forgery(secure_testbed, close_after):
    # published single- and two-block SHA-256 vectors, plus HMAC vectors
    assert (
        sha256_hex(b"abc")
        == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )
    assert (
        sha256_hex(b"")
        == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )
    assert (
        sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
        == "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    )
    assert (
        hmac_sha256(b"\x0b" * 20, b"Hi There").hex()
        == "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    )
    assert (
        hmac_sha256(b"Jefe", b"what do ya want for nothing?").hex()
        == "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    )

    # a confusion forgery over a live token must be exactly HMAC-SHA256
    # keyed with the verifier's public key bytes
    manifest = secure_testbed.manifest
    http = close_after(_client_for(manifest))
    mint = oauthaudit.make_mint(manifest, http)
    base = mint()
    assert base is not None
    public_pem = secure_testbed.signing_keys.public_pem
    forged = jwtkit.forge(base, jwtkit.AlgConfusionHs256(public_pem))
    assert forged.header["alg"] == "HS256"
    assert forged.signature == hmac_sha256(public_pem, forged.signing_input())


def test_ac6_single_record_mutations_are_located_exactly():
    rng = random.Random(0x26082026)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

    def word():
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))

    hits = 0
    trials = 1000
    for _ in range(trials):
        length = rng.randint(1, 40)
        fields = [
            {word(): word() for _ in range(rng.randint(1, 6))} for _ in range(length)
        ]
        chain = build_chain(fields)
        position = rng.randrange(length)
        victim = chain.records[position]

        kind = rng.randrange(4)
        if kind == 0 and victim.fields:  # rewrite one field value
            name = rng.choice(sorted(victim.fields))
            mutated_fields = dict(victim.fields)
            mutated_fields[name] = mutated_fields[name] + "x"
            mutated = LogRecord(victim.seq, mutated_fields, victim.link)
        elif kind == 1:  # inject a field
            mutated_fields = dict(victim.fields)
            mutated_fields["zz_" + word()] = word()
            mutated = LogRecord(victim.seq, mutated_fields, victim.link)
        elif kind == 2 and len(victim.fields) > 1:  # drop a field
            mutated_fields = dict(victim.fields)
            del mutated_fields[rng.choice(sorted(mutated_fields))]
            mutated = LogRecord(victim.seq, mutated_fields, victim.link)
        else:  # corrupt the link itself
            raw = bytearray(victim.link)
            raw[rng.randrange(32)] ^= 1 << rng.randrange(8)
            mutated = LogRecord(victim.seq, victim.fields, bytes(raw))

        records = list(chain.records)
        records[position] = mutated
        verdict = verify_chain(LogChain(tuple(records)))
        if not verdict.ok and verdict.first_broken_seq == victim.seq:
            hits += 1
    assert hits == trials


def test_ac7_secure_deployment_rejects_every_forgery(secure_testbed, close_after):
    manifest = secure_testbed.manifest
    http = close_after(_client_for(manifest))
    mint = oauthaudit.make_mint(manifest, http)
    services = jwtkit.token_services(manifest)
    assert len(services) >= 2

    keys = secure_testbed.signing_keys
    valid_key = token_signing.KeyMaterial(
        token_signing.KeyKind.RSA_PRIVATE, keys.private_pem
    )
    mutations = [
        jwtkit.SetAlgNone(),
        jwtkit.StripSignature(),
        jwtkit.FlipSignatureBit(0),
        jwtkit.FlipSignatureBit(777),
        jwtkit.AlgConfusionHs256(keys.public_pem),
        token_signing.SetExpiry(1_000_000),
        jwtkit.AddScope("admin:write"),
        token_signing.SetAudience("some-other-service"),
        token_signing.ResignWith(valid_key),
    ]

    for comp in services:
        restricted = expected_zone(comp.role) is Zone.RESTRICTED
        source = manifest.allowlisted_source if restricted else None
        url = comp.primary_endpoint().url(comp.read.path)
        unauthenticated = http.request(comp.read.method, url, source=source)
        assert unauthenticated.status in (401, 403), comp.id

        base = mint(scope=comp.read.scope, audience=comp.audience)
        assert base is not None, comp.id
        for mutation in mutations:
            forged = token_signing.forge(base, mutation)
            resp = http.request(
                comp.read.method,
                url,
                headers={"Authorization": f"Bearer {forged.compact()}"},
                source=source,
            )
            accepted = 200 <= resp.status < 300
            if isinstance(mutation, token_signing.ResignWith):
                assert accepted, (comp.id, mutation.name, resp.status)
            else:
                assert not accepted, (comp.id, mutation.name, resp.status)


def test_ac8_scan_output_is_deterministic(secure_testbed, tmp_path):
    outputs = []
    for name in ("one.json", "two.json"):
        target = tmp_path / name
        rc = cli_main(
            [
                "scan",
                "--manifest",
                str(secure_testbed.manifest_path),
                "--format",
                "json",
                "--out",
                str(target),
            ]
        )
        assert rc == 0
        doc = strip_volatile(json.loads(target.read_bytes()))
        outputs.append(json.dumps(doc, indent=2, sort_keys=True).encode())
    assert outputs[0] == outputs[1]


def test_ac9_secret_strength_is_length_times_log2_charset():
    base64url = "aB3-_Zx9Kf0qR7mW2pL8sT4vY6uC1dE5gH_jN-kQoI9"
    assert len(base64url) == 43
    estimate = oauthaudit.estimate_secret_strength(base64url)
    assert estimate.charset_size == 64
    assert estimate.estimated_bits == 258.0

    hex_secret = "9f86d081884c7d659a2feaa0c55ad015"
    assert len(hex_secret) == 32
    estimate = oauthaudit.estimate_secret_strength(hex_secret)
    assert estimate.charset_size == 16
    assert estimate.estimated_bits == 128.0

    digits = "31415926535897932384"
    estimate = oauthaudit.estimate_secret_strength(digits)
    assert estimate.charset_size == 10
    assert estimate.estimated_bits == 20 * math.log2(10)

    upper_hex = "0123456789ABCDEF"
    estimate = oauthaudit.estimate_secret_strength(upper_hex)
    assert estimate.charset_size == 16
    assert estimate.estimated_bits == 64.0

    with_punctuation = "abc def!"
    estimate = oauthaudit.estimate_secret_strength(with_punctuation)
    assert estimate.charset_size == 26 + 30
    assert estimate.estimated_bits == 8 * math.log2(56)
