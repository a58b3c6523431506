"""Check registry and audit orchestration.

The registry is the contract: 27 checks across six areas, stable ids, one
entry per catalog bullet. run_audit schedules the applicable subset across
concurrent area workers, collects one CheckResult per check, derives one
Finding per failure, and renders the whole thing as JSON or text.
"""

from __future__ import annotations

import concurrent.futures
import functools
import json
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable, Iterable, Optional

from . import __version__
from . import jwtkit, logaudit, netprobe, oauthaudit, sqliprobe, tlsaudit
from .manifest import TargetManifest, manifest_digest
from .oauthaudit import make_mint
from .results import (
    AREA_ORDER, CheckResult, CheckStatus, Finding, Severity, aborted, check_sort_key,
    run_checks, uniform,
)
from .wire import HttpClient

SCHEMA_VERSION = "1.0"


class UnknownCheckError(ValueError):
    pass


class UnknownFormatError(ValueError):
    pass


@dataclass(frozen=True)
class CheckDefinition:
    check_id: str
    area: str
    title: str
    severity: Severity
    remediation: str


_C = Severity.CRITICAL
_H = Severity.HIGH
_M = Severity.MEDIUM
_L = Severity.LOW

# One entry per catalog bullet, in catalog order. Titles carry the bullet
# text so report lines map straight back to the testing guide.
REGISTRY: tuple[CheckDefinition, ...] = (
    CheckDefinition(
        "NET-01", "NET",
        "Check if restricted access services are in a private network or "
        "with access through IP Allow-list",
        _H,
        "Place restricted services on a private network segment or limit "
        "reachability to an explicit source allow-list.",
    ),
    CheckDefinition(
        "NET-02", "NET",
        "Check if public access services are in a public network",
        _M,
        "Expose public-facing services on an interface federation partners "
        "can actually reach.",
    ),
    CheckDefinition(
        "DB-01", "DB",
        "Test mTLS implementation",
        _H,
        "Require TLS 1.3 with mutual certificate authentication on every "
        "database channel.",
    ),
    CheckDefinition(
        "DB-02", "DB",
        "Test for SQL Injection on HTTPS Gateways",
        _C,
        "Build queries from parameterized statements; never concatenate "
        "request parameters into query text.",
    ),
    CheckDefinition(
        "DB-03", "DB",
        "Test for data-at-rest protection",
        _L,
        "Encrypt stored records so raw storage never contains recoverable "
        "plaintext.",
    ),
    CheckDefinition(
        "DB-04", "DB",
        "Test encryption algorithm security",
        _L,
        "Use AES-256 for data-at-rest encryption.",
    ),
    CheckDefinition(
        "OAUTH-01", "OAUTH",
        "Test mTLS implementation",
        _H,
        "Bind token issuance to the registered client certificate so issued "
        "tokens are sender-constrained.",
    ),
    CheckDefinition(
        "OAUTH-02", "OAUTH",
        "Check profiles' permission scopes according to PoLP",
        _H,
        "Grant each client profile only its entitled scopes; reject or "
        "narrow requests beyond the entitlement.",
    ),
    CheckDefinition(
        "OAUTH-03", "OAUTH",
        "If client_secret, test entropy",
        _M,
        "Generate client secrets from a cryptographically secure source "
        "with at least 256 bits of entropy.",
    ),
    CheckDefinition(
        "OAUTH-04", "OAUTH",
        "If client_secret, check storage using hash algorithm",
        _H,
        "Store client secrets only as salted, slow hashes, never in "
        "recoverable form.",
    ),
    CheckDefinition(
        "OAUTH-05", "OAUTH",
        "If other authorization flows, test for insecure ones",
        _H,
        "Disable password and implicit grants; where a user is involved use "
        "authorization code with PKCE.",
    ),
    CheckDefinition(
        "OAUTH-06", "OAUTH",
        "If web interface, test for web vulnerabilities",
        _M,
        "Require an unguessable state parameter and PKCE on the "
        "authorization endpoint and accept only HTTPS redirect URIs.",
    ),
    CheckDefinition(
        "JWT-01", "JWT",
        "Test for long expiration time token",
        _M,
        "Issue short-lived access tokens (15 minutes or less) and force "
        "re-authentication for continued access.",
    ),
    CheckDefinition(
        "JWT-02", "JWT",
        "Check if expired tokens are not being accepted",
        _H,
        "Reject tokens past their expiry, allowing at most a small "
        "clock-skew margin.",
    ),
    CheckDefinition(
        "JWT-03", "JWT",
        "Test signature algorithm",
        _H,
        "Sign tokens with a strong asymmetric algorithm such as RS256, "
        "ES256, or PS256.",
    ),
    CheckDefinition(
        "JWT-04", "JWT",
        "Search for private key exposures",
        _C,
        "Keep signing keys out of web-reachable paths and publish only the "
        "public JWKS fields.",
    ),
    CheckDefinition(
        "JWT-05", "JWT",
        "Check signature validation",
        _C,
        "Verify the signature on every request; reject tokens with missing "
        "or altered signatures.",
    ),
    CheckDefinition(
        "JWT-06", "JWT",
        "Test for 'None algorithm' attack",
        _C,
        "Reject tokens whose header declares no signature algorithm.",
    ),
    CheckDefinition(
        "JWT-07", "JWT",
        "Test for 'Algorithm Confusion'",
        _C,
        "Pin the expected signature algorithm server-side; never derive it "
        "from the token header alone.",
    ),
    CheckDefinition(
        "JWT-08", "JWT",
        "Check scope validation",
        _H,
        "Enforce the scope claim on every protected action.",
    ),
    CheckDefinition(
        "JWT-09", "JWT",
        "Check audience validation",
        _H,
        "Enforce the audience claim so tokens minted for one service are "
        "rejected everywhere else.",
    ),
    CheckDefinition(
        "JWT-10", "JWT",
        "If web interface, test for improper token storage",
        _L,
        "Keep session tokens in cookies flagged Secure, HttpOnly, and "
        "SameSite=Strict; never in browser local storage.",
    ),
    CheckDefinition(
        "WEB-01", "WEB",
        "Manually and individually test each one through a well-known "
        "methodology",
        _M,
        "Assess each web application individually with an established "
        "web-security testing methodology.",
    ),
    CheckDefinition(
        "LOG-01", "LOG",
        "Check log granularity through compliance requirements",
        _M,
        "Record every required field for each security-relevant event so "
        "actors and actions can be reconstructed.",
    ),
    CheckDefinition(
        "LOG-02", "LOG",
        "Check WORM policy",
        _H,
        "Store logs behind an append-only interface; reject overwrites and "
        "deletes.",
    ),
    CheckDefinition(
        "LOG-03", "LOG",
        "Test for malicious data corruption",
        _H,
        "Chain records with cryptographic hash links so tampering breaks "
        "verification at the altered record.",
    ),
    CheckDefinition(
        "LOG-04", "LOG",
        "Test for improper external access",
        _M,
        "Restrict log access to authenticated, allow-listed audit profiles.",
    ),
)

_BY_ID: dict[str, CheckDefinition] = {d.check_id: d for d in REGISTRY}

_AREA_IDS: dict[str, tuple[str, ...]] = {
    area: tuple(d.check_id for d in REGISTRY if d.area == area)
    for area in AREA_ORDER
}

# conditional entries and the manifest predicate that activates them
_WEB_CONDITIONAL = ("OAUTH-06", "JWT-10", "WEB-01")
_SECRET_CONDITIONAL = ("OAUTH-03", "OAUTH-04")
_CERT_CONDITIONAL = ("OAUTH-01",)
_GRANT_CONDITIONAL = ("OAUTH-05",)

_SKIP_REASONS = {
    "OAUTH-01": "no client certificate credentials declared",
    "OAUTH-03": "no client_secret credential in use",
    "OAUTH-04": "no client_secret credential in use",
    "OAUTH-05": "no grant types beyond client_credentials declared",
    "OAUTH-06": "no web interface declared",
    "JWT-10": "no web interface declared",
    "WEB-01": "no web interface declared",
}


def registry() -> tuple[CheckDefinition, ...]:
    return REGISTRY


def definition(check_id: str) -> CheckDefinition:
    try:
        return _BY_ID[check_id]
    except KeyError:
        raise UnknownCheckError(f"unknown check id: {check_id}") from None


def _extra_grants(manifest: TargetManifest) -> bool:
    declared = set(manifest.oauth_client.grant_types)
    return bool(declared - {"client_credentials"})


def applicable_checks(manifest: TargetManifest) -> list[str]:
    """Registry ids whose trigger condition holds, in catalog order.

    Unconditional checks are always applicable. The conditional entries
    follow the manifest: web-interface checks need a declared web app,
    secret checks need a client_secret, OAUTH-01 needs certificate
    credentials, OAUTH-05 needs a grant type beyond client_credentials.
    """
    inactive: set[str] = set()
    if not manifest.web_apps():
        inactive.update(_WEB_CONDITIONAL)
    if not manifest.oauth_client.client_secret:
        inactive.update(_SECRET_CONDITIONAL)
    if not manifest.oauth_client.has_certificate():
        inactive.update(_CERT_CONDITIONAL)
    if not _extra_grants(manifest):
        inactive.update(_GRANT_CONDITIONAL)
    return [d.check_id for d in REGISTRY if d.check_id not in inactive]


@dataclass
class Report:
    manifest_digest: str
    tool_version: str
    generated_at: str
    duration_ms: int
    results: list[CheckResult]
    findings: list[Finding]

    def summary(self) -> dict[str, int]:
        counts = {status: 0 for status in CheckStatus}
        for result in self.results:
            counts[result.status] += 1
        return {
            "checks": len(self.results),
            "pass": counts[CheckStatus.PASS],
            "fail": counts[CheckStatus.FAIL],
            "not_assessable": counts[CheckStatus.NOT_ASSESSABLE],
            "skipped": counts[CheckStatus.SKIPPED],
            "findings": len(self.findings),
        }


def _finding_for(result: CheckResult) -> Finding:
    d = _BY_ID[result.check_id]
    return Finding(
        check_id=result.check_id,
        severity=d.severity,
        title=d.title,
        remediation=d.remediation,
        component_id=result.component_id,
        evidence=tuple(result.evidence),
    )


def _run_web_area(manifest: TargetManifest) -> list[CheckResult]:
    names = ", ".join(c.id for c in manifest.web_apps())
    return [CheckResult(
        "WEB-01", CheckStatus.SKIPPED,
        [f"manual assessment required for: {names}"],
    )]


def _run_jwt_area(manifest, http, mint, wanted) -> list[CheckResult]:
    services = jwtkit.token_services(manifest)
    if not services:
        return uniform(wanted, CheckStatus.SKIPPED,
                       "no token-accepting services declared")
    anchor = services[0]
    live = mint(scope=anchor.read.scope, audience=anchor.audience)
    if live is None:
        return uniform(wanted, CheckStatus.NOT_ASSESSABLE,
                       "authorization server did not issue a probe token")
    return jwtkit.run_jwt_battery(manifest, live, http=http, mint=mint, wanted=wanted)


def _result_skipped(check_id: str) -> CheckResult:
    return CheckResult(
        check_id, CheckStatus.SKIPPED,
        [_SKIP_REASONS.get(check_id, "not applicable to this target")],
    )


def run_audit(
    manifest: TargetManifest,
    selection: Optional[set[str]] = None,
    *,
    probe_timeout_ms: int = netprobe.DEFAULT_TIMEOUT_MS,
) -> Report:
    """Execute the applicable registry checks and assemble a report.

    Areas fan out to worker threads; within one area checks run serially so
    evidence trails stay readable. Only this function decides applicability:
    each area runs just its selected, applicable checks, and everything else
    selected is reported Skipped. A check that raises comes back
    NotAssessable on its own; a failure in an area's shared set-up does the
    same for that area's checks. With a selection only the named checks
    appear in the report.
    """
    if selection is not None:
        unknown = set(selection) - set(_BY_ID)
        if unknown:
            raise UnknownCheckError(
                "unknown check ids: " + ", ".join(sorted(unknown))
            )

    started = time.monotonic()
    wanted = set(_BY_ID) if selection is None else set(selection)
    applicable = set(applicable_checks(manifest))
    active = {
        area: [i for i in ids if i in wanted and i in applicable]
        for area, ids in _AREA_IDS.items()
    }

    http = HttpClient(
        ca_path=manifest.ca_path,
        client_cert=manifest.oauth_client.certificate,
        client_key=manifest.oauth_client.key,
        allowlisted_source=(
            manifest.allowlist_sources[0] if manifest.allowlist_sources else None
        ),
    )
    mint = make_mint(manifest, http)

    def run_db() -> list[CheckResult]:
        # DB-03 and DB-04 judge the same stored bytes; read them once.
        at_rest = functools.cache(lambda: tlsaudit.check_data_at_rest(manifest))
        return run_checks(active["DB"], [
            ("DB-01", lambda: tlsaudit.check_db_transport(manifest)),
            ("DB-02", lambda: sqliprobe.check_sql_injection(manifest, http, mint=mint)),
            ("DB-03", lambda: at_rest()[0]),
            ("DB-04", lambda: at_rest()[1]),
        ])

    workers: dict[str, Callable[[], list[CheckResult]]] = {
        "NET": lambda: netprobe.check_zones(manifest, timeout_ms=probe_timeout_ms),
        "DB": run_db,
        "OAUTH": lambda: oauthaudit.check_oauth(manifest, http, active["OAUTH"]),
        "JWT": lambda: _run_jwt_area(manifest, http, mint, active["JWT"]),
        "WEB": lambda: _run_web_area(manifest),
        "LOG": lambda: logaudit.check_logs(manifest, mint, http, active["LOG"]),
    }

    areas = [a for a in AREA_ORDER if active[a]]
    collected: dict[str, CheckResult] = {}
    with concurrent.futures.ThreadPoolExecutor(max_workers=len(areas) or 1) as pool:
        futures = {pool.submit(workers[a]): a for a in areas}
        for future in concurrent.futures.as_completed(futures):
            area = futures[future]
            try:
                area_results = future.result()
            except Exception as exc:  # area set-up failed; never abort the audit
                area_results = uniform(
                    active[area], CheckStatus.NOT_ASSESSABLE, aborted(exc)
                )
            for result in area_results:
                collected[result.check_id] = result

    results: list[CheckResult] = []
    for d in REGISTRY:
        if d.check_id not in wanted:
            continue
        if d.check_id not in applicable:
            results.append(_result_skipped(d.check_id))
            continue
        result = collected.get(d.check_id)
        if result is None:
            result = CheckResult(
                d.check_id, CheckStatus.NOT_ASSESSABLE,
                ["check produced no result"],
            )
        results.append(result)
    results.sort(key=lambda r: check_sort_key(r.check_id))

    findings = [
        _finding_for(r) for r in results if r.status is CheckStatus.FAIL
    ]
    return Report(
        manifest_digest=manifest_digest(manifest),
        tool_version=__version__,
        generated_at=datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        duration_ms=int((time.monotonic() - started) * 1000),
        results=results,
        findings=findings,
    )


def report_to_dict(report: Report) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "utmaudit", "version": report.tool_version},
        "manifest_digest": report.manifest_digest,
        "generated_at": report.generated_at,
        "duration_ms": report.duration_ms,
        "summary": report.summary(),
        "results": [
            {
                "check_id": r.check_id,
                "area": _BY_ID[r.check_id].area,
                "title": _BY_ID[r.check_id].title,
                "status": r.status.value,
                "component_id": r.component_id,
                "evidence": list(r.evidence),
                "duration_ms": r.duration_ms,
            }
            for r in report.results
        ],
        "findings": [
            {
                "check_id": f.check_id,
                "severity": f.severity.value,
                "title": f.title,
                "component_id": f.component_id,
                "remediation": f.remediation,
                "evidence": list(f.evidence),
            }
            for f in report.findings
        ],
    }


def report_from_dict(doc: dict) -> Report:
    results = [
        CheckResult(
            check_id=r["check_id"],
            status=CheckStatus(r["status"]),
            evidence=list(r["evidence"]),
            component_id=r["component_id"],
            duration_ms=r["duration_ms"],
        )
        for r in doc["results"]
    ]
    findings = [
        Finding(
            check_id=f["check_id"],
            severity=Severity(f["severity"]),
            title=f["title"],
            remediation=f["remediation"],
            component_id=f["component_id"],
            evidence=tuple(f["evidence"]),
        )
        for f in doc["findings"]
    ]
    return Report(
        manifest_digest=doc["manifest_digest"],
        tool_version=doc["tool"]["version"],
        generated_at=doc["generated_at"],
        duration_ms=doc["duration_ms"],
        results=results,
        findings=findings,
    )


def strip_volatile(doc: dict) -> dict:
    """Report dict minus wall-clock fields, for state comparisons."""
    out = json.loads(json.dumps(doc))
    out.pop("generated_at", None)
    out.pop("duration_ms", None)
    for r in out.get("results", []):
        r.pop("duration_ms", None)
    return out


def _render_json(report: Report) -> bytes:
    text = json.dumps(report_to_dict(report), indent=2, sort_keys=True)
    return (text + "\n").encode("utf-8")


def _group_findings(findings: Iterable[Finding]) -> list[tuple[str, list[Finding]]]:
    groups: dict[str, list[Finding]] = {}
    for f in findings:
        groups.setdefault(f.component_id or "(deployment)", []).append(f)
    ordered = []
    for component in sorted(groups):
        members = sorted(groups[component], key=lambda f: check_sort_key(f.check_id))
        ordered.append((component, members))
    return ordered


def _render_text(report: Report) -> bytes:
    s = report.summary()
    lines = [
        f"utmaudit {report.tool_version}",
        f"target {report.manifest_digest[:16]}",
        (
            f"checks {s['checks']}: {s['pass']} pass, {s['fail']} fail, "
            f"{s['skipped']} skipped, {s['not_assessable']} not assessable"
        ),
        "",
    ]
    for r in report.results:
        lines.append(f"  {r.check_id:<9} {r.status.value:<14} {_BY_ID[r.check_id].title}")
    lines.append("")
    if not report.findings:
        lines.append("no findings")
    else:
        lines.append(f"findings ({len(report.findings)}):")
        for component, members in _group_findings(report.findings):
            lines.append("")
            lines.append(f"component {component}:")
            for f in members:
                lines.append(f"  {f.check_id} [{f.severity.value}] {f.title}")
                for entry in f.evidence:
                    lines.append(f"      {entry}")
                lines.append(f"      remediation: {f.remediation}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def render_report(report: Report, format: str = "json") -> bytes:
    if format == "json":
        return _render_json(report)
    if format == "text":
        return _render_text(report)
    raise UnknownFormatError(f"unknown report format: {format}")
