"""Log-policy checks: granularity, WORM enforcement, chain integrity, access.

The chain model is append-only records where each link is
SHA-256(previous_link || canonical_serialization(fields)) anchored at a
32-zero-byte genesis. Canonical serialization sorts fields by name and joins
"name=value" lines with single newlines, UTF-8 encoded. Any single mutated
record therefore breaks exactly at its own position.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Collection, Optional

from .manifest import ComponentRole, TargetManifest, Zone, expected_zone
from .results import (
    CheckResult, CheckStatus, fold, judged, note, run_checks, unassessable, uniform,
)
from .wire import HttpClient, SourceUnavailable, WireError

GENESIS = b"\x00" * 32


@dataclass(frozen=True)
class LogRecord:
    seq: int
    fields: dict
    link: bytes


@dataclass(frozen=True)
class LogChain:
    records: tuple

    @property
    def head(self) -> bytes:
        return self.records[-1].link if self.records else GENESIS


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    first_broken_seq: Optional[int] = None


def canonical_serialization(fields: dict) -> bytes:
    lines = [f"{name}={fields[name]}" for name in sorted(fields)]
    return "\n".join(lines).encode("utf-8")


def compute_link(previous_link: bytes, fields: dict) -> bytes:
    return hashlib.sha256(previous_link + canonical_serialization(fields)).digest()


def build_chain(field_dicts: list, start_seq: int = 1) -> LogChain:
    """Construct a well-linked chain (test scaffolding, not a verifier)."""
    records = []
    link = GENESIS
    for offset, fields in enumerate(field_dicts):
        link = compute_link(link, fields)
        records.append(LogRecord(seq=start_seq + offset, fields=fields, link=link))
    return LogChain(tuple(records))


def verify_chain(chain: LogChain) -> VerificationReport:
    """Recompute every link from genesis; report the smallest broken seq."""
    previous = GENESIS
    expected_seq = chain.records[0].seq if chain.records else 1
    for record in chain.records:
        if record.seq != expected_seq:
            return VerificationReport(ok=False, first_broken_seq=record.seq)
        try:
            expected_link = compute_link(previous, record.fields)
        except (TypeError, AttributeError):
            return VerificationReport(ok=False, first_broken_seq=record.seq)
        if record.link != expected_link:
            return VerificationReport(ok=False, first_broken_seq=record.seq)
        previous = record.link
        expected_seq += 1
    return VerificationReport(ok=True)


def chain_from_wire(entries: list) -> LogChain:
    """Parse the repository's record list; malformed entries get a link that
    can never verify so the break lands at their seq (0 when the seq itself
    is not an integer)."""
    records = []
    for entry in entries:
        try:
            seq = int(entry["seq"])
            fields = dict(entry["fields"])
            link = bytes.fromhex(entry["link"])
        except (KeyError, TypeError, ValueError, OverflowError):
            seq = _wire_seq(entry)
            fields, link = {}, b"\xff" * 32
        records.append(LogRecord(seq=seq, fields=fields, link=link))
    return LogChain(tuple(records))


def _wire_seq(entry) -> int:
    try:
        return int(entry["seq"])
    except (KeyError, TypeError, ValueError, OverflowError):
        return 0


# ---------------------------------------------------------------------------
# Live checks
# ---------------------------------------------------------------------------


SAMPLE_SIZE = 50


def check_logs(
    manifest: TargetManifest,
    mint,
    http: HttpClient,
    wanted: Collection[str],
) -> list[CheckResult]:
    """The wanted checks of LOG-01..LOG-04 against the declared log
    repository."""
    repos = manifest.by_role(ComponentRole.LOG_REPOSITORY)
    if not repos:
        return uniform(wanted, CheckStatus.SKIPPED, "no log repository declared")
    repo = repos[0]
    if not repo.read:
        return uniform(wanted, CheckStatus.NOT_ASSESSABLE,
                       f"{repo.id}: no read action declared")

    source = (
        "allowlisted"
        if expected_zone(repo.role) is Zone.RESTRICTED and http.allowlisted_source
        else "external"
    )
    endpoint = repo.primary_endpoint()
    base_url = f"{endpoint.scheme}://{endpoint.host}:{endpoint.port}"
    read_url = base_url + repo.read.path

    read_token = mint(scope=repo.read.scope, audience=repo.audience)
    if read_token is None:
        return uniform(wanted, CheckStatus.NOT_ASSESSABLE,
                       "could not obtain a log-read token")
    auth = {"Authorization": f"Bearer {read_token.compact()}"}

    try:
        resp = http.request("GET", read_url, headers=auth, source=source)
    except WireError as exc:
        return uniform(wanted, CheckStatus.NOT_ASSESSABLE, f"{repo.id}: {exc}")
    if resp.status != 200:
        return uniform(wanted, CheckStatus.NOT_ASSESSABLE,
                       f"{repo.id}: record listing returned HTTP {resp.status}")
    listing = _json_object(resp)
    records = listing.get("records", []) if listing is not None else None
    chain = chain_from_wire(records) if isinstance(records, list) else None

    # Read-only verdicts come from the fetched snapshot before any
    # write-probing can disturb repository state.
    return run_checks(wanted, [
        ("LOG-01", lambda: _check_granularity(manifest, repo, chain)),
        ("LOG-03", lambda: _check_chain(repo, chain, mint, http, base_url, source)),
        ("LOG-02", lambda: _check_worm(repo, mint, http, base_url, source)),
        ("LOG-04", lambda: _check_access(repo, read_url, auth, http)),
    ])


def _json_object(resp) -> Optional[dict]:
    """The response body as a JSON object; None for anything else."""
    try:
        doc = resp.json()
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def _unreadable_listing(check_id: str, repo) -> CheckResult:
    return CheckResult(
        check_id, CheckStatus.NOT_ASSESSABLE,
        [f"{repo.id}: record listing is not a JSON object with a records list"],
    )


def _check_granularity(
    manifest: TargetManifest, repo, chain: Optional[LogChain]
) -> CheckResult:
    if chain is None:
        return _unreadable_listing("LOG-01", repo)
    records = chain.records[-SAMPLE_SIZE:]
    if not records:
        return CheckResult("LOG-01", CheckStatus.NOT_ASSESSABLE,
                           [f"{repo.id}: repository holds no records to sample"])
    required = set(manifest.required_log_fields)
    missing: set = set()
    for record in records:
        missing |= required - set(record.fields)
    policy = f"sampling policy: most recent {SAMPLE_SIZE} records"
    if missing:
        return CheckResult(
            "LOG-01", CheckStatus.FAIL,
            [policy,
             "sampled records missing required fields: " + ", ".join(sorted(missing))],
            component_id=repo.id,
        )
    return CheckResult(
        "LOG-01", CheckStatus.PASS,
        [policy,
         "every sampled record carries required fields: "
         + ", ".join(sorted(required))],
    )


def _check_chain(
    repo, chain: Optional[LogChain], mint, http: HttpClient, base_url: str, source: str
) -> CheckResult:
    if chain is None:
        return _unreadable_listing("LOG-03", repo)
    report = verify_chain(chain)
    if not report.ok:
        return CheckResult(
            "LOG-03", CheckStatus.FAIL,
            [f"hash chain break: stored link at seq {report.first_broken_seq} "
             "does not recompute from its predecessor"],
            component_id=repo.id,
        )
    outcomes = [judged(False, "hash chain verifies from genesis to head: all links valid")]

    # A repository that lets writers dictate links invites silent rewrites.
    if repo.write:
        write_token = mint(scope=repo.write.scope, audience=repo.audience)
        if write_token is None:
            outcomes.append(unassessable("forged-link append not probed: no write token"))
            return fold("LOG-03", outcomes)
        body = json.dumps(
            {"fields": {"action": "audit-chain-probe", "actor_id": "auditor",
                        "token_subject": "auditor", "resource": "audit",
                        "outcome": "probe", "timestamp": "probe"},
             "link": "00" * 32}
        ).encode("utf-8")
        try:
            resp = http.request(
                "POST", base_url + repo.write.path, body=body,
                headers={"Authorization": f"Bearer {write_token.compact()}"},
                source=source,
            )
        except WireError as exc:
            outcomes.append(unassessable(f"forged-link append not probed: {exc}"))
            return fold("LOG-03", outcomes)
        accepted = 200 <= resp.status < 300
        word = "accepted" if accepted else "rejected"
        outcomes.append(judged(
            accepted, f"append with forged chain link {word}: HTTP {resp.status}",
            repo.id))
    return fold("LOG-03", outcomes)


def _check_worm(repo, mint, http: HttpClient, base_url: str, source: str) -> CheckResult:
    if not repo.write:
        return CheckResult("LOG-02", CheckStatus.NOT_ASSESSABLE,
                           [f"{repo.id}: no write action declared for probing"])
    write_token = mint(scope=repo.write.scope, audience=repo.audience)
    if write_token is None:
        return CheckResult("LOG-02", CheckStatus.NOT_ASSESSABLE,
                           ["could not obtain a log-write token"])
    auth = {"Authorization": f"Bearer {write_token.compact()}"}
    body = json.dumps(
        {"fields": {"action": "audit-worm-probe", "actor_id": "auditor",
                    "token_subject": "auditor", "resource": "audit",
                    "outcome": "probe", "timestamp": "probe"}}
    ).encode("utf-8")
    try:
        resp = http.request("POST", base_url + repo.write.path, body=body,
                            headers=auth, source=source)
    except WireError as exc:
        return CheckResult("LOG-02", CheckStatus.NOT_ASSESSABLE, [f"{repo.id}: {exc}"])
    if resp.status not in (200, 201):
        return CheckResult(
            "LOG-02", CheckStatus.NOT_ASSESSABLE,
            [f"sacrificial append rejected (HTTP {resp.status}); "
             "mutation probing has no safe target"],
        )
    appended = _json_object(resp)
    if appended is None:
        return CheckResult(
            "LOG-02", CheckStatus.NOT_ASSESSABLE,
            ["sacrificial append answered with a body that is not a JSON object; "
             "the record to mutate is unknown"],
        )
    outcomes = [note("sacrificial record appended for mutation probing")]
    record_url = f"{base_url}{repo.write.path}/{appended.get('seq')}"
    for method, label in (("PUT", "overwrite"), ("DELETE", "delete")):
        try:
            attempt = http.request(method, record_url, body=body if method == "PUT" else None,
                                   headers=auth, source=source)
        except WireError as exc:
            outcomes.append(unassessable(f"{label} attempt failed at transport level: {exc}"))
            continue
        if 200 <= attempt.status < 300:
            outcomes.append(judged(
                True, f"{label} of the sacrificial record accepted: HTTP {attempt.status}",
                repo.id))
        else:
            outcomes.append(judged(False, f"{label} attempt rejected: HTTP {attempt.status}"))
    return fold("LOG-02", outcomes)


def _check_access(repo, read_url: str, auth: dict, http: HttpClient) -> CheckResult:
    # A read refused at transport level is refused access, so it passes.
    outcomes = []
    try:
        resp = http.request(
            "GET", read_url,
            source="allowlisted" if http.allowlisted_source else "external",
        )
        if resp.status == 200:
            outcomes.append(judged(
                True, "records readable without authorization: HTTP 200", repo.id))
        else:
            outcomes.append(judged(
                False, f"unauthenticated read rejected: HTTP {resp.status}"))
    except WireError as exc:
        outcomes.append(judged(
            False, f"unauthenticated read refused at transport level: {exc}"))

    unassessed = note("external-vantage separation not assessable from this host")
    if http.allowlisted_source:
        try:
            resp = http.request("GET", read_url, headers=auth, source="external")
            if resp.status == 200:
                outcomes.append(judged(
                    True, "records readable from the external network vantage: HTTP 200",
                    repo.id))
            else:
                outcomes.append(judged(
                    False, f"external-vantage read rejected: HTTP {resp.status}"))
        except SourceUnavailable:
            outcomes.append(unassessed)
        except WireError:
            outcomes.append(judged(False, "external-vantage read refused at transport level"))
    else:
        outcomes.append(unassessed)
    return fold("LOG-04", outcomes)
