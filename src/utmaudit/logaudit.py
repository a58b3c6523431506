"""Log-policy checks: granularity, WORM enforcement, chain integrity, access.

The chain model is append-only records where each link is
SHA-256(previous_link || canonical_serialization(fields)) anchored at a
32-zero-byte genesis. Canonical serialization sorts fields by name and joins
"name=value" lines with single newlines, UTF-8 encoded. Any single mutated
record therefore breaks exactly at its own position.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Collection, Optional

from .manifest import ComponentRole, TargetManifest, vantage
from .results import (
    CheckResult, Outcome, attempt, fold, judged, note, run_checks, unassessable,
)
from .wire import HttpClient, WireError

GENESIS = b"\x00" * 32


@dataclass(frozen=True)
class LogRecord:
    seq: int
    fields: dict
    link: bytes


@dataclass(frozen=True)
class LogChain:
    records: tuple


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
    repository. The record listing is fetched once, by the first check that
    reads it: LOG-01 and LOG-03 judge it, and LOG-04 needs its read answered."""
    repo = manifest.by_role(ComponentRole.LOG_REPOSITORY)[0]
    source = vantage(repo, http.allowlisted_source)
    listing = functools.cache(lambda: _fetch_listing(repo, mint, http, source))

    def snapshot(check_id: str, judge: Callable[[LogChain], CheckResult]) -> CheckResult:
        chain, unfetched = listing()
        if chain is not None:
            return judge(chain)
        return fold(check_id, unfetched or [unassessable(
            f"{repo.id}: record listing is not a JSON object with a records list")])

    # Read-only verdicts come from the fetched snapshot before any
    # write-probing can disturb repository state.
    return run_checks(wanted, [
        ("LOG-01", lambda: snapshot(
            "LOG-01", lambda chain: _check_granularity(manifest, repo, chain))),
        ("LOG-03", lambda: snapshot(
            "LOG-03", lambda chain: _check_chain(repo, chain, mint, http, source))),
        ("LOG-02", lambda: _check_worm(repo, mint, http, source)),
        ("LOG-04", lambda: _check_access(repo, listing()[1], mint, http, source)),
    ])


def _fetch_listing(
    repo, mint, http: HttpClient, source: Optional[str]
) -> tuple[Optional[LogChain], list[Outcome]]:
    """The repository's records as a chain (None when the listing is not a
    JSON object with a records list), and the NotAssessable line of an
    authorized read that did not answer 200."""
    if not repo.read:
        return None, [unassessable(f"{repo.id}: no read action declared")]
    chain: Optional[LogChain] = None

    def fetch() -> list[Outcome]:
        nonlocal chain
        read_token = mint(scope=repo.read.scope, audience=repo.audience)
        auth = {"Authorization": f"Bearer {read_token.compact()}"}
        resp = http.request("GET", repo.primary_endpoint().url(repo.read.path),
                            headers=auth, source=source)
        if resp.status != 200:
            return [unassessable(f"{repo.id}: record listing returned HTTP {resp.status}")]
        listing = resp.json_object()
        records = listing.get("records") if listing is not None else None
        chain = chain_from_wire(records) if isinstance(records, list) else None
        return []

    unfetched = attempt(repo.id, fetch)
    return chain, unfetched


def _check_granularity(
    manifest: TargetManifest, repo, chain: LogChain
) -> CheckResult:
    records = chain.records[-SAMPLE_SIZE:]
    if not records:
        return fold("LOG-01", [unassessable(
            f"{repo.id}: repository holds no records to sample")])
    required = set(manifest.required_log_fields)
    missing: set = set()
    for record in records:
        missing |= required - set(record.fields)
    if missing:
        line = "sampled records missing required fields: " + ", ".join(sorted(missing))
    else:
        line = "every sampled record carries required fields: " + ", ".join(sorted(required))
    return fold("LOG-01", [
        note(f"sampling policy: most recent {SAMPLE_SIZE} records"),
        judged(bool(missing), line, repo.id),
    ])


def _check_chain(
    repo, chain: LogChain, mint, http: HttpClient, source: Optional[str]
) -> CheckResult:
    report = verify_chain(chain)
    if not report.ok:
        return fold("LOG-03", [judged(
            True, f"hash chain break: stored link at seq {report.first_broken_seq} "
            "does not recompute from its predecessor", repo.id)])
    if chain.records:
        outcomes = [judged(False, "hash chain verifies from genesis to head: all links valid")]
    else:
        outcomes = [unassessable(
            f"{repo.id}: repository holds no records; no hash link to verify")]

    # A repository that lets writers dictate links invites silent rewrites.
    def forged_append() -> list[Outcome]:
        write_token = mint(scope=repo.write.scope, audience=repo.audience)
        body = json.dumps(
            {"fields": {"action": "audit-chain-probe", "actor_id": "auditor",
                        "token_subject": "auditor", "resource": "audit",
                        "outcome": "probe", "timestamp": "probe"},
             "link": "00" * 32}
        ).encode("utf-8")
        resp = http.request(
            "POST", repo.primary_endpoint().url(repo.write.path), body=body,
            headers={"Authorization": f"Bearer {write_token.compact()}"},
            source=source,
        )
        accepted = 200 <= resp.status < 300
        word = "accepted" if accepted else "rejected"
        return [judged(
            accepted, f"append with forged chain link {word}: HTTP {resp.status}", repo.id)]

    if repo.write:
        outcomes += attempt("forged-link append not probed", forged_append)
    return fold("LOG-03", outcomes)


def _check_worm(repo, mint, http: HttpClient, source: Optional[str]) -> CheckResult:
    if not repo.write:
        return fold("LOG-02", [unassessable(
            f"{repo.id}: no write action declared for probing")])
    body = json.dumps(
        {"fields": {"action": "audit-worm-probe", "actor_id": "auditor",
                    "token_subject": "auditor", "resource": "audit",
                    "outcome": "probe", "timestamp": "probe"}}
    ).encode("utf-8")

    def mutate(record_url: str, method: str, label: str, auth: dict) -> list[Outcome]:
        resp = http.request(method, record_url, body=body if method == "PUT" else None,
                            headers=auth, source=source)
        if 200 <= resp.status < 300:
            return [judged(
                True, f"{label} of the sacrificial record accepted: HTTP {resp.status}",
                repo.id)]
        return [judged(False, f"{label} attempt rejected: HTTP {resp.status}")]

    def append_then_mutate() -> list[Outcome]:
        write_token = mint(scope=repo.write.scope, audience=repo.audience)
        auth = {"Authorization": f"Bearer {write_token.compact()}"}
        resp = http.request("POST", repo.primary_endpoint().url(repo.write.path),
                            body=body, headers=auth, source=source)
        if resp.status not in (200, 201):
            return [unassessable(f"sacrificial append rejected (HTTP {resp.status}); "
                                 "mutation probing has no safe target")]
        appended = resp.json_object()
        seq = appended.get("seq") if appended is not None else None
        if not isinstance(seq, int) or isinstance(seq, bool):
            return [unassessable("sacrificial append answered without an integer seq; "
                                 "the record to mutate is unknown")]
        outcomes = [note("sacrificial record appended for mutation probing")]
        record_url = repo.primary_endpoint().url(f"{repo.write.path}/{seq}")
        for method, label in (("PUT", "overwrite"), ("DELETE", "delete")):
            outcomes += attempt(f"{label} attempt failed at transport level",
                                lambda: mutate(record_url, method, label, auth))
        return outcomes

    return fold("LOG-02", attempt(repo.id, append_then_mutate))


def _check_access(repo, unfetched: list[Outcome], mint, http: HttpClient,
                  source: Optional[str]) -> CheckResult:
    # The authorized listing read from the same vantage is the control: a
    # repository that did not answer it cannot be said to refuse the reads
    # below. Past it, a read refused at transport level is refused access.
    if unfetched:
        return fold("LOG-04", unfetched)
    read_url = repo.primary_endpoint().url(repo.read.path)
    outcomes = []
    try:
        resp = http.request("GET", read_url, source=source)
        if resp.status == 200:
            outcomes.append(judged(
                True, "records readable without authorization: HTTP 200", repo.id))
        else:
            outcomes.append(judged(
                False, f"unauthenticated read rejected: HTTP {resp.status}"))
    except WireError as exc:
        outcomes.append(judged(
            False, f"unauthenticated read refused at transport level: {exc}"))

    if source is None:
        outcomes.append(note("external-vantage separation not assessable from this host"))
    else:
        # the listing's token: the mint issues it once
        read_token = mint(scope=repo.read.scope, audience=repo.audience)
        auth = {"Authorization": f"Bearer {read_token.compact()}"}
        try:
            resp = http.request("GET", read_url, headers=auth)
            if resp.status == 200:
                outcomes.append(judged(
                    True, "records readable from the external network vantage: HTTP 200",
                    repo.id))
            else:
                outcomes.append(judged(
                    False, f"external-vantage read rejected: HTTP {resp.status}"))
        except WireError:
            outcomes.append(judged(False, "external-vantage read refused at transport level"))
    return fold("LOG-04", outcomes)
