"""Injection probing against declared gateway parameters.

Two detection routes, both read-only:

- error-based: a payload provokes a database parser complaint that the
  baseline response does not contain;
- boolean differential: a logically neutral payload variant produces a
  response close to the baseline while the contradictory variant diverges,
  measured with a similarity distance over status, length and word set.

There is no time-based route: its payloads stall the target by design.
"""

from __future__ import annotations

import importlib.resources
import re
import urllib.parse
from dataclasses import dataclass
from typing import Optional

from .manifest import ComponentRole, ComponentSpec, InjectTarget, TargetManifest
from .results import CheckResult, Outcome, attempt, fold, judged, unassessable
from .wire import HttpClient, WireError

SIMILARITY_THRESHOLD = 0.15

ERROR_SIGNATURES = (
    "sql syntax",
    "syntax error",
    "sqlite error",
    "unterminated string",
    "unrecognized token",
    "ora-00933",
    "ora-01756",
    "psycopg2",
    "you have an error in your sql",
)


class CorpusError(Exception):
    pass


@dataclass(frozen=True)
class Payload:
    kind: str  # error | bool_true | bool_false
    text: str

    def rendered(self, baseline: str) -> str:
        return self.text.replace("{BASELINE}", baseline)


_VALID_KINDS = {"error", "bool_true", "bool_false"}


def parse_corpus(raw: str) -> list[Payload]:
    payloads: list[Payload] = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        kind, sep, text = line.partition("|")
        kind = kind.strip()
        if not sep or kind not in _VALID_KINDS:
            raise CorpusError(f"line {lineno}: expected class|payload, got {line!r}")
        if not text:
            raise CorpusError(f"line {lineno}: empty payload")
        payloads.append(Payload(kind=kind, text=text))
    # enforce adjacency of boolean pairs so pairing is unambiguous
    for i, payload in enumerate(payloads):
        if payload.kind == "bool_true":
            if i + 1 >= len(payloads) or payloads[i + 1].kind != "bool_false":
                raise CorpusError(
                    f"bool_true payload {payload.text!r} has no adjacent bool_false"
                )
        if payload.kind == "bool_false":
            if i == 0 or payloads[i - 1].kind != "bool_true":
                raise CorpusError(
                    f"bool_false payload {payload.text!r} has no adjacent bool_true"
                )
    return payloads


def load_corpus() -> list[Payload]:
    raw = (
        importlib.resources.files("utmaudit")
        .joinpath("data/sqli_corpus.txt")
        .read_text(encoding="utf-8")
    )
    return parse_corpus(raw)


# ---------------------------------------------------------------------------
# Response similarity
# ---------------------------------------------------------------------------

_WORD = re.compile(r"[a-z0-9_]+")


@dataclass(frozen=True)
class ResponseSummary:
    status: int
    content_length: int  # word characters only, so whitespace jitter cancels
    words: frozenset[str]


def summarize_response(status: int, body: bytes) -> ResponseSummary:
    text = body.decode("utf-8", errors="replace").lower()
    found = _WORD.findall(text)
    return ResponseSummary(
        status=status,
        content_length=sum(len(w) for w in found),
        words=frozenset(found),
    )


def response_distance(a: ResponseSummary, b: ResponseSummary) -> float:
    """0.0 identical shape, 1.0 maximally different. Status mismatch is
    conclusive; otherwise content amount and word-set overlap share weight."""
    if a.status != b.status:
        return 1.0
    max_len = max(a.content_length, b.content_length, 1)
    length_part = abs(a.content_length - b.content_length) / max_len
    union = a.words | b.words
    if union:
        jaccard = len(a.words & b.words) / len(union)
    else:
        jaccard = 1.0
    return 0.5 * length_part + 0.5 * (1.0 - jaccard)


# ---------------------------------------------------------------------------
# Scanning
# ---------------------------------------------------------------------------


def _request(
    http: HttpClient,
    comp: ComponentSpec,
    target: InjectTarget,
    value: str,
    token: Optional[str],
):
    endpoint = comp.endpoints[0]
    query = urllib.parse.urlencode({target.param: value})
    if target.method.upper() in ("GET", "HEAD"):
        url = endpoint.url(target.path) + "?" + query
        body = None
        headers = []
    else:
        url = endpoint.url(target.path)
        body = query.encode()
        headers = [("Content-Type", "application/x-www-form-urlencoded")]
    if token:
        headers = list(headers) + [("Authorization", f"Bearer {token}")]
    return http.request(target.method.upper(), url, body=body, headers=headers)


def scan_inject_target(
    comp: ComponentSpec,
    target: InjectTarget,
    http: HttpClient,
    *,
    token: Optional[str] = None,
) -> list[Outcome]:
    """DB-02's outcomes for one injection target."""
    label = f"{comp.id} {target.method.upper()} {target.path} param {target.param}"
    return attempt(f"{label}: baseline request failed",
                   lambda: _scan(comp, target, http, token, label))


def _scan(comp: ComponentSpec, target: InjectTarget, http: HttpClient,
          token: Optional[str], label: str) -> list[Outcome]:
    payloads = load_corpus()
    base_resp = _request(http, comp, target, target.baseline, token)
    if base_resp.status >= 400:
        return [unassessable(f"{label}: baseline request returned HTTP {base_resp.status}")]
    baseline = summarize_response(base_resp.status, base_resp.body)
    baseline_text = base_resp.body.decode("utf-8", errors="replace").lower()

    outcomes: list[Outcome] = []
    dropped = 0

    def fetch(payload: Payload):
        nonlocal dropped
        try:
            return _request(http, comp, target, payload.rendered(target.baseline), token)
        except WireError:
            dropped += 1
            return None

    i = 0
    while i < len(payloads):
        payload = payloads[i]
        if payload.kind == "error":
            resp = fetch(payload)
            i += 1
            if resp is None:
                continue
            text = resp.body.decode("utf-8", errors="replace").lower()
            for signature in ERROR_SIGNATURES:
                if signature in text and signature not in baseline_text:
                    outcomes.append(judged(
                        True,
                        f"{label}: database error signature {signature!r} "
                        f"with payload {payload.text!r}",
                        comp.id,
                    ))
                    break
        elif payload.kind == "bool_true":
            partner = payloads[i + 1]
            true_resp = fetch(payload)
            false_resp = fetch(partner)
            i += 2
            if true_resp is None or false_resp is None:
                continue
            d_true = response_distance(
                summarize_response(true_resp.status, true_resp.body), baseline
            )
            d_false = response_distance(
                summarize_response(false_resp.status, false_resp.body), baseline
            )
            if d_true <= SIMILARITY_THRESHOLD < d_false:
                outcomes.append(judged(
                    True,
                    f"{label}: boolean differential (neutral variant distance "
                    f"{d_true:.3f}, contradictory variant distance {d_false:.3f}) "
                    f"with payload pair {payload.text!r} / {partner.text!r}",
                    comp.id,
                ))
        else:
            i += 1

    if dropped:
        outcomes.append(unassessable(
            f"{label}: {dropped} of {len(payloads)} payload requests failed "
            "at transport level"
        ))
    elif not outcomes:
        outcomes.append(judged(
            False,
            f"{label}: no error signatures or boolean differentials across "
            f"{len(payloads)} payloads",
        ))
    return outcomes


def check_sql_injection(
    manifest: TargetManifest,
    http: HttpClient,
    *,
    mint=None,
) -> CheckResult:
    outcomes: list[Outcome] = []
    for comp in manifest.by_role(ComponentRole.HTTPS_GATEWAY):
        if comp.inject is None:
            continue
        token = None
        if mint is not None and comp.read is not None:
            minted = mint(scope=comp.read.scope, audience=comp.audience)
            if minted is None:
                outcomes.append(unassessable(f"{comp.id}: no probe token could be minted"))
                continue
            token = minted.compact()
        outcomes += scan_inject_target(comp, comp.inject, http, token=token)
    return fold("DB-02", outcomes)
