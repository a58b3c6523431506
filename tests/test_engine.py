"""Check registry shape, applicability rules, orchestration, and report I/O."""

import copy
import json
import socket
from importlib import resources

import jsonschema
import pytest

from utmaudit import engine
from utmaudit.engine import (
    REGISTRY,
    SCHEMA_VERSION,
    Report,
    UnknownCheckError,
    UnknownFormatError,
    applicable_checks,
    definition,
    registry,
    render_report,
    report_from_dict,
    report_to_dict,
    run_audit,
    strip_volatile,
)
from utmaudit.manifest import parse_manifest
from utmaudit.results import AREA_ORDER, CheckStatus, Severity, check_sort_key
from utmaudit.wire import HttpClient, HttpResponse

AREA_SIZES = {"NET": 2, "DB": 4, "OAUTH": 6, "JWT": 10, "WEB": 1, "LOG": 4}

CRITICAL = {"DB-02", "JWT-04", "JWT-05", "JWT-06", "JWT-07"}
LOW = {"DB-03", "DB-04", "JWT-10"}


# The Skipped reasons of a target that declares only its OAuth server, for
# the checks that need some other component.
_INACTIVE_WITHOUT_COMPONENTS = {
    "NET-01": "no restricted endpoints declared",
    "DB-01": "no database nodes declared",
    "DB-02": "no HTTPS gateway declared",
    "DB-03": "no database nodes declared",
    "DB-04": "no database nodes declared",
    **{f"JWT-{n:02d}": "no token-accepting services declared" for n in range(1, 10)},
    "JWT-10": "no web interface declared",
    "LOG-01": "no log repository declared",
    "LOG-02": "no log repository declared",
    "LOG-03": "no log repository declared",
    "LOG-04": "no log repository declared",
}


def closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def synthetic_manifest(client_lines: str, component_lines: str = "") -> bytes:
    text = (
        "[target]\n"
        "mode = remote\n"
        "\n"
        "[client]\n"
        "client_id = auditor\n"
        f"{client_lines}"
        "\n"
        "[component auth]\n"
        "role = OAuthServer\n"
        f"endpoints = https://127.0.0.1:{closed_port()}\n"
        "token_path = /token\n"
        f"{component_lines}"
    )
    return parse_manifest(text.encode())


def test_registry_has_27_checks_in_area_partition():
    assert len(REGISTRY) == 27
    ids = [d.check_id for d in REGISTRY]
    assert len(set(ids)) == 27
    for area, size in AREA_SIZES.items():
        members = [i for i in ids if i.startswith(area + "-")]
        assert len(members) == size, area
        assert members == [f"{area}-{n:02d}" for n in range(1, size + 1)]


def test_registry_is_in_catalog_order():
    ids = [d.check_id for d in REGISTRY]
    assert ids == sorted(ids, key=check_sort_key)
    assert ids[0] == "NET-01"
    assert ids[-1] == "LOG-04"
    seen_areas = []
    for d in REGISTRY:
        if d.area not in seen_areas:
            seen_areas.append(d.area)
    assert tuple(seen_areas) == AREA_ORDER


def test_registry_entries_are_fully_described():
    for d in REGISTRY:
        assert d.title.strip(), d.check_id
        assert d.remediation.strip(), d.check_id
        assert d.area == d.check_id.split("-")[0]
        assert isinstance(d.severity, Severity)


def test_severity_classes():
    by_severity = {}
    for d in REGISTRY:
        by_severity.setdefault(d.severity, set()).add(d.check_id)
    assert by_severity[Severity.CRITICAL] == CRITICAL
    assert by_severity[Severity.LOW] == LOW
    assert len(by_severity[Severity.HIGH]) == 12
    assert len(by_severity[Severity.MEDIUM]) == 7


def test_definition_lookup():
    d = definition("JWT-06")
    assert d.area == "JWT"
    assert d.severity is Severity.CRITICAL
    with pytest.raises(UnknownCheckError):
        definition("JWT-99")
    assert tuple(registry()) == REGISTRY


def test_full_fixture_manifest_activates_everything():
    raw = (resources.files("utmaudit") / "data" / "testbed.manifest").read_bytes()
    manifest = parse_manifest(raw)
    assert applicable_checks(manifest) == [d.check_id for d in REGISTRY]


def test_cert_only_client_without_web_apps_narrows_scope():
    manifest = synthetic_manifest(
        "certificate = /tmp/client.crt\nkey = /tmp/client.key\n"
    )
    active = applicable_checks(manifest)
    inactive = {d.check_id for d in REGISTRY} - set(active)
    assert inactive == (
        {"OAUTH-03", "OAUTH-04", "OAUTH-05", "OAUTH-06", "WEB-01"}
        | set(_INACTIVE_WITHOUT_COMPONENTS)
    )
    assert "OAUTH-01" in active
    assert active == [i for i in (d.check_id for d in REGISTRY) if i not in inactive]
    # each check reports the first rule of the table that names it
    report = run_audit(manifest, selection=set(_INACTIVE_WITHOUT_COMPONENTS))
    assert all(r.status is CheckStatus.SKIPPED for r in report.results)
    assert {r.check_id: r.evidence for r in report.results} == {
        check_id: [reason] for check_id, reason in _INACTIVE_WITHOUT_COMPONENTS.items()
    }


def test_secret_client_with_web_app_and_extra_grant():
    manifest = synthetic_manifest(
        "client_secret = 0123456789abcdef0123456789abcdef\n"
        "grant_types = client_credentials password\n",
        component_lines=(
            f"\n[component portal]\n"
            f"role = WebAppPublic\n"
            f"endpoints = https://127.0.0.1:{closed_port()}\n"
        ),
    )
    active = applicable_checks(manifest)
    assert set(active) == {"NET-02", "OAUTH-02", "OAUTH-03", "OAUTH-04", "OAUTH-05",
                           "OAUTH-06", "WEB-01"}


def test_gateway_without_injectable_parameters_skips_db02():
    manifest = synthetic_manifest(
        "client_secret = 0123456789abcdef0123456789abcdef\n",
        component_lines=(
            f"\n[component gw]\n"
            f"role = HttpsGateway\n"
            f"endpoints = http://127.0.0.1:{closed_port()}\n"
        ),
    )
    assert "DB-02" not in applicable_checks(manifest)
    (result,) = run_audit(manifest, selection={"DB-02"}).results
    assert result.status is CheckStatus.SKIPPED
    assert result.evidence == ["no injectable parameters declared"]


def test_key_management_without_endpoints_skips_net01_and_judges_net02():
    # the parser lets a KeyManagement component declare no endpoints; with
    # no restricted endpoint left NET-01 has nothing to probe
    text = (
        "[target]\n"
        "mode = remote\n"
        "allowlist = 127.0.0.2\n"
        "\n"
        "[client]\n"
        "client_id = auditor\n"
        "client_secret = 0123456789abcdef0123456789abcdef\n"
        "\n"
        "[component auth]\n"
        "role = OAuthServer\n"
        f"endpoints = https://127.0.0.1:{closed_port()}\n"
        "\n"
        "[component kms]\n"
        "role = KeyManagement\n"
    )
    report = run_audit(parse_manifest(text.encode()), selection={"NET-01", "NET-02"})
    net01, net02 = report.results
    assert net01.status is CheckStatus.SKIPPED
    assert net01.evidence == ["no restricted endpoints declared"]
    assert net02.status is CheckStatus.FAIL
    assert net02.component_id == "auth"
    assert len(net02.evidence) == 1
    assert net02.evidence[0].endswith("from external: refused")


def test_unknown_selection_rejected(secure_testbed):
    with pytest.raises(UnknownCheckError, match="NET-09"):
        run_audit(secure_testbed.manifest, selection={"NET-09"})


def test_single_check_selection_runs_only_that_check(secure_testbed):
    report = run_audit(secure_testbed.manifest, selection={"JWT-06"})
    assert len(report.results) == 1
    result = report.results[0]
    assert result.check_id == "JWT-06"
    assert result.status is CheckStatus.PASS
    assert result.evidence
    assert report.findings == []


# Two JWT checks beside two that are judged on the declaration alone.
_MIXED_SELECTION = {"JWT-01", "JWT-06", "OAUTH-03", "DB-04"}


def _selected_after_jwt_battery(testbed, secure_audit, monkeypatch, battery):
    """Runs the mixed selection with ``battery`` as the JWT area's worker;
    the other areas' checks must keep their secure verdicts."""
    monkeypatch.setattr(engine.jwtkit, "run_jwt_battery", battery)
    report = run_audit(testbed.manifest, selection=_MIXED_SELECTION)
    results = {r.check_id: r for r in report.results}
    assert set(results) == _MIXED_SELECTION
    secure = {r.check_id: r for r in secure_audit[0].results}
    for check_id in ("OAUTH-03", "DB-04"):
        assert (results[check_id].status, results[check_id].evidence) == (
            secure[check_id].status, secure[check_id].evidence), check_id
    return results


def test_an_area_worker_that_raises_costs_only_its_own_checks(
    secure_testbed, secure_audit, monkeypatch,
):
    def broken(manifest, **kwargs):
        raise RuntimeError("battery broke")

    results = _selected_after_jwt_battery(
        secure_testbed, secure_audit, monkeypatch, broken)
    for check_id in ("JWT-01", "JWT-06"):
        assert results[check_id].status is CheckStatus.NOT_ASSESSABLE
        assert results[check_id].evidence == [
            "probe aborted: RuntimeError: battery broke"
        ]


def test_a_wanted_check_without_a_result_is_not_assessable(
    secure_testbed, secure_audit, monkeypatch,
):
    results = _selected_after_jwt_battery(
        secure_testbed, secure_audit, monkeypatch, lambda manifest, **kwargs: [])
    for check_id in ("JWT-01", "JWT-06"):
        assert results[check_id].status is CheckStatus.NOT_ASSESSABLE
        assert results[check_id].evidence == ["check produced no result"]


def test_unreachable_target_reports_conditional_skips_and_no_false_passes():
    # closed local ports: every probe fails fast and nothing may Pass, not
    # even NET-01, since a deployment that is down refuses everyone
    manifest = synthetic_manifest(
        "certificate = /tmp/client.crt\nkey = /tmp/client.key\n",
        component_lines=(
            f"\n[component gw]\n"
            f"role = HttpsGateway\n"
            f"endpoints = https://127.0.0.1:{closed_port()}\n"
            f"audience = gw\n"
            f"read = GET /records scope=read\n"
            f"inject = GET /records param=id baseline=1\n"
            f"\n[component logs]\n"
            f"role = LogRepository\n"
            f"endpoints = https://127.0.0.1:{closed_port()}\n"
            f"read = GET /records scope=logs.read\n"
            f"\n[component db]\n"
            f"role = DbNode\n"
            f"endpoints = tcp://127.0.0.1:{closed_port()}\n"
        ),
    )
    report = run_audit(manifest)
    assert [r.check_id for r in report.results] == [d.check_id for d in REGISTRY]
    by_id = {r.check_id: r for r in report.results}
    for check_id in ("OAUTH-03", "OAUTH-04", "OAUTH-05", "OAUTH-06", "JWT-10", "WEB-01"):
        assert by_id[check_id].status is CheckStatus.SKIPPED, check_id
        assert by_id[check_id].evidence
    for result in report.results:
        assert result.status is not CheckStatus.PASS, result.check_id


class _WriteTokensUnavailable(HttpClient):
    """The token endpoint answers 503 to every request for logs.write."""

    def request(self, method, url, **kwargs):
        if (kwargs.get("form") or {}).get("scope") == "logs.write":
            return HttpResponse(503, [], b'{"error": "temporarily_unavailable"}')
        return super().request(method, url, **kwargs)


def test_a_refused_token_costs_only_the_probes_that_need_it(
    secure_testbed, secure_audit, monkeypatch,
):
    monkeypatch.setattr(engine, "HttpClient", _WriteTokensUnavailable)
    results = {r.check_id: r for r in run_audit(secure_testbed.manifest).results}
    refused = "oauth-server token endpoint: HTTP 503 (error=temporarily_unavailable)"
    assert results["LOG-02"].status is CheckStatus.NOT_ASSESSABLE
    assert results["LOG-02"].evidence == [f"log-repo: {refused}"]
    assert results["LOG-03"].status is CheckStatus.NOT_ASSESSABLE
    assert results["LOG-03"].evidence == [
        "hash chain verifies from genesis to head: all links valid",
        f"forged-link append not probed: {refused}",
    ]
    secure, _ = secure_audit
    for expected in secure.results:
        result = results[expected.check_id]
        assert not any("probe aborted" in line for line in result.evidence)
        if expected.check_id not in ("LOG-02", "LOG-03"):
            assert result.status is expected.status, expected.check_id


class _AnchorTokenUnavailable(HttpClient):
    """The token endpoint answers 503 to every request for the gateway's
    utm.read token, which JWT-01 and JWT-03 judge."""

    def request(self, method, url, **kwargs):
        form = kwargs.get("form") or {}
        if form.get("scope") == "utm.read" and form.get("audience") == "gateway":
            return HttpResponse(503, [], b'{"error": "temporarily_unavailable"}')
        return super().request(method, url, **kwargs)


def test_a_refused_anchor_token_costs_only_the_checks_that_read_it(
    secure_testbed, secure_audit, monkeypatch,
):
    monkeypatch.setattr(engine, "HttpClient", _AnchorTokenUnavailable)
    results = {r.check_id: r for r in run_audit(secure_testbed.manifest).results}
    for check_id in ("JWT-01", "JWT-03"):
        assert results[check_id].status is CheckStatus.NOT_ASSESSABLE
        assert results[check_id].evidence == [
            "authorization server did not issue a probe token: oauth-server token "
            "endpoint: HTTP 503 (error=temporarily_unavailable)"
        ]
    secure, _ = secure_audit
    expected = {r.check_id: r for r in secure.results}
    for check_id in ("JWT-04", "JWT-10"):
        assert results[check_id].status is CheckStatus.PASS
        assert results[check_id].evidence == expected[check_id].evidence
    for result in results.values():
        assert not any("probe aborted" in line for line in result.evidence)


class _LogReadTokensUnavailable(HttpClient):
    """The token endpoint answers 503 to every request for logs.read."""

    def request(self, method, url, **kwargs):
        if (kwargs.get("form") or {}).get("scope") == "logs.read":
            return HttpResponse(503, [], b'{"error": "temporarily_unavailable"}')
        return super().request(method, url, **kwargs)


def test_a_refused_read_token_is_never_read_as_refused_access(
    secure_testbed, secure_audit, monkeypatch,
):
    monkeypatch.setattr(engine, "HttpClient", _LogReadTokensUnavailable)
    selection = {"LOG-01", "LOG-02", "LOG-03", "LOG-04"}
    results = {r.check_id: r for r in run_audit(secure_testbed.manifest, selection).results}
    refused = "oauth-server token endpoint: HTTP 503 (error=temporarily_unavailable)"
    # without the listing read as its control, LOG-04 cannot judge a refusal
    for check_id in ("LOG-01", "LOG-03", "LOG-04"):
        assert results[check_id].status is CheckStatus.NOT_ASSESSABLE
        assert results[check_id].evidence == [f"log-repo: {refused}"]
    secure, _ = secure_audit
    assert results["LOG-02"].status is CheckStatus.PASS
    assert results["LOG-02"].evidence == next(
        r.evidence for r in secure.results if r.check_id == "LOG-02")


@pytest.mark.parametrize("selection, requests", [
    ({"JWT-01"}, 1),  # the anchor token
    ({"JWT-10"}, 2),  # the two web applications' pages
    ({"LOG-02"}, 4),  # the write token, the append, its overwrite and delete
])
def test_a_selection_sends_only_the_requests_its_checks_need(
    secure_testbed, monkeypatch, selection, requests,
):
    sent = []

    class Counting(HttpClient):
        def request(self, method, url, **kwargs):
            sent.append(f"{method} {url}")
            return super().request(method, url, **kwargs)

    monkeypatch.setattr(engine, "HttpClient", Counting)
    report = run_audit(secure_testbed.manifest, selection)
    assert [r.status for r in report.results] == [CheckStatus.PASS]
    assert len(sent) == requests, sent


def test_report_dict_round_trip(secure_audit):
    report, _ = secure_audit
    doc = report_to_dict(report)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["tool"]["name"] == "utmaudit"
    restored = report_from_dict(doc)
    assert restored.manifest_digest == report.manifest_digest
    assert restored.generated_at == report.generated_at
    assert restored.results == report.results
    assert restored.findings == report.findings
    assert report_to_dict(restored) == doc


def test_json_render_parses_back(secure_audit):
    report, _ = secure_audit
    raw = render_report(report, format="json")
    doc = json.loads(raw.decode())
    assert doc == report_to_dict(report)
    assert raw.endswith(b"\n")


def test_json_render_matches_schema(secure_audit):
    report, _ = secure_audit
    with open("docs/report-schema.json", "rb") as fh:
        schema = json.load(fh)
    jsonschema.validate(json.loads(render_report(report, format="json")), schema)


def test_empty_report_renders_valid_json():
    report = Report(
        manifest_digest="0" * 64,
        tool_version="0.1.0",
        generated_at="2026-01-01T00:00:00Z",
        duration_ms=0,
        results=[],
        findings=[],
    )
    doc = json.loads(render_report(report, format="json"))
    assert doc["results"] == []
    assert doc["findings"] == []
    assert doc["summary"]["checks"] == 0


def test_text_render_lists_every_check(secure_audit):
    report, _ = secure_audit
    text = render_report(report, format="text").decode()
    for d in REGISTRY:
        assert d.check_id in text
    assert "Pass" in text


def test_unknown_format_rejected(secure_audit):
    report, _ = secure_audit
    with pytest.raises(UnknownFormatError):
        render_report(report, format="xml")


def test_strip_volatile_removes_timing_only(secure_audit):
    report, _ = secure_audit
    doc = report_to_dict(report)
    before = copy.deepcopy(doc)
    stripped = strip_volatile(doc)
    assert doc == before  # input untouched
    assert "generated_at" not in stripped
    assert "duration_ms" not in stripped
    for entry in stripped["results"]:
        assert "duration_ms" not in entry
    assert stripped["manifest_digest"] == doc["manifest_digest"]
    assert [r["check_id"] for r in stripped["results"]] == [
        r["check_id"] for r in doc["results"]
    ]


def test_duration_is_timed_per_check_and_zero_when_skipped(secure_audit):
    report, _ = secure_audit
    skipped = [r for r in report.results if r.status is CheckStatus.SKIPPED]
    assert skipped
    assert all(r.duration_ms == 0 for r in skipped)
    assert any(r.duration_ms > 0 for r in report.results)


def test_net01_carries_the_reachability_sweep_duration(secure_audit):
    report, _ = secure_audit
    net01 = next(r for r in report.results if r.check_id == "NET-01")
    assert net01.duration_ms > 0
