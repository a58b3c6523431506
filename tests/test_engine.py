"""Check registry shape, applicability rules, orchestration, and report I/O."""

import copy
import json
import socket
from importlib import resources

import jsonschema
import pytest

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

AREA_SIZES = {"NET": 2, "DB": 4, "OAUTH": 6, "JWT": 10, "WEB": 1, "LOG": 4}

CRITICAL = {"DB-02", "JWT-04", "JWT-05", "JWT-06", "JWT-07"}
LOW = {"DB-03", "DB-04", "JWT-10"}


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
    assert inactive == {"OAUTH-03", "OAUTH-04", "OAUTH-05", "OAUTH-06", "JWT-10", "WEB-01"}
    assert "OAUTH-01" in active
    assert active == [i for i in (d.check_id for d in REGISTRY) if i not in inactive]


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
    assert set(active) == {d.check_id for d in REGISTRY} - {"OAUTH-01"}


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


def test_unreachable_target_reports_conditional_skips_and_no_false_passes():
    # closed local ports: every probe fails fast, nothing should Pass
    # except NET-01, where refusing external traffic is the wanted posture
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
        if result.check_id == "NET-01":
            continue
        assert result.status is not CheckStatus.PASS, result.check_id


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
