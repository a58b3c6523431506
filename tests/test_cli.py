"""Command-line surface: exit codes, output shapes, testbed lifecycle."""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from importlib import resources

import pytest

from utmaudit import cli
from utmaudit.manifest import parse_manifest_file
from utmaudit.testbed.toggles import TOGGLES

FIXTURE_MANIFEST = str(resources.files("utmaudit") / "data" / "testbed.manifest")

POC_TITLES = (
    "Test mTLS implementation",
    "If other authorization flows, test for insecure ones",
    "Search for private key exposures",
)


def test_checks_list(capsys):
    assert cli.main(["checks", "list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 27
    assert lines[0].startswith("NET-01")
    assert lines[-1].startswith("LOG-04")
    for line in lines:
        assert re.match(r"^[A-Z]+-\d{2}\s+\S", line)


def test_testbed_toggle_listing(capsys):
    assert cli.main(["testbed", "--toggles"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 28
    assert set(lines) == set(TOGGLES)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "utmaudit" in capsys.readouterr().out


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan", "--manifest", "x", "--frobnicate"])
    assert exc.value.code == 2


def test_manifest_validate_ok(capsys):
    assert cli.main(["manifest-validate", FIXTURE_MANIFEST]) == 0
    out = capsys.readouterr().out
    assert re.fullmatch(r"ok [0-9a-f]{64}\n", out)


def test_manifest_validate_missing_file(capsys):
    assert cli.main(["manifest-validate", "/nonexistent/path.manifest"]) == 2
    assert capsys.readouterr().err.startswith("utmaudit: ")


def test_manifest_validate_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.manifest"
    bad.write_text("[target]\nmode = remote\n[mystery]\nx = 1\n")
    assert cli.main(["manifest-validate", str(bad)]) == 2
    assert "utmaudit:" in capsys.readouterr().err


def test_scan_rejects_unknown_check_id(secure_testbed, capsys):
    rc = cli.main(
        ["scan", "--manifest", str(secure_testbed.manifest_path), "--checks", "NET-99"]
    )
    assert rc == 2
    assert "NET-99" in capsys.readouterr().err


def test_scan_secure_is_clean(secure_testbed, capsys):
    rc = cli.main(["scan", "--manifest", str(secure_testbed.manifest_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "NET-01" in out and "LOG-04" in out
    assert "no findings" in out


def test_scan_selection_limits_output(secure_testbed, capsys):
    rc = cli.main(
        [
            "scan",
            "--manifest",
            str(secure_testbed.manifest_path),
            "--checks",
            "JWT-06",
            "--format",
            "text",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "JWT-06" in out
    assert "NET-01" not in out


def test_scan_finds_seeded_vulnerabilities(paper_poc_testbed, capsys):
    rc = cli.main(
        ["scan", "--manifest", str(paper_poc_testbed.manifest_path), "--format", "text"]
    )
    out = capsys.readouterr().out
    assert rc == 1
    for title in POC_TITLES:
        assert title in out
    assert "remediation:" in out


def test_scan_json_to_file(secure_testbed, tmp_path, capsys):
    target = tmp_path / "report.json"
    rc = cli.main(
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
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["summary"]["checks"] == 27
    assert doc["summary"]["findings"] == 0


def test_report_rerenders_saved_scan(paper_poc_testbed, tmp_path, capsys):
    saved = tmp_path / "poc.json"
    rc = cli.main(
        [
            "scan",
            "--manifest",
            str(paper_poc_testbed.manifest_path),
            "--format",
            "json",
            "--out",
            str(saved),
        ]
    )
    assert rc == 1
    capsys.readouterr()

    rc = cli.main(["report", "--in", str(saved), "--format", "text"])
    out = capsys.readouterr().out
    assert rc == 1  # exit mirrors recorded findings
    for title in POC_TITLES:
        assert title in out


def test_report_rejects_missing_file(capsys):
    assert cli.main(["report", "--in", "/nonexistent/report.json"]) == 2
    assert capsys.readouterr().err.startswith("utmaudit: ")


def test_testbed_up_down_lifecycle(tmp_path, secure_testbed):
    state = tmp_path / "state.json"
    with subprocess.Popen(
        [sys.executable, "-m", "utmaudit.cli", "testbed", "up", "--state", str(state)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            manifest_path = proc.stdout.readline().strip()
            assert manifest_path, proc.stderr.read()
            assert os.path.exists(manifest_path)
            assert state.exists()
            # the testbed shares its PKI only within its own process
            child_ca = parse_manifest_file(manifest_path).ca_path
            own_ca = secure_testbed.manifest.ca_path
            with open(child_ca, "rb") as fh, open(own_ca, "rb") as own:
                assert fh.read() != own.read()

            # the child is not reaped until proc.wait below, so down must not
            # wait for its pid to vanish
            started = time.monotonic()
            rc = subprocess.run(
                [sys.executable, "-m", "utmaudit.cli", "testbed", "down",
                 "--state", str(state)],
                capture_output=True,
                timeout=30,
            ).returncode
            assert rc == 0
            assert time.monotonic() - started < 3
            assert proc.wait(timeout=10) == 0
            assert not state.exists()
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                proc.wait(timeout=10)


def test_testbed_down_without_state(tmp_path, capsys):
    state = tmp_path / "missing.json"
    assert cli.main(["testbed", "down", "--state", str(state)]) == 2
    assert capsys.readouterr().err.startswith("utmaudit: ")


def test_testbed_down_leaves_a_stale_pid_alone(tmp_path, capsys):
    state = tmp_path / "state.json"
    child = subprocess.Popen(["sleep", "30"])
    try:
        state.write_text(json.dumps({
            "pid": child.pid, "manifest": "gone", "port_base": _closed_port(),
        }))
        assert cli.main(["testbed", "down", "--state", str(state)]) == 2
        assert capsys.readouterr().err == (
            f"utmaudit: stale testbed state at {state}; "
            f"pid {child.pid} not signalled\n"
        )
        assert not state.exists()
        assert child.poll() is None
    finally:
        child.kill()
        child.wait(timeout=10)


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_scan_that_assessed_nothing_exits_2(tmp_path, capsys):
    manifest = tmp_path / "closed.manifest"
    manifest.write_text(
        "[target]\nmode = remote\n\n"
        "[client]\nclient_id = auditor\n"
        "client_secret = 0123456789abcdef0123456789abcdef\n\n"
        f"[component auth]\nrole = OAuthServer\nendpoints = https://127.0.0.1:{_closed_port()}\n\n"
        f"[component gw]\nrole = HttpsGateway\nendpoints = https://127.0.0.1:{_closed_port()}\n"
        "audience = gw\nread = GET /records scope=read\n\n"
        f"[component db]\nrole = DbNode\nendpoints = tcp://127.0.0.1:{_closed_port()}\n"
    )
    report = tmp_path / "report.json"
    rc = cli.main(
        ["scan", "--manifest", str(manifest), "--checks", "DB-01,JWT-06",
         "--format", "json", "--out", str(report)]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("utmaudit: ")
    doc = json.loads(report.read_text())
    assert [r["status"] for r in doc["results"]] == ["NotAssessable", "NotAssessable"]


def test_testbed_up_stops_cleanly_on_immediate_sigterm(tmp_path):
    state = tmp_path / "state.json"
    with subprocess.Popen(
        [sys.executable, "-m", "utmaudit.cli", "testbed", "up", "--state", str(state)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            assert proc.stdout.readline().strip(), proc.stderr.read()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            assert not state.exists()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
