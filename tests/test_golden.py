"""Every configuration's first scan reproduces its committed golden report
byte for byte, evidence lines included (see tests/goldens.py).

The remote-mode column: a remote auditor without the issuer's fixture
parameters can assess less, never more. On a fresh testbed of each config,
a remote scan moves exactly the four checks that need introspection or a
fixture token, each to NotAssessable, and passes nothing that the
introspective first scan did not pass."""

import dataclasses

import pytest

from utmaudit.engine import run_audit
from utmaudit.results import CheckStatus
from utmaudit.testbed.toggles import TOGGLES

from .goldens import CONFIGS, golden_path, normalised_report, start_config

# DB-03/04 and OAUTH-04 inspect stored bytes, which needs introspective mode;
# JWT-02 needs an expired but validly signed token, which only the fixture
# issues.
REMOTE_MOVES = {"DB-03", "DB-04", "OAUTH-04", "JWT-02"}


@pytest.mark.parametrize("config", CONFIGS)
def test_golden_report(config, first_scans):
    expected = golden_path(config).read_bytes().decode()
    assert normalised_report(first_scans(config)).decode() == expected


@pytest.mark.parametrize("config", ("secure",) + TOGGLES)
def test_remote_mode_assesses_less_and_never_passes_more(config, first_scans):
    introspective = {r.check_id: r.status for r in first_scans(config).report.results}
    tb = start_config(config)
    try:
        manifest = dataclasses.replace(tb.manifest, mode="remote", audit_fixture=False)
        remote = {r.check_id: r.status for r in run_audit(manifest).results}
    finally:
        tb.stop()
    passes = {c for c, s in remote.items() if s is CheckStatus.PASS}
    assert {c for c in passes if introspective[c] is not CheckStatus.PASS} == set()
    moved = {c for c in remote if remote[c] != introspective[c]}
    assert moved == REMOTE_MOVES
    assert {remote[c] for c in moved} == {CheckStatus.NOT_ASSESSABLE}
