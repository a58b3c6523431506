"""The verdict fold and per-check isolation."""

import ast
import builtins
import importlib
import pathlib

from hypothesis import given
from hypothesis import strategies as st

import pytest

from utmaudit import results
from utmaudit.results import (
    CheckResult, CheckStatus, Outcome, attempt, fold, judged, run_checks, unassessable,
)
from utmaudit.wire import WireError

outcomes = st.lists(
    st.builds(
        Outcome,
        st.sampled_from(
            [None, CheckStatus.PASS, CheckStatus.FAIL, CheckStatus.NOT_ASSESSABLE]
        ),
        st.text(max_size=8),
        st.one_of(st.none(), st.sampled_from(["gw", "logs", "auth"])),
    ),
    max_size=8,
)


@given(outcomes, st.one_of(st.none(), st.just("summary")))
def test_fold_precedence_and_evidence(items, pass_line):
    result = fold("JWT-06", items, pass_line)
    statuses = [o.status for o in items]
    lines = [o.line for o in items]
    assert result.check_id == "JWT-06"
    if CheckStatus.FAIL in statuses:
        assert result.status is CheckStatus.FAIL
        first = next(o for o in items if o.status is CheckStatus.FAIL)
        assert result.component_id == first.component
        assert result.evidence == lines
    elif CheckStatus.NOT_ASSESSABLE in statuses or CheckStatus.PASS not in statuses:
        assert result.status is CheckStatus.NOT_ASSESSABLE
        assert result.component_id is None
        assert result.evidence == lines
    else:
        assert result.status is CheckStatus.PASS
        assert result.component_id is None
        assert result.evidence == lines + ([pass_line] if pass_line else [])


def test_run_checks_isolates_each_check_and_keeps_order():
    def boom():
        raise KeyError("n")

    results = run_checks(
        {"LOG-01", "LOG-03", "LOG-04"},
        [
            ("LOG-01", lambda: CheckResult("LOG-01", CheckStatus.PASS, ["ok"])),
            ("LOG-03", boom),
            ("LOG-02", lambda: CheckResult("LOG-02", CheckStatus.PASS, ["unwanted"])),
        ],
    )
    assert [r.check_id for r in results] == ["LOG-01", "LOG-03"]
    assert results[0].status is CheckStatus.PASS
    assert results[1].status is CheckStatus.NOT_ASSESSABLE
    assert results[1].evidence == ["probe aborted: KeyError: 'n'"]


def test_attempt_turns_one_transport_error_into_its_own_line():
    def down():
        raise WireError("GET https://gw/: timed out")

    def refused():
        raise ConnectionRefusedError("refused")

    passed = [judged(False, "ok")]
    assert attempt("gw", lambda: passed) == passed
    assert attempt("gw", down) == [unassessable("gw: GET https://gw/: timed out")]
    assert attempt(None, down) == [unassessable("GET https://gw/: timed out")]
    assert attempt("db", refused) == [unassessable("db: refused")]
    with pytest.raises(KeyError):
        attempt("gw", lambda: {}["missing"])


# The functions outside wire.py and results.attempt that catch a transport
# error (WireError, OSError or a subclass), each for a reason of its own.
# Every other transport error ends as results.attempt's "<label>: <error>".
_TRANSPORT_HANDLERS = {
    # decision inputs
    ("logaudit.py", "_check_access"),  # LOG-04: a refused read is refused access
    ("jwtkit.py", "_rejects_anonymous"),  # unsent pre-check keeps the service in
    ("sqliprobe.py", "fetch"),  # DB-02 counts dropped payloads into one line
    ("netprobe.py", "_connect_and_read"),  # NET: refused, timed out or silent
    ("netprobe.py", "advance"),  # NET: an allowlisted source the host cannot bind
    ("netprobe.py", "_client_hello"),  # NET: the ClientHello written in memory
    ("tlsaudit.py", "_handshake"),  # DB-01: handshake refused or banner withheld
    ("tlsaudit.py", "_plaintext_peek"),  # DB-01: no plaintext banner
    # the mint keeps a failed token request to raise it again
    ("oauthaudit.py", "issued"),
    # the command line's own files, processes and port check; no probe
    ("cli.py", "_testbed_up"),
    ("cli.py", "_testbed_down"),
    ("cli.py", "main"),
}


def _caught(node: ast.expr, namespace: dict) -> list:
    """The classes an except clause names, looked up in its module."""
    names = node.elts if isinstance(node, ast.Tuple) else [node]
    return [
        getattr(namespace[name.value.id], name.attr) if isinstance(name, ast.Attribute)
        else namespace.get(name.id, getattr(builtins, name.id, None))
        for name in names
    ]


def test_transport_errors_are_caught_only_where_they_decide_the_outcome():
    """results.attempt is the one place that turns a transport error into
    NotAssessable; any other handler must be one of the listed inputs."""
    places = set()
    for path in sorted(pathlib.Path(results.__file__).parent.glob("*.py")):
        if path.name == "wire.py":
            continue
        name = "utmaudit" if path.stem == "__init__" else f"utmaudit.{path.stem}"
        namespace = vars(importlib.import_module(name))
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # ast.walk visits outer functions first, so the innermost name wins
        function = {
            inner: node.name
            for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None and any(
                isinstance(c, type) and issubclass(c, (OSError, WireError))
                for c in _caught(node.type, namespace)
            ):
                places.add((path.name, function.get(node)))
    places.discard(("results.py", "attempt"))
    assert places == _TRANSPORT_HANDLERS
