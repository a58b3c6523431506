"""Shared live-testbed fixtures.

The secure and paper-poc instances are session scoped and shared across
test modules. Tests that flip toggles start their own instances instead of
mutating these, or read the first scan of a fresh instance from
``first_scans``.
"""

import contextlib
import functools
import time

import pytest

from utmaudit import netprobe, wire
from utmaudit.engine import run_audit
from utmaudit.testbed.harness import start_testbed

from .goldens import first_scan


@pytest.fixture
def close_after():
    """``close_after(client)`` returns ``client`` and closes it when the
    test ends, so none of its pooled connections outlives the test."""
    with contextlib.ExitStack() as stack:
        yield lambda client: stack.enter_context(contextlib.closing(client))


@pytest.fixture
def context_builds(monkeypatch):
    """The arguments of every TLS client context that ``wire`` builds while
    the test runs, in order, starting from a process that has built none."""
    built = []
    real = wire._build_client_context

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(wire, "_CONTEXTS", {})
    monkeypatch.setattr(wire, "_build_client_context", counting)
    netprobe._client_hello.cache_clear()
    return built


@pytest.fixture(scope="session")
def secure_testbed():
    tb = start_testbed()
    yield tb
    tb.stop()


@pytest.fixture(scope="session")
def secure_audit(secure_testbed):
    """One full audit of the secure deployment plus its wall-clock time."""
    started = time.monotonic()
    report = run_audit(secure_testbed.manifest)
    return report, time.monotonic() - started


@pytest.fixture(scope="session")
def paper_poc_testbed():
    tb = start_testbed(profile="paper-poc")
    yield tb
    tb.stop()


@pytest.fixture(scope="session")
def first_scans():
    """``first_scans(config)`` is ``goldens.first_scan(config)``, run once
    per config and session: the golden and ac3 tests read the same scans."""
    return functools.cache(first_scan)
