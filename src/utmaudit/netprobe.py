"""Transport-level reachability probing and the two visibility-zone checks.

A probe opens one TCP connection with `wire.Dialing`, from the vantage that
`manifest.vantage` picks (an allowlisted source address, or None for the
external vantage), and at once sends the greeting of the endpoint's scheme:
one TLS ClientHello record for ``https`` and ``tcp`` (no certificate, no
SNI), ``HEAD / HTTP/1.0`` for ``http``. The greeting only makes a listening
service answer early; it never decides an outcome on its own. Decision table:

- refused at connect, or an active network-layer rejection: ConnectRefused;
- no connection within the timeout: Timeout;
- any byte back from the peer: ConnectOk, at once;
- silence for the whole settle window, connection still open: ConnectOk;
- closed or reset by the peer after the greeting, before any byte back:
  ambiguous, because the peer may have rejected our bytes rather than our
  address. A silent probe on a fresh connection, with the same settle
  window, decides it: there, a close before any data is ConnectRefused
  (how an allowlist enforcer drops unwanted peers), and every other row
  reads as above.

A restricted endpoint that reads ConnectOk from the external vantage is
probed once more with a longer settle window before that counts, so an
enforcer that drops late under load is not taken for an open door.

The first probes and the confirmations each run as one sweep, with every
probe of the sweep in flight at once: each probe is a generator that yields
the socket it waits on, and one selector loop, in the calling thread,
drives them all through connect, greeting, settle window and silent
re-probe. So NET takes about one settle window, plus one confirmation
window when a restricted endpoint needs confirming, however many endpoints
the manifest declares. Each host name is looked up once, before any
probe's clock starts, so nothing blocks inside the loop.

The zone verdicts are a pure function of the collected observations, so
recorded observations replay to identical results.
"""

from __future__ import annotations

import enum
import functools
import selectors
import socket
import ssl
import time
from dataclasses import dataclass
from typing import Generator, Optional, Union

from .manifest import Endpoint, TargetManifest, Zone, expected_zone, vantage
from .results import CheckResult, fold, judged, note, unassessable
from .wire import Dialing, SourceUnavailable, client_context, resolve

DEFAULT_TIMEOUT_MS = 2000
DEFAULT_SETTLE_MS = 200
# An external ConnectOk on a restricted endpoint is a finding only if it
# holds for this many settle windows: an allowlist enforcer that closes
# late under load must not read as an open door.
CONFIRM_SETTLE_FACTOR = 5


class Outcome(enum.Enum):
    CONNECT_OK = "ConnectOk"
    CONNECT_REFUSED = "ConnectRefused"
    TIMEOUT = "Timeout"


@dataclass(frozen=True)
class ReachabilityObservation:
    endpoint: Endpoint
    component_id: str
    source_label: str
    outcome: Outcome
    elapsed_ms: int


@functools.cache
def _client_hello() -> bytes:
    """One TLS ClientHello record, without certificate or SNI."""
    outgoing = ssl.MemoryBIO()
    tls = client_context(None).wrap_bio(ssl.MemoryBIO(), outgoing)
    try:
        tls.do_handshake()
    except ssl.SSLWantReadError:
        pass  # the ClientHello is written; the reply never comes
    return outgoing.read()


def _greeting(endpoint: Endpoint) -> bytes:
    if endpoint.scheme == "http":
        return (
            f"HEAD / HTTP/1.0\r\nHost: {endpoint.host}:{endpoint.port}\r\n\r\n"
        ).encode()
    return _client_hello()


# A probe to sweep: component id, endpoint and source (None: external).
_Job = tuple[str, Endpoint, Optional[str]]
# What a probe waits for: its socket, the selector events, and the
# monotonic deadline. It is sent back the events that came, or 0 when the
# deadline passed first.
_Wait = tuple[socket.socket, int, float]


def _connect_and_read(
    addresses: Union[list[tuple], OSError],
    port: int,
    source: Optional[str],
    greeting: bytes,
    timeout_ms: int,
    settle_ms: int,
) -> Generator[_Wait, int, Optional[Outcome]]:
    """Connect, send ``greeting`` and wait up to the settle window for a
    first byte. None means the peer closed or reset the connection before
    sending any data."""
    try:
        dialing = Dialing(addresses, port, source)
        sock = None
        while sock is None:
            writable = yield (dialing.sock, selectors.EVENT_WRITE,
                              time.monotonic() + timeout_ms / 1000.0)
            sock = dialing.advance(bool(writable))
    except TimeoutError:
        return Outcome.TIMEOUT
    except OSError:
        # refused, or an active network-layer rejection (unreachable, reset)
        return Outcome.CONNECT_REFUSED

    with sock:
        deadline = time.monotonic() + settle_ms / 1000.0
        try:
            # a fresh connection's send buffer takes the whole greeting
            sock.send(greeting)
            if not (yield sock, selectors.EVENT_READ, deadline):
                return Outcome.CONNECT_OK  # still open and silent: a listener is there
            data = sock.recv(1)
        except OSError:
            return None
        return Outcome.CONNECT_OK if data else None


def _probe(
    job: _Job,
    addresses: Union[list[tuple], OSError],
    timeout_ms: int,
    settle_ms: int,
) -> Generator[_Wait, int, ReachabilityObservation]:
    """One probe, for `_sweep` to drive. A source the host cannot bind
    raises SourceUnavailable."""
    component_id, endpoint, source = job
    start = time.monotonic()
    outcome = yield from _connect_and_read(
        addresses, endpoint.port, source, _greeting(endpoint), timeout_ms, settle_ms
    )
    if outcome is None:
        # the peer may have rejected our bytes rather than our address
        outcome = yield from _connect_and_read(
            addresses, endpoint.port, source, b"", timeout_ms, settle_ms
        )
    if outcome is None:
        outcome = Outcome.CONNECT_REFUSED  # closed though we sent nothing: policy
    elapsed = int((time.monotonic() - start) * 1000)
    if outcome is Outcome.TIMEOUT:
        elapsed = max(elapsed, timeout_ms)
    label = "external" if source is None else f"allowlisted:{source}"
    return ReachabilityObservation(endpoint, component_id, label, outcome, elapsed)


def _resolve(jobs: list[_Job]) -> dict[str, Union[list[tuple], OSError]]:
    """What `wire.resolve` returns for each host the jobs name, each looked
    up once."""
    hosts = dict.fromkeys(endpoint.host for _, endpoint, _ in jobs)
    return {host: resolve(host) for host in hosts}


def _sweep(
    jobs: list[_Job],
    addresses: dict[str, Union[list[tuple], OSError]],
    timeout_ms: int,
    settle_ms: int,
) -> list[Union[ReachabilityObservation, SourceUnavailable]]:
    """Probe every job at once, on one selector in the calling thread, with
    the host addresses that `_resolve` looked up. Each job gets its
    observation, or SourceUnavailable when the host cannot bind its source
    address."""
    results: list = [None] * len(jobs)
    with selectors.DefaultSelector() as selector:

        def advance(index: int, probe: Generator, events: Optional[int]) -> None:
            """Send the probe the events that came, and watch what it waits
            for next, or keep its result."""
            try:
                sock, wanted, deadline = probe.send(events)
            except StopIteration as done:
                results[index] = done.value
            except SourceUnavailable as exc:
                results[index] = exc
            else:
                selector.register(sock, wanted, (index, probe, deadline))

        try:
            for index, job in enumerate(jobs):
                probe = _probe(job, addresses[job[1].host], timeout_ms, settle_ms)
                advance(index, probe, None)
            while selector.get_map():
                keys = list(selector.get_map().values())
                wait_s = min(key.data[2] for key in keys) - time.monotonic()
                ready = dict(selector.select(max(wait_s, 0.0)))
                now = time.monotonic()
                for key in keys:
                    index, probe, deadline = key.data
                    events = ready.get(key, 0)
                    if events or deadline <= now:
                        selector.unregister(key.fileobj)
                        advance(index, probe, events)
        finally:
            for key in list(selector.get_map().values()):
                key.fileobj.close()  # the probe still waiting on it
    return results


def probe_reachability(
    endpoint: Endpoint,
    source: Optional[str],
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
    settle_ms: int = DEFAULT_SETTLE_MS,
    component_id: str = "",
) -> ReachabilityObservation:
    """A sweep of one probe. A source the host cannot bind raises
    SourceUnavailable."""
    jobs = [(component_id, endpoint, source)]
    [result] = _sweep(jobs, _resolve(jobs), timeout_ms, settle_ms)
    if isinstance(result, SourceUnavailable):
        raise result
    return result


# ---------------------------------------------------------------------------
# Zone checks
# ---------------------------------------------------------------------------


def _ids_in_zone(manifest: TargetManifest, zone: Zone) -> set[str]:
    return {c.id for c in manifest.components if expected_zone(c.role) is zone}


def collect_observations(
    manifest: TargetManifest,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
    settle_ms: int = DEFAULT_SETTLE_MS,
) -> tuple[list[ReachabilityObservation], bool]:
    """Probe every endpoint from the external vantage and, where available,
    restricted endpoints from the first allowlisted source, all in one
    sweep. An external ConnectOk on a restricted endpoint is probed once
    more, in a second sweep with ``CONFIRM_SETTLE_FACTOR`` times the settle
    window, and the second observation replaces the first. Returns the
    observations plus whether the allowlisted vantage was usable."""
    jobs: list[_Job] = []
    for comp in manifest.components:
        allowlisted = vantage(comp, manifest.allowlisted_source)
        for endpoint in comp.endpoints:
            jobs.append((comp.id, endpoint, None))
            if allowlisted is not None:
                jobs.append((comp.id, endpoint, allowlisted))

    restricted = _ids_in_zone(manifest, Zone.RESTRICTED)
    addresses = _resolve(jobs)  # before any probe's clock starts
    results = _sweep(jobs, addresses, timeout_ms, settle_ms)
    unconfirmed = [
        index
        for index, obs in enumerate(results)
        if isinstance(obs, ReachabilityObservation)
        and obs.component_id in restricted
        and obs.source_label == "external"
        and obs.outcome is Outcome.CONNECT_OK
    ]
    if unconfirmed:
        confirmed = _sweep(
            [jobs[index] for index in unconfirmed], addresses,
            timeout_ms, settle_ms * CONFIRM_SETTLE_FACTOR,
        )
        for index, obs in zip(unconfirmed, confirmed):
            results[index] = obs
    observations = [
        obs for obs in results if isinstance(obs, ReachabilityObservation)
    ]
    allowlist_usable = (
        manifest.allowlisted_source is not None
        and len(observations) == len(results)
    )
    return observations, allowlist_usable


def check_zones(
    manifest: TargetManifest,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
    settle_ms: int = DEFAULT_SETTLE_MS,
) -> list[CheckResult]:
    if timeout_ms < 1:
        raise ValueError(f"probe timeout must be at least 1 ms, not {timeout_ms}")
    observations, allowlist_usable = collect_observations(
        manifest, timeout_ms, settle_ms
    )
    return classify_observations(manifest, observations, allowlist_usable)


_OUTCOME_WORD = {
    Outcome.CONNECT_OK: "reachable",
    Outcome.CONNECT_REFUSED: "refused",
    Outcome.TIMEOUT: "timeout",
}


def classify_observations(
    manifest: TargetManifest,
    observations: list[ReachabilityObservation],
    allowlist_usable: bool,
) -> list[CheckResult]:
    """Pure classifier over recorded observations (replayable). An external
    ConnectOk on a restricted endpoint fails NET-01; any other external
    outcome on a public endpoint fails NET-02. Allowlisted-vantage
    observations are notes: over-restriction is not a finding. When no
    endpoint was reachable from any vantage, NET-01 is NotAssessable: a
    deployment that is down refuses everyone, so its refusals show no
    restriction."""
    restricted = _ids_in_zone(manifest, Zone.RESTRICTED)
    public = _ids_in_zone(manifest, Zone.PUBLIC)
    net01, net02 = [], []

    for obs in observations:
        line = (
            f"{obs.component_id} {obs.endpoint.url()} from {obs.source_label}: "
            f"{_OUTCOME_WORD[obs.outcome]}"
        )
        reachable = obs.outcome is Outcome.CONNECT_OK
        external = obs.source_label == "external"
        if obs.component_id in restricted:
            if external:
                net01.append(judged(reachable, line, obs.component_id))
                continue
            net01.append(note(line))
            if not reachable:
                net01.append(note(
                    f"warning: {obs.component_id} unreachable from the allowlisted "
                    "source (over-restriction, not a finding)"
                ))
        elif obs.component_id in public and external:
            net02.append(judged(not reachable, line, obs.component_id))

    if not any(obs.outcome is Outcome.CONNECT_OK for obs in observations):
        net01.append(unassessable(
            "no endpoint reachable from any vantage: the deployment is down "
            "or drops the scanner, so no refusal shows a restriction"
        ))
    if not allowlist_usable:
        net01.append(note(
            "allowlisted-source verification not assessable from this vantage"
        ))
    return [fold("NET-01", net01), fold("NET-02", net02)]
