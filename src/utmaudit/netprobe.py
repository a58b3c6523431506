"""Transport-level reachability probing and the two visibility-zone checks.

A probe opens one TCP connection and at once sends the greeting of the
endpoint's scheme: one TLS ClientHello record for ``https`` and ``tcp``
(no certificate, no SNI), ``HEAD / HTTP/1.0`` for ``http``. The greeting
only makes a listening service answer early; it never decides an outcome
on its own. Decision table:

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

The zone verdicts are a pure function of the collected observations, so
recorded observations replay to identical results.
"""

from __future__ import annotations

import concurrent.futures
import enum
import errno
import functools
import socket
import ssl
import threading
import time
from dataclasses import dataclass
from typing import Optional

from .manifest import Endpoint, TargetManifest, Zone, expected_zone, vantage
from .results import CheckResult, fold, judged, note

DEFAULT_TIMEOUT_MS = 2000
DEFAULT_SETTLE_MS = 200
# An external ConnectOk on a restricted endpoint is a finding only if it
# holds for this many settle windows: an allowlist enforcer that closes
# late under load must not read as an open door.
CONFIRM_SETTLE_FACTOR = 5


class ProbeSourceError(Exception):
    """The local source address could not be bound; not a remote verdict."""


class Outcome(enum.Enum):
    CONNECT_OK = "ConnectOk"
    CONNECT_REFUSED = "ConnectRefused"
    TIMEOUT = "Timeout"


@dataclass(frozen=True)
class SourceBinding:
    label: str
    address: Optional[str] = None  # None binds the host default

    @staticmethod
    def external() -> "SourceBinding":
        return SourceBinding(label="external")

    @staticmethod
    def allowlisted(address: str) -> "SourceBinding":
        return SourceBinding(label=f"allowlisted:{address}", address=address)


@dataclass(frozen=True)
class ReachabilityObservation:
    endpoint: Endpoint
    component_id: str
    source_label: str
    outcome: Outcome
    elapsed_ms: int


_HELLO_LOCK = threading.Lock()


@functools.cache
def _client_hello() -> bytes:
    """One TLS ClientHello record, without certificate or SNI."""
    ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    ctx.check_hostname = False
    ctx.verify_mode = ssl.CERT_NONE
    outgoing = ssl.MemoryBIO()
    tls = ctx.wrap_bio(ssl.MemoryBIO(), outgoing)
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
    with _HELLO_LOCK:  # built once per process, not once per probe thread
        return _client_hello()


def _connect_and_read(
    endpoint: Endpoint,
    source: SourceBinding,
    greeting: bytes,
    timeout_ms: int,
    settle_ms: int,
) -> Optional[Outcome]:
    """Connect, send ``greeting`` and wait up to the settle window for a
    first byte. None means the peer closed or reset the connection before
    sending any data."""
    source_address = (source.address, 0) if source.address else None
    try:
        sock = socket.create_connection(
            (endpoint.host, endpoint.port),
            timeout=timeout_ms / 1000.0,
            source_address=source_address,
        )
    except ConnectionRefusedError:
        return Outcome.CONNECT_REFUSED
    except (socket.timeout, TimeoutError):
        return Outcome.TIMEOUT
    except OSError as exc:
        if source.address and exc.errno in (errno.EADDRNOTAVAIL, errno.EINVAL):
            raise ProbeSourceError(
                f"cannot bind source address {source.address}: {exc}"
            ) from exc
        # active network-layer rejection (host/net unreachable, reset)
        return Outcome.CONNECT_REFUSED

    with sock:
        sock.settimeout(settle_ms / 1000.0)
        try:
            sock.sendall(greeting)
            data = sock.recv(1)
        except (socket.timeout, TimeoutError):
            return Outcome.CONNECT_OK  # still open and silent: a listener is there
        except OSError:
            return None
        return Outcome.CONNECT_OK if data else None


def probe_reachability(
    endpoint: Endpoint,
    source: SourceBinding,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
    settle_ms: int = DEFAULT_SETTLE_MS,
    component_id: str = "",
) -> ReachabilityObservation:
    start = time.monotonic()
    outcome = _connect_and_read(
        endpoint, source, _greeting(endpoint), timeout_ms, settle_ms
    )
    if outcome is None:
        # the peer may have rejected our bytes rather than our address
        outcome = _connect_and_read(endpoint, source, b"", timeout_ms, settle_ms)
    if outcome is None:
        outcome = Outcome.CONNECT_REFUSED  # closed though we sent nothing: policy
    elapsed = int((time.monotonic() - start) * 1000)
    if outcome is Outcome.TIMEOUT:
        elapsed = max(elapsed, timeout_ms)
    return ReachabilityObservation(
        endpoint, component_id, source.label, outcome, elapsed
    )


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
    restricted endpoints from the first allowlisted source. An external
    ConnectOk on a restricted endpoint is probed once more with
    ``CONFIRM_SETTLE_FACTOR`` times the settle window, and the second
    observation replaces the first. Returns the observations plus whether
    the allowlisted vantage was usable."""
    jobs = []
    source = manifest.allowlisted_source
    for comp in manifest.components:
        for endpoint in comp.endpoints:
            jobs.append((comp.id, endpoint, SourceBinding.external()))
            if vantage(comp, source) == "allowlisted":
                jobs.append((comp.id, endpoint, SourceBinding.allowlisted(source)))

    restricted = _ids_in_zone(manifest, Zone.RESTRICTED)
    allowlist_usable = source is not None
    observations: list[Optional[ReachabilityObservation]] = [None] * len(jobs)

    def run(index: int, settle: int) -> None:
        comp_id, endpoint, source = jobs[index]
        nonlocal allowlist_usable
        try:
            observations[index] = probe_reachability(
                endpoint, source, timeout_ms, settle, component_id=comp_id
            )
        except ProbeSourceError:
            allowlist_usable = False

    def run_all(indices: list[int], settle: int) -> None:
        with concurrent.futures.ThreadPoolExecutor(max_workers=16) as pool:
            list(pool.map(lambda index: run(index, settle), indices))

    run_all(list(range(len(jobs))), settle_ms)
    unconfirmed = [
        index
        for index, obs in enumerate(observations)
        if obs is not None
        and obs.component_id in restricted
        and obs.source_label == "external"
        and obs.outcome is Outcome.CONNECT_OK
    ]
    if unconfirmed:
        run_all(unconfirmed, settle_ms * CONFIRM_SETTLE_FACTOR)
    return [obs for obs in observations if obs is not None], allowlist_usable


def check_zones(
    manifest: TargetManifest,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
    settle_ms: int = DEFAULT_SETTLE_MS,
) -> list[CheckResult]:
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
    observations are notes: over-restriction is not a finding."""
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

    if not allowlist_usable:
        net01.append(note(
            "allowlisted-source verification not assessable from this vantage"
        ))
    return [fold("NET-01", net01), fold("NET-02", net02)]
