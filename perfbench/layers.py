"""Which functions of the program the traced run wraps, and the per-layer
metrics computed from the spans they record.

Names are wrapped where their callers look them up: ``engine`` imports
``make_mint`` by name, ``cli`` imports ``parse_manifest_file`` by name and
``harness`` imports ``make_bundle`` by name, so those are wrapped on the
importing module. Everything else is called through its own module or
class and is wrapped there.
"""

from __future__ import annotations

import inspect
import statistics
from typing import Iterable, Optional

from tracer import Span, Tracer, self_times

# Layers whose self time is reported per scan, named after their modules.
SELF_TIME_LAYERS = (
    "cli", "manifest", "engine", "oauthaudit", "jwtkit", "netprobe",
    "tlsaudit", "sqliprobe", "logaudit", "wire", "testbed", "tokens",
)


def install_scanner(tracer: Tracer) -> None:
    from utmaudit import (
        cli, engine, jwtkit, logaudit, netprobe, oauthaudit, sqliprobe,
        tlsaudit, wire,
    )

    def traced_mint(span, args, kwargs, mint):
        signature = inspect.signature(mint)

        def record_key(inner, call_args, call_kwargs, token):
            bound = signature.bind(*call_args, **call_kwargs)
            bound.apply_defaults()
            inner.attrs["key"] = repr(tuple(bound.arguments.items()))
            return token

        return tracer.traced(mint, "oauthaudit.mint", on_return=record_key)

    def token_outcome(span, args, kwargs, result):
        span.attrs["ok"] = bool(result.ok)
        return result

    def chain_size(span, args, kwargs, result):
        span.attrs["records"] = len(args[0].records)
        return result

    tracer.propagate_to_pools()
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "parse_manifest_file", "manifest.parse")
    tracer.wrap(engine, "run_audit", "engine.run_audit")
    tracer.wrap(engine, "render_report", "engine.render")
    tracer.wrap(engine, "make_mint", "oauthaudit.make_mint", on_return=traced_mint)
    tracer.wrap(oauthaudit, "check_oauth", "oauthaudit.check_oauth")
    tracer.wrap(oauthaudit, "request_token", "oauthaudit.request_token",
                on_return=token_outcome)
    tracer.wrap(jwtkit, "run_jwt_battery", "jwtkit.run_jwt_battery")
    tracer.wrap(jwtkit, "forge", "jwtkit.forge")
    tracer.wrap(netprobe, "check_zones", "netprobe.check_zones")
    tracer.wrap(netprobe, "probe_reachability", "netprobe.probe")
    tracer.wrap(tlsaudit, "check_db_transport", "tlsaudit.check_db_transport")
    tracer.wrap(tlsaudit, "probe_tls", "tlsaudit.probe")
    tracer.wrap(sqliprobe, "check_sql_injection", "sqliprobe.check_sql_injection")
    tracer.wrap(logaudit, "check_logs", "logaudit.check_logs")
    tracer.wrap(logaudit, "verify_chain", "logaudit.verify_chain",
                on_return=chain_size)
    tracer.wrap(wire.HttpClient, "request", "wire.request")


def install_testbed(tracer: Tracer) -> None:
    from utmaudit.testbed import harness, httpbase, rawlisteners, tokens

    tracer.wrap(tokens, "issue", "tokens.issue")
    tracer.wrap(tokens, "validate", "tokens.validate")
    tracer.wrap(harness, "make_bundle", "certs.make_bundle")
    tracer.wrap(harness, "parse_manifest", "manifest.parse")
    tracer.wrap(harness, "start_testbed", "harness.start")
    tracer.wrap(harness.Testbed, "stop", "harness.stop")
    # one span per accepted connection, in the thread that serves it
    tracer.wrap(httpbase.TestbedHttpServer, "finish_request", "testbed.handle",
                thread_cpu=True)
    tracer.wrap(rawlisteners.RawListener, "_serve", "testbed.handle",
                thread_cpu=True)


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(
    spans: list[Span],
    scans: list[int],
    testbed_cpu_s_per_scan: Optional[float] = None,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the traced scans named in ``scans``.

    Counts, failures and busy times are per scan, as the median over scans.
    Latencies are medians over every call. The testbed set-up and teardown
    figures use every span, scanned or not.
    """
    by_sid = {s.sid: s for s in spans}
    wanted = set(scans)
    per_scan: dict[int, list[Span]] = {scan: [] for scan in scans}
    for span in spans:
        if span.scan in wanted:
            per_scan[span.scan].append(span)
    scanned = [s for group in per_scan.values() for s in group]
    selfs = self_times(spans)

    def under(span: Span, name: str) -> bool:
        parent = by_sid.get(span.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = by_sid.get(parent.parent)
        return False

    def named(name: str, group: Iterable[Span] = scanned) -> list[Span]:
        return [s for s in group if s.name == name]

    def count(name: str) -> float:
        return _median(len(named(name, g)) for g in per_scan.values())

    def busy_s(name: str) -> float:
        return _median(
            sum(s.duration for s in named(name, g)) for g in per_scan.values()
        )

    def call_ms(group: list[Span]) -> float:
        return _median(s.duration * 1000 for s in group)

    def distinct_ratio(group: list[Span]) -> float:
        mints = named("oauthaudit.mint", group)
        return len({s.attrs.get("key") for s in mints}) / len(mints) if mints else 0.0

    def cli_overhead_ms(group: list[Span]) -> float:
        cli = sum(s.duration for s in named("cli.main", group))
        audit = sum(s.duration for s in named("engine.run_audit", group))
        return (cli - audit) * 1000 if cli else 0.0

    def sqli_requests(group: list[Span]) -> int:
        return sum(
            1 for s in named("wire.request", group)
            if under(s, "sqliprobe.check_sql_injection")
            and not under(s, "oauthaudit.request_token")
        )

    if testbed_cpu_s_per_scan is None:
        testbed_cpu_s_per_scan = _median(
            sum(s.attrs.get("cpu_s", 0.0) for s in named("testbed.handle", g))
            for g in per_scan.values()
        )
    wire_calls = named("wire.request")
    chains = named("logaudit.verify_chain")

    metrics: dict[str, tuple[float, str]] = {
        "testbed.cpu_s_per_scan": (testbed_cpu_s_per_scan, "s"),
        "tokens.issues": (count("tokens.issue"), "count"),
        "tokens.issue_ms.p50": (call_ms(named("tokens.issue")), "ms"),
        "tokens.validates": (count("tokens.validate"), "count"),
        "tokens.validate_ms.p50": (call_ms(named("tokens.validate")), "ms"),
        "certs.make_bundle_s": (
            _median(s.duration for s in named("certs.make_bundle", spans)), "s"),
        "harness.start_s": (
            _median(s.duration for s in named("harness.start", spans)), "s"),
        "harness.stop_s": (
            _median(s.duration for s in named("harness.stop", spans)), "s"),
        "oauthaudit.check_oauth_s": (busy_s("oauthaudit.check_oauth"), "s"),
        "oauthaudit.token_requests": (count("oauthaudit.request_token"), "count"),
        "oauthaudit.token_ms.p50": (
            call_ms(named("oauthaudit.request_token")), "ms"),
        "oauthaudit.token_failed": (
            _median(sum(1 for s in named("oauthaudit.request_token", g)
                        if "error" in s.attrs or not s.attrs.get("ok"))
                    for g in per_scan.values()), "count"),
        "oauthaudit.mints": (count("oauthaudit.mint"), "count"),
        "oauthaudit.mint_distinct_ratio": (
            _median(distinct_ratio(g) for g in per_scan.values()), "ratio"),
        "jwtkit.run_jwt_battery_s": (busy_s("jwtkit.run_jwt_battery"), "s"),
        "jwtkit.forges": (count("jwtkit.forge"), "count"),
        "netprobe.check_zones_s": (busy_s("netprobe.check_zones"), "s"),
        "netprobe.probes": (count("netprobe.probe"), "count"),
        "netprobe.probe_ms.p50": (call_ms(named("netprobe.probe")), "ms"),
        "tlsaudit.check_db_transport_s": (busy_s("tlsaudit.check_db_transport"), "s"),
        "tlsaudit.probes": (count("tlsaudit.probe"), "count"),
        "tlsaudit.probe_ms.p50": (call_ms(named("tlsaudit.probe")), "ms"),
        "sqliprobe.check_sql_injection_s": (
            busy_s("sqliprobe.check_sql_injection"), "s"),
        "sqliprobe.requests": (
            _median(sqli_requests(g) for g in per_scan.values()), "count"),
        "logaudit.check_logs_s": (busy_s("logaudit.check_logs"), "s"),
        "logaudit.verify_chain_ms": (call_ms(chains), "ms"),
        "logaudit.chain_records": (
            max((s.attrs.get("records", 0) for s in chains), default=0), "count"),
        "wire.requests": (count("wire.request"), "count"),
        "wire.data_ms.p50": (
            call_ms([s for s in wire_calls
                     if not under(s, "oauthaudit.request_token")]), "ms"),
        "wire.errors": (
            _median(sum(1 for s in named("wire.request", g) if "error" in s.attrs)
                    for g in per_scan.values()), "count"),
        "engine.run_audit_s": (busy_s("engine.run_audit"), "s"),
        "engine.render_ms": (call_ms(named("engine.render")), "ms"),
        "manifest.parse_ms": (call_ms(named("manifest.parse")), "ms"),
        "cli.overhead_ms": (
            _median(cli_overhead_ms(g) for g in per_scan.values()), "ms"),
        "trace.spans_per_scan": (
            _median(len(g) for g in per_scan.values()), "count"),
    }
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_ms"] = (
            _median(
                sum(selfs[s.sid] for s in g if s.layer == layer) * 1000
                for g in per_scan.values()
            ),
            "ms",
        )
    return metrics
