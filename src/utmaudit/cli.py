"""Command-line front end.

Subcommands map onto the audit workflow: validate a manifest, stand up the
mock deployment, scan it, re-render saved reports, list the registry.
Output and exit codes are machine-stable: 0 clean, 1 findings, 2 error,
including a scan that could assess none of its checks.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import signal
import socket
import sys
import time
from typing import Optional

from . import __version__
from .manifest import manifest_digest, parse_manifest_file
from .netprobe import DEFAULT_TIMEOUT_MS
from .results import CheckStatus
from .testbed.toggles import PROFILES, TOGGLES

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

DEFAULT_STATE_FILE = ".utmaudit-testbed.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="utmaudit",
        description="Security audit toolkit for federated UTM deployments.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="run the check registry against a target")
    scan.add_argument("--manifest", required=True, help="target manifest path")
    scan.add_argument(
        "--checks", help="comma-separated check ids; default runs everything"
    )
    scan.add_argument("--format", choices=("json", "text"), default="text")
    scan.add_argument("--out", help="write the report here instead of stdout")
    scan.add_argument(
        "--probe-timeout-ms", type=_milliseconds, default=DEFAULT_TIMEOUT_MS,
        help="connect timeout of NET's reachability probes, at least 1 "
             f"(default {DEFAULT_TIMEOUT_MS}); other probes keep their own",
    )
    scan.set_defaults(func=cmd_scan)

    testbed = sub.add_parser("testbed", help="run the mock deployment")
    testbed.add_argument(
        "action", nargs="?", choices=("up", "down"),
        help="up: start and block until signalled; down: stop a running one",
    )
    testbed.add_argument(
        "--toggles", action="store_true",
        help="list the vulnerability toggles and exit",
    )
    testbed.add_argument(
        "--profile", choices=sorted(PROFILES), default="secure"
    )
    testbed.add_argument(
        "--toggle", action="append", default=[], metavar="NAME",
        help="enable a vulnerability toggle (repeatable, comma-splittable)",
    )
    testbed.add_argument(
        "--port-base", type=int, default=None,
        help="first of eight consecutive ports",
    )
    testbed.add_argument(
        "--state", default=DEFAULT_STATE_FILE,
        help="state file linking `up` and `down`",
    )
    testbed.set_defaults(func=cmd_testbed)

    report = sub.add_parser("report", help="re-render a saved JSON report")
    report.add_argument("--in", dest="infile", required=True)
    report.add_argument("--format", choices=("json", "text"), default="text")
    report.add_argument("--out")
    report.set_defaults(func=cmd_report)

    checks = sub.add_parser("checks", help="inspect the check registry")
    checks.add_argument("action", choices=("list",))
    checks.set_defaults(func=cmd_checks)

    validate = sub.add_parser(
        "manifest-validate", help="parse a manifest without scanning"
    )
    validate.add_argument("manifest")
    validate.set_defaults(func=cmd_validate)

    return parser


def _milliseconds(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _emit(blob: bytes, out: Optional[str]) -> None:
    if out:
        with open(out, "wb") as fh:
            fh.write(blob)
    else:
        sys.stdout.buffer.write(blob)
        sys.stdout.buffer.flush()


def cmd_scan(args) -> int:
    from . import engine

    manifest = parse_manifest_file(args.manifest)
    selection = None
    if args.checks:
        selection = {c.strip() for c in args.checks.split(",") if c.strip()}
    report = engine.run_audit(
        manifest, selection, probe_timeout_ms=args.probe_timeout_ms
    )
    _emit(engine.render_report(report, args.format), args.out)
    return _exit_code(report)


def cmd_report(args) -> int:
    from . import engine

    with open(args.infile, "rb") as fh:
        doc = json.load(fh)
    report = engine.report_from_dict(doc)
    _emit(engine.render_report(report, args.format), args.out)
    return _exit_code(report)


def _exit_code(report) -> int:
    """1 for any Fail; 2 when no check passed and at least one could not be
    assessed, since a clean exit would claim a verdict nothing supports."""
    statuses = {r.status for r in report.results}
    if CheckStatus.FAIL in statuses:
        return EXIT_FINDINGS
    if CheckStatus.NOT_ASSESSABLE in statuses and CheckStatus.PASS not in statuses:
        print("utmaudit: no selected check could be assessed against the target",
              file=sys.stderr)
        return EXIT_ERROR
    return EXIT_CLEAN


def cmd_checks(args) -> int:
    from . import engine

    for d in engine.registry():
        print(f"{d.check_id:<9} {d.title}")
    return EXIT_CLEAN


def cmd_validate(args) -> int:
    manifest = parse_manifest_file(args.manifest)
    print(f"ok {manifest_digest(manifest)}")
    return EXIT_CLEAN


def _split_toggles(items: list[str]) -> list[str]:
    toggles: list[str] = []
    for item in items:
        toggles.extend(t.strip() for t in item.split(",") if t.strip())
    return toggles


def cmd_testbed(args) -> int:
    if args.toggles:
        for name in TOGGLES:
            print(name)
        return EXIT_CLEAN
    if args.action == "up":
        return _testbed_up(args)
    if args.action == "down":
        return _testbed_down(args)
    print("utmaudit: testbed needs an action (up/down) or --toggles",
          file=sys.stderr)
    return EXIT_ERROR


_STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT)


def _testbed_up(args) -> int:
    from .testbed.harness import start_testbed

    # Block the stop signals before any testbed thread starts, so every
    # thread inherits the mask and sigwait below is the only receiver: no
    # handler ever runs, so none can interrupt a lock holder. The no-op
    # handlers keep an inherited SIG_IGN from discarding the signals.
    signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
    for signum in _STOP_SIGNALS:
        signal.signal(signum, lambda signum, frame: None)
    tb = start_testbed(
        _split_toggles(args.toggle), profile=args.profile,
        port_base=args.port_base,
    )
    try:
        state = {
            "pid": os.getpid(),
            "manifest": tb.manifest_path,
            "port_base": tb.port_base,
        }
        with open(args.state, "w", encoding="utf-8") as fh:
            json.dump(state, fh)
        print(tb.manifest_path, flush=True)
        signal.sigwait(_STOP_SIGNALS)
    finally:
        tb.stop()
        try:
            os.remove(args.state)
        except OSError:
            pass
    return EXIT_CLEAN


def _testbed_down(args) -> int:
    try:
        with open(args.state, "r", encoding="utf-8") as fh:
            state = json.load(fh)
    except FileNotFoundError:
        print(f"utmaudit: no testbed state at {args.state}", file=sys.stderr)
        return EXIT_ERROR
    from .testbed.harness import HOST

    pid = int(state["pid"])
    # the pid may belong to another process by now: signal it only while
    # the testbed's first port still accepts
    try:
        socket.create_connection((HOST, int(state["port_base"])), 1).close()
    except OSError:
        try:
            os.remove(args.state)
        except OSError:
            pass
        print(f"utmaudit: stale testbed state at {args.state}; pid {pid} "
              "not signalled", file=sys.stderr)
        return EXIT_ERROR
    try:
        os.kill(pid, signal.SIGTERM)
    except ProcessLookupError:
        pass
    except OSError as exc:
        if exc.errno != errno.ESRCH:
            raise
    # wait for the process to stop its testbed and clear its state file; a
    # zombie still answers kill(pid, 0), so the file is what to watch
    for _ in range(50):
        if not os.path.exists(args.state):
            break
        try:
            os.kill(pid, 0)
        except OSError:
            break
        time.sleep(0.1)
    try:
        os.remove(args.state)
    except OSError:
        pass
    return EXIT_CLEAN


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # manifest, toggle, check-id and format errors are ValueErrors
        print(f"utmaudit: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
