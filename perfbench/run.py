"""Scan benchmark for utmaudit: one command, three workloads.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each was chosen):

- secure-rescan: back-to-back ``cli.main(["scan", ...])`` against a secure
  testbed that ``utmaudit testbed up`` runs in a child process.
- hs256-rescan: the same loop against ``testbed up --toggle
  weak-alg-hs256-default``.
- toggle-cycle: in process, as the ac3 acceptance test does it: start a
  one-toggle testbed, run the audit, check the toggle matrix, stop. The
  seed fixes the toggle order.

Load is one closed-loop client: the next scan or cycle starts when the
previous one has been checked. Every output is checked against the
repository's own ground truth, and every miss is counted as failed.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics.
With ``--trace 1`` every other iteration runs with span wrappers installed
and the last line carries the per-layer metrics computed from those spans,
plus the tracing overhead measured against the untraced iterations.

The program is imported from ``src/`` next to this directory. The run
writes only under ``.perfbench-tmp/`` there, and removes what it wrote.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

HS256_TOGGLE = "weak-alg-hs256-default"
# `testbed up` is started this many times per rescan run; the last one is
# scanned. setup_s is the median of the spawns: key generation makes a
# single start vary by a third.
SETUP_SPAWNS = 5
SPAWN_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
SIGTERM_REPEAT_S = 5.0

WORKLOADS = ("secure-rescan", "hs256-rescan", "toggle-cycle")


class BenchError(Exception):
    """The benchmark could not run the workload at all."""


@dataclass
class Measured:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    scan_s: list[float] = field(default_factory=list)
    scan_cpu_s: list[float] = field(default_factory=list)
    cycle_s: list[float] = field(default_factory=list)
    traced_scan_s: list[float] = field(default_factory=list)
    traced_scans: list[int] = field(default_factory=list)
    testbed_cpu_s: list[float] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)


# ---------------------------------------------------------------------------
# Ground truth
# ---------------------------------------------------------------------------


def expected_statuses(toggle: Optional[str]) -> dict[str, str]:
    """Secure baseline (26 Pass, WEB-01 Skipped) with the toggle's matrix
    entries flipped to Fail."""
    from utmaudit.engine import REGISTRY
    from utmaudit.testbed.toggles import load_matrix

    statuses = {d.check_id: "Pass" for d in REGISTRY}
    statuses["WEB-01"] = "Skipped"
    if toggle is not None:
        for check_id in load_matrix()[toggle]:
            statuses[check_id] = "Fail"
    return statuses


def check_report(rc: int, blob: bytes, toggle: Optional[str]) -> tuple[Optional[str], bytes]:
    """(problem or None, stripped report bytes) for one saved JSON report."""
    from utmaudit.engine import strip_volatile

    expected = expected_statuses(toggle)
    want_findings = sorted(c for c, s in expected.items() if s == "Fail")
    want_rc = 1 if want_findings else 0
    doc = json.loads(blob)
    stripped = json.dumps(strip_volatile(doc), indent=2, sort_keys=True).encode()
    statuses = {r["check_id"]: r["status"] for r in doc["results"]}
    findings = sorted(f["check_id"] for f in doc["findings"])
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}", stripped
    if statuses != expected:
        wrong = {c: s for c, s in statuses.items() if expected.get(c) != s}
        return f"statuses differ from ground truth: {wrong}", stripped
    if findings != want_findings:
        return f"findings {findings}, expected {want_findings}", stripped
    return None, stripped


def closed_loop(args, m: Measured, tracer, install, iteration) -> None:
    """Run ``iteration(i, traced)`` back to back for ``args.seconds``.

    With a tracer, every other iteration runs with the wrappers of
    ``install(tracer)`` in place and ``tracer.scan`` set to its index, so a
    traced run needs at least two iterations. An exception counts the
    iteration as failed.
    """
    deadline = time.monotonic() + args.seconds
    i = 0
    while i < (2 if tracer else 1) or time.monotonic() < deadline:
        traced = tracer is not None and i % 2 == 1
        if traced:
            install(tracer)
            tracer.scan = i
        m.attempted += 1
        try:
            iteration(i, traced)
        except Exception:
            m.fail(f"iteration {i}: {traceback.format_exc()}")
        finally:
            if traced:
                tracer.uninstall()
                tracer.scan = None
        i += 1


# ---------------------------------------------------------------------------
# Rescan workloads: testbed in a child process, scans in this one
# ---------------------------------------------------------------------------


@dataclass
class TestbedChild:
    proc: subprocess.Popen
    manifest_path: str
    spans_file: Optional[str]


def spawn_testbed(toggle: Optional[str], workdir: Path, index: int,
                  trace: bool) -> tuple[TestbedChild, float]:
    """Start `testbed up` with a private state file; (child, set-up seconds)."""
    up_args = ["testbed", "up", "--state", str(workdir / f"state-{index}.json")]
    if toggle is not None:
        up_args += ["--toggle", toggle]
    spans_file = None
    if trace:
        spans_file = str(workdir / f"spans-{index}.json")
        cmd = [sys.executable, str(BENCH_DIR / "testbed_child.py"), spans_file,
               *up_args]
    else:
        cmd = [sys.executable, "-m", "utmaudit.cli", *up_args]
    env = dict(os.environ, TMPDIR=str(workdir))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=workdir)
    child = TestbedChild(proc, "", spans_file)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], SPAWN_TIMEOUT_S)
        line = proc.stdout.readline() if ready else b""
        setup = time.monotonic() - started
        child.manifest_path = line.decode().strip()
        if not child.manifest_path:
            raise BenchError(f"testbed up exited {proc.poll()} without a manifest path")
        wait_for_sigterm_handler(proc.pid)
    except BaseException:
        stop_testbed(child)
        raise
    return child, setup


def wait_for_sigterm_handler(pid: int) -> None:
    """Wait until the child catches SIGTERM, read from /proc/<pid>/status.

    `testbed up` prints the manifest path before it installs its SIGTERM
    handler; a SIGTERM sent in between kills it without ``Testbed.stop()``.
    """
    deadline = time.monotonic() + SPAWN_TIMEOUT_S
    while time.monotonic() < deadline:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("SigCgt:"):
                    if int(line.split()[1], 16) & (1 << (signal.SIGTERM - 1)):
                        return
        time.sleep(0.005)
    raise BenchError("testbed up never installed its SIGTERM handler")


def stop_testbed(child: TestbedChild) -> None:
    """SIGTERM the child and wait for it; kill it if it does not stop.

    SIGTERM is repeated every few seconds: `testbed up` waits on an Event
    with no timeout, so a signal that arrives just before its main thread
    blocks there is noted but never handled, and the child does not stop.
    """
    proc = child.proc
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while proc.poll() is None and time.monotonic() < deadline:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=SIGTERM_REPEAT_S)
        except subprocess.TimeoutExpired:
            pass
    if proc.poll() is None:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def proc_cpu_s(pid: int) -> float:
    """utime + stime of a process, from /proc/<pid>/stat (read only)."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        fields = fh.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def rescan(args, toggle: Optional[str], workdir: Path):
    from utmaudit import cli

    import layers
    from tracer import Tracer, load_spans

    m = Measured()
    tracer = Tracer() if args.trace else None
    children: list[TestbedChild] = []
    windows: list[tuple[int, float, float]] = []
    out_path = str(workdir / "report.json")

    def scan(manifest_path: str) -> tuple[int, bytes]:
        rc = cli.main(["scan", "--manifest", manifest_path, "--format", "json",
                       "--out", out_path])
        with open(out_path, "rb") as fh:
            return rc, fh.read()

    child = None
    try:
        for index in range(SETUP_SPAWNS):
            if child is not None:
                stop_testbed(child)
            child, setup = spawn_testbed(toggle, workdir, index, bool(tracer))
            children.append(child)
            m.setup_s.append(setup)

        # warm-up: the first scan of a fresh testbed changes target state
        problem, _ = check_report(*scan(child.manifest_path), toggle)
        if problem:
            m.attempted += 1
            m.fail(f"warm-up scan: {problem}")

        reference = None

        def iteration(i: int, traced: bool) -> None:
            nonlocal reference
            cycle0 = time.monotonic()
            tb0 = proc_cpu_s(child.proc.pid)
            cpu0 = time.process_time()
            t0 = time.monotonic()
            rc, blob = scan(child.manifest_path)
            t1 = time.monotonic()
            cpu1 = time.process_time()
            tb1 = proc_cpu_s(child.proc.pid)
            problem, stripped = check_report(rc, blob, toggle)
            if problem is None and reference is not None and stripped != reference:
                problem = "stripped report bytes differ from the first timed scan"
            reference = reference or stripped
            if problem:
                m.fail(f"scan {i}: {problem}")
            if traced:
                m.traced_scan_s.append(t1 - t0)
                m.traced_scans.append(i)
                m.testbed_cpu_s.append(tb1 - tb0)
                windows.append((i, t0, t1))
            else:
                m.scan_s.append(t1 - t0)
                m.scan_cpu_s.append(cpu1 - cpu0)
                m.cycle_s.append(time.monotonic() - cycle0)

        closed_loop(args, m, tracer, layers.install_scanner, iteration)
    finally:
        if child is not None:
            stop_testbed(child)

    spans = tracer.spans if tracer else []
    if tracer:
        offset = max((s.sid for s in spans), default=0)
        for c in children:
            loaded = load_spans(c.spans_file, offset)
            offset = max((s.sid for s in loaded), default=offset)
            for span in loaded:
                for scan_id, lo, hi in windows:
                    if lo <= span.start <= hi:
                        span.scan = scan_id
            spans.extend(loaded)
    return m, spans


# ---------------------------------------------------------------------------
# Toggle cycles: testbed and scanner in this process, as ac3 runs them
# ---------------------------------------------------------------------------


def toggle_cycle(args, workdir: Path):
    from utmaudit import engine
    from utmaudit.results import CheckStatus
    from utmaudit.testbed import harness
    from utmaudit.testbed.toggles import TOGGLES, load_matrix

    import layers
    from tracer import Tracer

    m = Measured()
    tracer = Tracer() if args.trace else None
    matrix = load_matrix()

    # the secure baseline every cycle is judged against; also the warm-up
    t0 = time.monotonic()
    tb = harness.start_testbed()
    m.setup_s.append(time.monotonic() - t0)
    try:
        report = engine.run_audit(tb.manifest)
    finally:
        tb.stop()
    baseline = {r.check_id: r.status for r in report.results}
    if {c: s.value for c, s in baseline.items()} != expected_statuses(None):
        m.attempted += 1
        m.fail("secure baseline differs from ground truth")

    order = list(TOGGLES)
    random.Random(args.seed).shuffle(order)

    def install(tracer: Tracer) -> None:
        layers.install_scanner(tracer)
        layers.install_testbed(tracer)

    def iteration(i: int, traced: bool) -> None:
        toggle = order[i % len(order)]
        c0 = time.monotonic()
        tb = harness.start_testbed((toggle,))
        setup = time.monotonic() - c0
        try:
            cpu0 = time.process_time()
            t0 = time.monotonic()
            report = engine.run_audit(tb.manifest)
            t1 = time.monotonic()
            cpu1 = time.process_time()
            statuses = {r.check_id: r.status for r in report.results}
            flipped = {c for c in baseline if statuses[c] != baseline[c]}
            if flipped != set(matrix[toggle]):
                m.fail(f"{toggle}: flipped {sorted(flipped)}, "
                       f"expected {sorted(matrix[toggle])}")
            elif any(statuses[c] is not CheckStatus.FAIL for c in flipped):
                m.fail(f"{toggle}: a flipped check is not Fail")
        finally:
            tb.stop()
        cycle = time.monotonic() - c0
        if traced:
            m.traced_scan_s.append(t1 - t0)
            m.traced_scans.append(i)
        else:
            m.setup_s.append(setup)
            m.scan_s.append(t1 - t0)
            m.scan_cpu_s.append(cpu1 - cpu0)
            m.cycle_s.append(cycle)

    closed_loop(args, m, tracer, install, iteration)
    return m, (tracer.spans if tracer else [])


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest sample with ten samples beyond it.

    With fewer than 21 samples that sample lies below the median, or there is
    none; the maximum is reported instead, as percentile 100.
    """
    xs = sorted(values)
    if len(xs) < 21:
        return xs[-1], 100.0
    index = len(xs) - 11
    return xs[index], 100.0 * (index + 1) / len(xs)


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_ticks() -> list[int]:
    """The machine-wide CPU tick counters from /proc/stat (read only)."""
    with open("/proc/stat", "r", encoding="ascii") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def environment(workload: str, ticks_before: list[int]) -> dict:
    """Run environment; ``cpu_steal_share`` is the share of CPU time the
    hypervisor took from this machine while the workload ran."""
    import cryptography

    delta = [b - a for a, b in zip(ticks_before, cpu_ticks())]

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": src_digest(),
        "transport": "loopback only (127.0.0.1, allowlisted vantage 127.0.0.2)",
        "load": "closed loop, one client, one scan or cycle in flight",
        "gil": (
            "testbed and scanner share one process and one GIL, so every "
            "figure measures the two together"
            if workload == "toggle-cycle" else
            "testbed runs in a child process; it does not share the "
            "scanner's GIL"
        ),
        "cpu_steal_share": delta[7] / sum(delta) if sum(delta) else 0.0,
    }


def end_to_end(m: Measured) -> tuple[dict, dict]:
    """(metrics, tail details) from the untraced iterations."""
    if not m.scan_s:
        raise BenchError("no iteration completed; see the problems above")
    metrics, tails = {}, {}
    for name, values in (("scan_s", m.scan_s), ("cycle_s", m.cycle_s)):
        metrics[f"{name}.p50"] = (statistics.median(values), "s")
        value, pct = tail(values)
        metrics[f"{name}.tail"] = (value, "s")
        tails[f"{name}.tail"] = {"percentile": pct, "samples": len(values)}
    metrics["scan_cpu_s"] = (statistics.median(m.scan_cpu_s), "s")
    metrics["setup_s"] = (statistics.median(m.setup_s), "s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
    )
    return metrics, tails


def per_layer(m: Measured, spans, rescan_workload: bool) -> dict:
    import layers

    if not m.traced_scans or not m.scan_s:
        raise BenchError("the traced run needs a traced and an untraced iteration")
    metrics = layers.layer_metrics(
        spans, m.traced_scans,
        statistics.median(m.testbed_cpu_s) if rescan_workload else None,
    )
    metrics["trace.overhead_ms"] = (
        (statistics.median(m.traced_scan_s) - statistics.median(m.scan_s)) * 1000,
        "ms",
    )
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _raise_exit(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "utmaudit" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import utmaudit

    if Path(utmaudit.__file__).resolve().parent != SRC / "utmaudit":
        print(f"perfbench: imported utmaudit from {utmaudit.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    # SIGTERM unwinds through the finally blocks that stop the testbed child
    signal.signal(signal.SIGTERM, _raise_exit)

    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    ticks_before = cpu_ticks()
    tempfile.tempdir = str(workdir)
    os.environ["TMPDIR"] = str(workdir)
    try:
        if args.workload == "toggle-cycle":
            m, spans = toggle_cycle(args, workdir)
        else:
            toggle = HS256_TOGGLE if args.workload == "hs256-rescan" else None
            m, spans = rescan(args, toggle, workdir)
        for problem in m.problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        if args.trace:
            metrics, tails = per_layer(m, spans, args.workload != "toggle-cycle"), {}
        else:
            metrics, tails = end_to_end(m)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    failed_frac = m.failed / m.attempted
    if args.trace:
        metrics["failed_frac"] = (failed_frac, "ratio")
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("env " + json.dumps(environment(args.workload, ticks_before),
                              sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    for name, detail in tails.items():
        print(f"tail {name} percentile {detail['percentile']:.1f} "
              f"samples {detail['samples']}")
    if not args.trace:
        print(f"metric failed_frac {failed_frac} ratio")
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
