"""Golden reports: the normalised first scan of a fresh testbed, per config.

A config is the secure testbed, the ``paper-poc`` profile or one toggle.
Its golden is ``tests/golden/<config>.json``: the ``strip_volatile`` JSON
report of the first audit of a fresh in-process testbed, without
``manifest_digest``, with the testbed's workdir written ``<workdir>`` and
its eight ports written ``<port0>`` to ``<port7>``. ``test_golden`` compares
each report byte for byte.

Rewrite every golden, or the named ones, after a deliberate change of
report bytes (explain each change in CHANGES.md):

    PYTHONPATH=src python3 -m tests.goldens [config ...]
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from utmaudit.engine import Report, report_to_dict, run_audit, strip_volatile
from utmaudit.testbed.harness import PORT_SPAN, start_testbed
from utmaudit.testbed.toggles import TOGGLES

GOLDEN_DIR = Path(__file__).parent / "golden"
CONFIGS: tuple[str, ...] = ("secure", "paper-poc") + TOGGLES


@dataclass(frozen=True)
class FirstScan:
    """The first audit of a fresh testbed, with where that (now stopped)
    testbed lived: its workdir and its eight ports."""

    report: Report
    workdir: str
    ports: tuple[int, ...]


def start_config(config: str):
    """A fresh testbed for one config."""
    if config == "secure":
        return start_testbed()
    if config == "paper-poc":
        return start_testbed(profile="paper-poc")
    return start_testbed((config,))


def first_scan(config: str) -> FirstScan:
    """Start a fresh testbed for one config, audit it once and stop it."""
    tb = start_config(config)
    try:
        report = run_audit(tb.manifest)
    finally:
        tb.stop()
    return FirstScan(report, tb.workdir, tuple(tb.port(o) for o in range(PORT_SPAN)))


def normalised_report(scan: FirstScan) -> bytes:
    """The golden bytes of one first scan."""
    doc = strip_volatile(report_to_dict(scan.report))
    doc.pop("manifest_digest")
    text = json.dumps(doc, indent=2, sort_keys=True).replace(scan.workdir, "<workdir>")
    for offset, port in enumerate(scan.ports):
        text = re.sub(rf"\b{port}\b", f"<port{offset}>", text)
    return (text + "\n").encode("utf-8")


def golden_path(config: str) -> Path:
    return GOLDEN_DIR / f"{config}.json"


def main(argv: list[str]) -> int:
    unknown = sorted(set(argv) - set(CONFIGS))
    if unknown:
        print("unknown configs: " + ", ".join(unknown), file=sys.stderr)
        return 2
    GOLDEN_DIR.mkdir(exist_ok=True)
    for config in argv or CONFIGS:
        golden_path(config).write_bytes(normalised_report(first_scan(config)))
        print(golden_path(config))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
