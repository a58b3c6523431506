"""Run ``utmaudit testbed up`` with the testbed's span wrappers installed.

Usage: python3 testbed_child.py SPANS_FILE testbed up [options...]

The traced rescan workloads start their testbed through this file instead
of ``python3 -m utmaudit.cli``. When the testbed stops on SIGTERM, the
spans recorded in this process are written to SPANS_FILE as JSON.
"""

from __future__ import annotations

import sys

import layers
from tracer import Tracer


def main(argv: list[str]) -> int:
    from utmaudit import cli

    spans_file, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    layers.install_testbed(tracer)
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
