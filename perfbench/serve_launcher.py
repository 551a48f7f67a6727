"""``repro serve`` with the traced run's wrappers installed.

Usage: ``python perfbench/serve_launcher.py SPANS_FILE [serve options]``.
The benchmark starts this instead of ``python -m repro serve`` for its
traced run: it installs the same wrappers the benchmark process uses,
plus the daemon's own layers, calls ``repro.cli.main(["serve", ...])``
and writes every span to ``SPANS_FILE`` once the daemon has drained.
Thread settings come from the environment the benchmark passes in.
"""

from __future__ import annotations

import sys
from typing import List


def main(argv: List[str]) -> int:
    from repro.cli import main as cli_main

    from perfbench.tracing import CORE_TARGETS, SERVE_TARGETS, Tracer

    spans_path, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    with tracer.installed(CORE_TARGETS + SERVE_TARGETS):
        code = cli_main(["serve", *serve_args])
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
