"""Traced server entry: ``python launcher.py serve <repro serve args>``.

Installs the self-time wrappers of :data:`tracing.SERVE_LAYERS` on the
program's public functions, then runs the unmodified CLI.  The timings
land in ``serve.bench.*`` counters, which the server's own ``stats`` op
exports, so the benchmark reads them per phase like any other metric.
The program is imported from ``PYTHONPATH``, which the benchmark sets.
"""

from __future__ import annotations

import sys


def main(argv) -> int:
    import tracing
    from repro.cli import main as cli_main

    tracing.SelfTimer().install(tracing.SERVE_LAYERS)
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
