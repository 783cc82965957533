"""Traced stand-in for `python -m qtlattice.cli`, used by the traced cli workload.

Usage: PERFBENCH_SPANS=<file> PERFBENCH_RUN=<id> python perfbench/cli_child.py ARGS...

Installs the span wrappers, calls qtlattice.cli.run(ARGS) and exits with its
status, so exit codes, output and uncaught errors match the real entry
point.  The spans, import included, are written to the file at exit.
"""

from __future__ import annotations

import json
import os
import sys

import spans


def main() -> None:
    tracer = spans.Tracer(os.environ["PERFBENCH_RUN"])
    index = tracer.begin("import")
    import qtlattice.cli

    tracer.end(index)
    spans.install(tracer)
    try:
        status = qtlattice.cli.run(sys.argv[1:])
    finally:
        with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
            json.dump(tracer.spans, fh)
    sys.exit(status)


if __name__ == "__main__":
    main()
