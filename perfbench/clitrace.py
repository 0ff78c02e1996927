"""Run the `stacky` command with the layer tracer installed.

    python3 perfbench/clitrace.py OUT.json SPAWN_TIME stacky-arguments...

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process, so the interpreter start and import of ``stacky.cli`` are measured
from the caller's side.  The command's stdout and exit code are passed
through unchanged; the trace summary and spans go to OUT.json.
"""

import json
import sys
import time

import stacky.cli

ready = time.monotonic()

from tracer import Tracer  # noqa: E402  (imported after the startup clock stops)


def main() -> int:
    out_path, spawned, args = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    with tracer.job("cli"):
        rc = stacky.cli.main(args)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"startup_ms": (ready - spawned) * 1000.0, "summary": tracer.summary(),
                   "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
