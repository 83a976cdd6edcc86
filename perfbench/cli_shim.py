"""``python -m braidshadow`` with the tracer installed, for traced CLI runs.

    python3 perfbench/cli_shim.py TRACE_FILE ARGS...

Runs the CLI on ARGS, then writes the tracer's snapshot and the seconds
spent inside the CLI entry point to TRACE_FILE; the exit code is the CLI's.
"""

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from braidshadow import cli

    start = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        run_s = time.perf_counter() - start
        tracer.uninstall()
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"snapshot": tracer.snapshot(), "run_s": run_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
