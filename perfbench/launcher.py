"""Traced CLI launcher: python3 launcher.py TRACE_OUT.json -- fusionrank args...

Imports fusionrank (timing the import), installs the tracer, runs
``fusionrank.cli.main(argv)`` and writes the trace summary to
TRACE_OUT.json on exit, also when main raises.  The exit code and the
stdout/stderr bytes are those of ``python -m fusionrank``.
"""

import json
import sys
import time

import tracer


def launch(out_path: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    import fusionrank.cli  # noqa: F401  (the import is what is timed)

    import_s = time.perf_counter() - t0
    tracer.install()
    try:
        return fusionrank.cli.main(argv)
    finally:
        doc = tracer.summary()
        doc["import_s"] = import_s
        with open(out_path, "w") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: launcher.py TRACE_OUT.json -- ARGS...", file=sys.stderr)
        sys.exit(2)
    sys.exit(launch(sys.argv[1], sys.argv[3:]))
