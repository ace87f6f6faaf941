"""Run one ``flowalg`` command with the per-layer wrappers installed.

Usage: ``python3 perfbench/traced_cli.py <flowalg arguments>``, with the
checkout's ``src`` on ``PYTHONPATH``.  The report goes to standard output
exactly as ``python -m flowalg.cli`` prints it; the profile is written as
one JSON line at the end of standard error.
"""

import json
import sys
from time import perf_counter

import tracing

if __name__ == "__main__":
    t0 = perf_counter()
    import flowalg.cli
    import_s = perf_counter() - t0

    profile = tracing.Profile()
    tracing.install(profile)
    try:
        code = flowalg.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        snap = profile.snapshot()
        snap["import_s"] = import_s
        print(json.dumps(snap), file=sys.stderr)
    sys.exit(code)
