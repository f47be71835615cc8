"""Run the desirables command line in this fresh interpreter, optionally traced.

Usage: python3 bench/cli_child.py <desirables arguments...>

With DESIRABLES_BENCH_TRACE set to a file path, the library's public entry
points are rebound to span recorders (see spans.py) before ``cli.main`` runs,
and the recorded spans are written to that file as JSON on exit.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import desirables.cli  # noqa: E402

trace_file = os.environ.get("DESIRABLES_BENCH_TRACE")
tracer = None
if trace_file:
    from spans import Tracer

    tracer = Tracer()
    tracer.install()

code = desirables.cli.main(sys.argv[1:])
sys.stdout.flush()
if tracer is not None:
    tracer.uninstall()
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump(tracer.export(), fh)
raise SystemExit(code)
