"""A traced ``ecledger`` CLI process, for the traced run of the cold workload.

    python ledger_bench/traced_cli.py SPANS_OUT [ecledger arguments ...]

Imports the CLI, installs the span wrappers, runs ``ecledger.cli.main`` on
the remaining arguments, and writes the spans and the import time to
SPANS_OUT as JSON when the CLI returns.  The exit code is the CLI's.
"""

import json
import sys
import time

start = time.perf_counter()
import ecledger.cli  # noqa: E402  (the import is what is being timed)

import_s = time.perf_counter() - start

from spans import Tracer  # noqa: E402

tracer = Tracer()
tracer.ledger = 0
tracer.install()
try:
    code = ecledger.cli.main(sys.argv[2:])
finally:
    tracer.uninstall()
    with open(sys.argv[1], "w") as fh:
        json.dump({"cli_import_s": import_s, "spans": tracer.spans}, fh)
sys.exit(code)
