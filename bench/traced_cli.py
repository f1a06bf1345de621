"""Run one ``treatrank`` command with spans recorded, then write the spans as JSON.

Usage: python3 bench/traced_cli.py SPANS_JSON <treatrank arguments...>

This is the traced counterpart of ``python3 -m treatrank.cli`` for the cold
process workload; ``src`` must be on PYTHONPATH.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import treatrank.cli as cli

    tracer = Tracer()
    tracer.job = 0
    tracer.install()
    try:
        code = tracer.span("cli.main", cli.main, argv)
    finally:
        tracer.remove()
        with open(spans_path, "w", encoding="utf-8") as stream:
            json.dump(tracer.spans, stream)
    return code


if __name__ == "__main__":
    sys.exit(main())
