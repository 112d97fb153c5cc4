"""Run one ``umfb`` CLI command with layer spans recorded.

    PYTHONPATH=src python perfbench/traced_cli.py SPANS.json compute -i 6,5 -n 2

Imports ``umfb.cli``, wraps the layer functions (see `tracing.py`), routes
the CLI's file and stdout writes through ``cli.write`` spans and calls
``umfb.cli.main`` with the remaining arguments.  The spans and the
expansion-cache statistics are written to SPANS.json; the exit code is the
CLI's.
"""

import builtins
import json
import sys

import umfb.cli as cli
from tracing import TracedFile, Tracer, cache_stats


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()

    def traced_open(*args, **kwargs):
        with tracer.span("cli.write"):
            fh = builtins.open(*args, **kwargs)
        return TracedFile(fh, tracer)

    cli.open = traced_open  # shadows the builtin inside umfb.cli only
    try:
        with tracer.installed(), tracer.span("cli.main"):
            code = cli.main(argv, out=TracedFile(sys.stdout, tracer, flush=True))
    finally:
        del cli.open
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "caches": cache_stats()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
