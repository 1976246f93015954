"""Traced entry point for one CLI call.

    python3 perfbench/traced_cli.py SPANS_FILE <weylseq arguments...>

Installs the span wrappers, runs ``weylseq.cli.main`` on the arguments
and, when it returns, writes the spans and counters to SPANS_FILE. The
exit code is the CLI's own.
"""

import json
import sys
import time

import tracing


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    t0 = time.perf_counter()
    import weylseq.cli

    tracer.spans.append(["cli.import", t0, time.perf_counter(), -1])
    tracing.install(tracer)
    try:
        return weylseq.cli.main(argv)
    finally:
        with open(spans_file, "w") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)


if __name__ == "__main__":
    sys.exit(main())
