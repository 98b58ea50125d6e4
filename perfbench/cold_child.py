"""Run one genshift CLI command in this fresh interpreter, traced.

Usage: python perfbench/cold_child.py SPANS_OUT CLI_ARG...

Times ``import genshift.cli`` as the span ``import.genshift_cli``, runs the
command with the library instrumented, writes the spans as JSON to SPANS_OUT
and exits with the command's exit code. The benchmark's traced ``cli_cold``
run uses it in place of ``python -m genshift.cli``.
"""

import json
import sys

from tracing import CLI_MAIN, Tracer, instrument


def main() -> int:
    spans_out, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("import.genshift_cli"):
        from genshift import cli
    code = 0
    with instrument(tracer), tracer.span(CLI_MAIN):
        try:
            cli.main(args=args, prog_name="genshift")
        except SystemExit as exc:
            code = exc.code
    sys.stdout.flush()
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
