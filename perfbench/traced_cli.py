"""Run one ocrdrift command with layer spans recorded.

    python perfbench/traced_cli.py SPANS_JSON RUN_ID COMMAND --config CONFIG

Wraps the layers' functions (see spans.WRAPS), calls
`ocrdrift.cli.main` with everything after RUN_ID, restores every wrapper
and writes the spans to SPANS_JSON. The exit code is the command's.
"""

from __future__ import annotations

import sys

from spans import Tracer, command_span


def main() -> int:
    spans_path, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from ocrdrift import cli

    tracer = Tracer(run_id)
    tracer.install()
    try:
        return tracer.wrap(command_span(argv[0]), cli.main)(argv)
    finally:
        tracer.restore()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
