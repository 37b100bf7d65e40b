"""Run ``ballobs.cli.main`` under the span tracer; used for traced CLI calls.

    python perfbench/cli_child.py SPANS_JSON [ballobs arguments...]

Behaves like ``python -m ballobs.cli`` (same stdout and exit code) and also
writes the recorded spans to SPANS_JSON.  The caller puts ``src`` on
PYTHONPATH.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import ballobs.cli
    tracer = Tracer()
    tracer.install()
    try:
        code = ballobs.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
