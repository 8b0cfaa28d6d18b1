"""Run one ``praf audit`` with tracing on and write its spans as JSON.

    python3 perfbench/child_audit.py SPANS.json audit --out DIR ...

The arguments after SPANS.json go to praf's command line unchanged. The
process exits with the command's exit code.
"""

import json
import sys

import praf.cli
from tracing import Tracer


def main() -> int:
    spans_path, args = sys.argv[1], sys.argv[2:]

    tracer = Tracer()
    tracer.install()
    code = 0
    try:
        praf.cli.main.main(args=args, prog_name="praf", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
