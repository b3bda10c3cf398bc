"""Run one rpcurve CLI command in this fresh interpreter, with spans.

Usage: python cli_child.py SRC SPANS_JSON -- CLI_ARGS...

Records the package calls inside the command as the benchmark's traced run
does, writes the spans to SPANS_JSON and exits with the command's exit code.
"""

import json
import sys


def main() -> int:
    src, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py SRC SPANS_JSON -- ARGS...")
    sys.path.insert(0, src)
    import rpcurve.cli
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return rpcurve.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    raise SystemExit(main())
