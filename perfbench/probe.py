"""Fresh-interpreter probes: the import cost of ssdual, and traced CLI commands.

    python3 perfbench/probe.py import
        prints {"import_s": ...}, the time of ``import ssdual``;
    python3 perfbench/probe.py cli SPANS_FILE COMMAND ARGS...
        runs ``ssdual.cli.main`` with spans around ssdual's public functions,
        writes them and the import time to SPANS_FILE, and exits with the
        command's exit code.

Only the standard library is loaded before ``import ssdual``, so the import
pays for numpy and scipy the way a user's first import does.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    if argv[0] == "import":
        import ssdual  # noqa: F401

        print(json.dumps({"import_s": time.perf_counter() - start}))
        return 0
    import ssdual.cli

    import_s = time.perf_counter() - start
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.request = 0
    try:
        code = ssdual.cli.main(argv[2:])
    finally:
        tracer.uninstall()
        with open(argv[1], "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
