"""Traced stand-in for ``python -m repro``.

Usage: ``python3 perfbench/launcher.py SPANS_JSON <repro CLI args...>``

Times the program's import, installs the span wrappers of
:mod:`spans`, then calls ``repro.__main__.main`` with the remaining
arguments.  The CLI's own output goes to stdout unchanged; the span
totals go to ``SPANS_JSON``.
"""

import json
import os
import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    start = time.perf_counter()
    import repro.__main__ as cli
    import repro.campaign  # noqa: F401 - imported by `run --json` too
    import_s = time.perf_counter() - start

    import spans

    tracer = spans.install(spans.Tracer())
    code = cli.main(argv)
    sys.stdout.flush()
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "take": tracer.take()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
