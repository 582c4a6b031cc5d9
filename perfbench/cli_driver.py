"""Traced stand-in for ``python -m repro``, run in a fresh interpreter.

``python3 perfbench/cli_driver.py --probe OUT`` times ``import
repro.__main__`` and writes the startup figures to OUT.
``python3 perfbench/cli_driver.py --spans OUT -- <repro args>`` does the
same, then installs the layer wrappers, runs ``repro.__main__.main(<repro
args>)`` with stdout untouched, writes the spans and startup figures to
OUT, and exits with main's return code.  The package is found through
``PYTHONPATH`` (the repository's ``src``), exactly as ``python -m repro``
finds it.
"""

import sys
import time


def _import_repro() -> dict:
    start = time.perf_counter()
    import repro.__main__  # noqa: F401

    end = time.perf_counter()
    return {
        "import_span": [start, end],
        "startup.import_s": end - start,
        "startup.modules_loaded": float(len(sys.modules)),
        "startup.scipy_loaded": float(any(m.split(".")[0] == "scipy" for m in sys.modules)),
    }


def main() -> int:
    # time the program's import first, before this driver imports anything
    startup = _import_repro()

    import argparse
    import json
    import os
    from pathlib import Path

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--probe", type=Path, metavar="OUT")
    mode.add_argument("--spans", type=Path, metavar="OUT")
    parser.add_argument("argv", nargs="*", help="arguments for python -m repro")
    args = parser.parse_args()
    if args.probe is not None:
        args.probe.write_text(json.dumps({"startup": startup}))
        return 0

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    import repro.__main__
    from repro import perf

    from perfbench.layers import install
    from perfbench.tracing import Tracer, dump

    tracer = Tracer()
    tracer.op = 0
    install(tracer)
    code = 1
    try:
        code = repro.__main__.main(args.argv)
    finally:
        sys.stdout.flush()
        dump(
            args.spans,
            tracer.spans,
            pid=os.getpid(),
            startup=startup,
            caches=perf.stats()["caches"],
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
