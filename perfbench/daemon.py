"""Launch ``repro serve`` for the benchmark, optionally traced.

    python perfbench/daemon.py [--trace-dir DIR] -- serve --socket S ...

Everything after ``--`` is handed to the ``repro`` command line
unchanged, so the daemon runs with exactly the settings a user would
give it.  With ``--trace-dir`` the layer wrappers of
:mod:`tracing` are installed first, and the daemon's spans are written
to ``DIR/<pid>.json`` after the SIGTERM drain completes.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, forwarded = argv[:split], argv[split + 1 :]
    tracer = None
    if own[:1] == ["--trace-dir"]:
        import tracing

        tracer = tracing.install(own[1])
    from repro.cli import main as repro_main

    try:
        return repro_main(forwarded)
    finally:
        if tracer is not None:
            tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
