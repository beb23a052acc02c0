"""Run ``python -m repro serve`` with the benchmark's span wrappers installed.

Usage::

    python3 perfbench/launcher.py --spans-out PATH -- <repro serve arguments>

The server is the normal ``serve`` entry point; the launcher only
patches public calls first (see :mod:`layers`) and writes the recorded
spans to ``PATH`` when the server exits (SIGINT stops it cleanly).
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    if "--" not in argv or argv[:1] != ["--spans-out"] or len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    spans_out = argv[1]
    serve_args = argv[argv.index("--") + 1 :]

    from layers import patch_server_layers
    from perftrace import SpanRecorder, set_active

    recorder = SpanRecorder("server")
    patch_server_layers(recorder)
    # The main thread builds the dataset at start-up (data.load); the
    # request thread decides per request in the dispatch wrapper.
    set_active(True)
    from repro.__main__ import main as repro_main

    try:
        return repro_main(["serve", *serve_args])
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
