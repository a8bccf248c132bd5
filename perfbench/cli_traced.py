"""Run one nclb command under the layer tracer.

    python perfbench/cli_traced.py TRACE.json <nclb arguments...>

Prints exactly what ``python -m nclb.cli <arguments>`` prints and exits with
its code; the trace, with the import time of nclb.cli, goes to TRACE.json,
also when the command raises.
"""

from __future__ import annotations

import sys
import time


def main(argv):
    trace_path, args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import nclb.cli
    import_s = time.perf_counter() - t0

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return nclb.cli.main(args)
    finally:               # a command that raises still leaves its trace
        sys.stdout.flush()
        tracer.write(trace_path, {"import_s": [import_s]})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
