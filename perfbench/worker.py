"""Run one workload's verdict list in a fresh interpreter.

    python perfbench/worker.py INPUTS.json OUTPUT.json [TRACE.json]

The harness starts this with a pinned environment and the checkout's src/
first on the path.  It loads the models, runs the untimed warm-up round,
then times every verdict of every round, one at a time.  With a trace path
the layer tracer is installed after the imports and written out at the end.
The host speed probe runs before the first timed verdict and after each.
A verdict that raises is recorded with its error and counted as failed by
the harness.
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def run_verdict(runners, session, verdict):
    t0 = time.perf_counter()
    try:
        out = runners[verdict["kind"]](session, verdict)
    except Exception as exc:  # a raising verdict is a failed operation
        out = {"status": "error",
               "error": "".join(traceback.format_exception_only(exc)).strip()}
    return out, time.perf_counter() - t0


def main(argv):
    inputs_path, output_path = argv[0], argv[1]
    trace_path = argv[2] if len(argv) > 2 else None
    with open(inputs_path) as fh:
        inputs = json.load(fh)

    t0 = time.perf_counter()
    import nclb  # noqa: F401  (the program's import cost, recorded below)
    import verdicts
    import_s = time.perf_counter() - t0
    import hostspeed
    from inputs import SETUP_MODELS

    tracer = None
    if trace_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    session = verdicts.Session(SETUP_MODELS[inputs["workload"]])
    for verdict in inputs["warmup"]:
        run_verdict(verdicts.RUNNERS, session, verdict)
    if tracer is not None:
        tracer.mark()

    results = []
    probes = [hostspeed.loop_probe()]
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    for rnd in inputs["rounds"]:
        for verdict in rnd:
            out, secs = run_verdict(verdicts.RUNNERS, session, verdict)
            results.append({"id": verdict["id"], "seconds": secs, "output": out})
            probes.append(hostspeed.loop_probe())
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0

    doc = {"results": results, "probe_s": probes, "wall_s": wall,
           "cpu_s": cpu, "import_s": import_s}
    with open(output_path, "w") as fh:
        json.dump(doc, fh)
    if tracer is not None:
        tracer.write(trace_path, {"import_s": [import_s]})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
