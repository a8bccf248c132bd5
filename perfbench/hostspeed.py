"""Host speed probes, timed next to every verdict and set-up sample.

The benchmark host's speed drifts, with the CPU fully used throughout: the
same reconstruct round took 1.0 s in one run and 1.8 s in another, and the
loop below took 3.3 ms and then 5.6 ms a few seconds apart.  A probe is a
fixed piece of the same kind of work as the verdicts it sits between, with
nothing of nclb in it, so a change to the program never moves it:

* in-process verdicts: a loop of big-integer arithmetic, Python calls on
  floats and small numpy arrays (`loop_probe`);
* CLI commands and cold set-up interpreters: a fresh interpreter that
  imports numpy (timed by the harness, which starts processes).

A verdict's time, divided by the mean of the probes just before and just
after it and multiplied by the probe's nominal time, is its time at the
nominal host speed.  In one batch of 8 reconstruct runs the loop cut the
run-to-run spread from 18 % to 6 %; the cold interpreter cut the CLI's from
6 % to 2 % and set-up's from 15-35 % to 1-4 %.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

LOOP_NOMINAL_S = 0.005    # typical times on the reference 2-vCPU host
SPAWN_NOMINAL_S = 0.2
SPAWN_CODE = "import numpy"


def _step(f, i):
    return f * 0.999 + (i & 7) * 0.5


def _loop():
    t0 = time.perf_counter()
    x = 1
    for _ in range(4500):
        x = (x * 1103515245 + 12345) % (1 << 255)
    f = 0.0
    for i in range(7500):
        f = _step(f, i)
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(450):
        a = np.exp(-a) * 0.5 + 0.25
    return time.perf_counter() - t0


def loop_probe():
    """Median of three timings of the loop, in seconds."""
    return statistics.median(_loop() for _ in range(3))


def at_nominal(seconds, probes, nominal):
    """Durations at the nominal speed; probes[i] and probes[i + 1] were
    taken just before and just after the i-th duration."""
    return [s * 2 * nominal / (probes[i] + probes[i + 1])
            for i, s in enumerate(seconds)]
