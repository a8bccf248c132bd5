"""Steadiness of the benchmark: two sets of runs of one commit, disjoint seeds.

    python3 perfbench/steady.py [--workload W ...]

Run from the root of a checkout that holds BENCHMARK.json.  For each
workload it runs five seeds from set A (1001 ... 1005) and five from set B
(2001 ... 2005), each seed once untraced and once traced, each run in a
fresh process exactly as the benchmark is run, for BENCHMARK.json's
run_seconds.  For each end-to-end metric it prints both sets' medians,
quartiles and spread (interquartile range over median) next to the metric's
bound, and the spread over all ten runs; for each per-layer metric it
prints the spread over all ten runs and how far the set medians differ.
It compares the share of failed verdicts; every run's result goes to
perfbench/out/steady.json.

Exits 1 when a run is not correct, when an end-to-end spread exceeds its
bound, when the two sets' medians of an end-to-end metric differ by more
than its bound, or when the failed shares differ.  A per-layer metric whose
spread or set difference exceeds a tenth is marked but does not change the
exit code: per-layer metrics have no bound, and some are single cold-start
samples or exact-arithmetic times whose cost moves with the drawn values
(see README.md).
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # noqa: E402

import argparse
import json
import os
import statistics
import subprocess

import inputs as inp

SETS = {"A": 1000, "B": 2000}
RUNS_PER_SET = 5
PER_LAYER_BOUND = 0.1     # a tenth, marked only


def one_run(root, workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit "
                           f"{proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    """(median, q1, q3, IQR over median); 0 spread for a metric that is 0."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float(q3 != q1)


def difference(a, b):
    """|b - a| / a of two medians; 0 when both are 0."""
    return abs(b - a) / abs(a) if a else float(b != a)


def main(argv=None):
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=inp.WORKLOADS)
    args = ap.parse_args(argv)

    bad = 0
    record = {}
    for workload in args.workload or inp.WORKLOADS:
        runs = {}
        for name, base in SETS.items():
            for trace in (0, 1):
                key = f"{name}{'.traced' if trace else ''}"
                runs[key] = []
                for seed in range(base + 1, base + RUNS_PER_SET + 1):
                    res = one_run(root, workload, seed, bench["run_seconds"], trace)
                    runs[key].append(res)
                    print(f"{workload} set {key} seed {seed}: "
                          + " ".join(f"{k}={m['value']:.5g}"
                                     for k, m in res["metrics"].items())
                          + f" failed={res['failed']}/{res['attempted']}"
                          + f" correct={res['correct']}", flush=True)
        record[workload] = runs
        bad += sum(not r["correct"] for rs in runs.values() for r in rs)

        def values(sets, key):
            return [r["metrics"][key]["value"] for s in sets for r in runs[s]]

        for metric in bench["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            stats = {n: spread(values([n], key)) for n in SETS}
            everything = spread(values(SETS, key))[3]
            diff = difference(stats["A"][0], stats["B"][0])
            ok = (diff <= bound and everything <= bound
                  and all(s[3] <= bound for s in stats.values()))
            bad += not ok
            print(f"  {workload:<12} {key:<15} bound {bound:<5} "
                  + "  ".join(f"{n}: median {s[0]:.5g} q1 {s[1]:.5g} q3 {s[2]:.5g} "
                              f"spread {s[3]:.4f}" for n, s in stats.items())
                  + f"  all ten: spread {everything:.4f}"
                  + f"  sets differ by {diff:.4f} {'ok' if ok else 'OUT OF BOUND'}")
        traced = [f"{n}.traced" for n in SETS]
        for metric in bench["per_layer"]:
            key = metric["name"]
            everything = spread(values(traced, key))[3]
            diff = difference(*(spread(values([n], key))[0] for n in traced))
            ok = everything <= PER_LAYER_BOUND and diff <= PER_LAYER_BOUND
            print(f"  {workload:<12} {key:<32} median "
                  f"{spread(values(traced, key))[0]:<12.5g} spread {everything:.4f}"
                  f"  sets differ by {diff:.4f}"
                  f"  {'ok' if ok else 'OVER A TENTH'}")
        shares = {n: sorted({(r["failed"], r["attempted"]) for r in rs})
                  for n, rs in runs.items()}
        same = len({f / a for rs in shares.values() for f, a in rs}) == 1
        bad += not same
        print(f"  {workload:<12} failed/attempted "
              + " ".join(f"{n} {s}" for n, s in shares.items())
              + f" {'same share' if same else 'SHARES DIFFER'}", flush=True)
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "out",
                           "steady.json"), "w") as fh:
        json.dump(record, fh)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
