"""Verdict benchmark for nclb: three closed-loop workloads, one client.

    python3 perfbench/run.py --workload reconstruct|reduced|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  One client runs one verdict at a time; a
verdict is one call of the checks a user runs, ending in pass or fail.  The
run is a fixed list of whole rounds (see inputs.py); every output is then
compared with the independent references in reference.py.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced pass with ``--trace 1``.

The program runs in child interpreters with a pinned environment (one BLAS
thread, a fixed hash seed, a bytecode cache inside the checkout, the
checkout's src/ first on the path), on the same single CPU as the harness;
the harness never imports it.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # noqa: E402  the harness leaves no bytecode

import argparse
import json
import os
import shutil
import statistics
import subprocess
import threading
import time
from fractions import Fraction

import hostspeed
import inputs as inp

HERE = os.path.dirname(os.path.abspath(__file__))
PY = sys.executable
SETUP_STARTS = 5          # cold interpreters before and again after the
                          # verdicts, behind the setup_s median
CHILD_TIMEOUT_S = 170
CLI_GRID = {"residual_mode": "x1=-1:1:5,x2=-1:1:5,x3=-1:1:5",
            "reconstruct": "x1=-0.4:0.4:3,x2=-0.4:0.4:3,x3=-0.4:0.4:3"}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# -- processes -------------------------------------------------------------


def pinned_env(root):
    """The children's whole environment; nothing else is inherited."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "LANG": "C.UTF-8",
        "PYTHONPATH": os.path.join(root, "src"),
        "PYTHONHASHSEED": "0",
        "PYTHONNOUSERSITE": "1",
        "PYTHONPYCACHEPREFIX": os.path.join(HERE, "out", "pycache"),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
    }


def run_child(argv, env, cwd, stdout_path=None, stderr_path=None):
    """(exit code, seconds, rusage) of one child, killed after the timeout."""
    with open(stdout_path or os.devnull, "wb") as out, \
            open(stderr_path or os.devnull, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        secs = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, secs, usage


def spawn_probe(env, root):
    """Seconds of one cold interpreter that imports numpy (hostspeed.py)."""
    return run_child([PY, "-c", hostspeed.SPAWN_CODE], env, root)[1]


def setup_samples(root, workload):
    """Times of cold start-up, import nclb and validated model loads, at
    the nominal host speed."""
    code = ("import nclb\nfrom nclb.models import load_model\n"
            f"for name in {inp.SETUP_MODELS[workload]!r}:\n    load_model(name)\n")
    env = pinned_env(root)
    times, probes = [], [spawn_probe(env, root)]
    for _ in range(SETUP_STARTS):
        rc, secs, _ = run_child([PY, "-c", code], env, root)
        if rc != 0:
            raise BenchError(f"set-up interpreter exited with {rc}")
        times.append(secs)
        probes.append(spawn_probe(env, root))
    return hostspeed.at_nominal(times, probes, hostspeed.SPAWN_NOMINAL_S)


# -- the three workloads ---------------------------------------------------


class Run:
    """One pass over a verdict list, untraced or traced."""

    def __init__(self, root, out_dir, env, trace):
        self.root, self.out_dir, self.env, self.trace = root, out_dir, env, trace
        self.tag = "traced" if trace else "plain"

    def path(self, name):
        return os.path.join(self.out_dir, name)

    def in_process(self, inputs_path):
        """Reconstruct and reduced: one worker interpreter runs every verdict."""
        out = self.path(f"{self.tag}.results.json")
        argv = [PY, os.path.join(HERE, "worker.py"), inputs_path, out]
        if self.trace:
            argv.append(self.path("trace.json"))
        rc, _, usage = run_child(argv, self.env, self.root,
                                 stderr_path=self.path(f"{self.tag}.stderr"))
        if rc != 0:
            raise BenchError(f"worker exited with {rc}; see {self.tag}.stderr")
        with open(out) as fh:
            doc = json.load(fh)
        doc["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        doc["outputs"] = {r["id"]: r["output"] for r in doc["results"]}
        doc["seconds"] = [r["seconds"] for r in doc["results"]]
        doc["probe_nominal_s"] = hostspeed.LOOP_NOMINAL_S
        if self.trace:
            with open(self.path("trace.json")) as fh:
                doc["traces"] = [json.load(fh)]
        return doc

    def cli(self, inputs):
        """Each README command in a fresh interpreter, as a user runs it."""
        for verdict in inputs["warmup"]:
            self._command(verdict)
        outputs, seconds, traces = {}, [], []
        probes = [spawn_probe(self.env, self.root)]
        peak = cpu = 0.0
        for rnd in inputs["rounds"]:
            for verdict in rnd:
                out, secs, usage, trace = self._command(verdict)
                probes.append(spawn_probe(self.env, self.root))
                outputs[verdict["id"]] = out
                seconds.append(secs)
                peak = max(peak, usage.ru_maxrss / 1024.0)
                cpu += usage.ru_utime + usage.ru_stime
                if trace is not None:
                    traces.append(trace)
        return {"outputs": outputs, "seconds": seconds, "probe_s": probes,
                "probe_nominal_s": hostspeed.SPAWN_NOMINAL_S,
                "wall_s": sum(seconds), "cpu_s": cpu, "peak_rss_mb": peak,
                "traces": traces}

    def _command(self, verdict):
        """(output, seconds, rusage, trace or None) of one command.

        A command that fails before writing its --out file or its trace
        leaves none: a missing --out file reads as empty, which fails the
        verdict, and a missing trace is not counted.
        """
        args = cli_args(verdict, self.out_dir)
        stdout = self.path(f"{self.tag}.stdout")
        trace_path = self.path("cli_trace.json")
        out_path = self.path(verdict["out"]) if "out" in verdict else None
        for stale in (trace_path, out_path):
            if stale is not None and os.path.exists(stale):
                os.remove(stale)
        if self.trace:
            argv = [PY, os.path.join(HERE, "cli_traced.py"), trace_path] + args
        else:
            argv = [PY, "-m", "nclb.cli"] + args
        rc, secs, usage = run_child(argv, self.env, self.root, stdout_path=stdout)
        with open(stdout) as fh:
            out = {"rc": rc, "stdout": fh.read()}
        if out_path is not None:
            out["out_csv"] = _read_or_empty(out_path)
        trace = None
        if self.trace and os.path.exists(trace_path):
            with open(trace_path) as fh:
                trace = json.load(fh)
            trace["output_bytes"] = len(out["stdout"].encode())
        return out, secs, usage, trace


def _read_or_empty(path):
    if not os.path.exists(path):
        return ""
    with open(path) as fh:
        return fh.read()


def cli_args(v, out_dir):
    """The README command behind a CLI verdict."""
    kind = v["kind"]
    seed = ["--seed", v["seed"]]
    if kind == "check_algebra":
        return ["check-algebra", "fixtures/h3.json"] + seed
    if kind == "index":
        return ["index", "fixtures/g47.json", "--trials", "32", "--json"] + seed
    if kind == "coisotropic_h3":
        return ["coisotropic", "fixtures/h3.json", "--form",
                "fixtures/h3_null_center.json", "--ideal", "1,3"] + seed
    if kind == "coisotropic_g47":
        return ["coisotropic", "fixtures/g47.json", "--form",
                "fixtures/g47_g1.json", "--ideal", "1,2", "--alpha", "1",
                "--beta", "1"] + seed
    if kind == "verify":
        return ["model", "verify", "heisenberg", "--json"] + seed
    if kind == "reduce":
        return ["model", "reduce", "g4_7", "--alpha", "1", "--beta", "1",
                f"--J={v['J']}", f"--E={v['E']}", "--json"] + seed
    if kind == "residual_mode":
        return ["model", "residual", "heisenberg", "--psi", "mode",
                f"--mu={v['mu']}", f"--nu={v['nu']}", f"--E={v['E']}",
                "--grid", CLI_GRID[kind]] + seed
    if kind == "residual_file":
        return ["model", "residual", "heisenberg", "--psi", "file", "--file",
                os.path.join(out_dir, v["csv"]), f"--E={v['E']}", "--json"] + seed
    if kind == "reconstruct":
        return ["model", "reconstruct", "heisenberg", "--phi",
                os.path.join(out_dir, v["csv"]), f"--E={v['E']}", "--grid",
                CLI_GRID[kind], "--nodes", str(v["nodes"]), "--out",
                os.path.join(out_dir, v["out"])] + seed
    raise ValueError(f"unknown command verdict {kind!r}")


def write_cli_files(inputs, out_dir):
    """The CSV inputs of the file commands, sampled from exact fields."""
    import csv

    import numpy as np

    import reference as ref

    for rnd in [inputs["warmup"]] + inputs["rounds"]:
        for v in rnd:
            if v["kind"] == "residual_file":
                n1, n2, n3 = v["shape"]
                pts = [tuple(o + v["h"] * i for o, i in zip(v["origin"], idx))
                       for idx in ((a, b, c) for a in range(n1)
                                   for b in range(n2) for c in range(n3))]
                energy = float(Fraction(v["E"]))
                vals = ref.mode_values(v["mu"], v["nu"], energy, pts)
                rows = [list(p) + [z.real, z.imag] for p, z in zip(pts, vals)]
                header = ["x1", "x2", "x3", "re", "im"]
            elif v["kind"] == "reconstruct":
                phi = ref.gaussian_amplitude(v["phi"])
                rows = [[k, j, float(phi(k, j)), 0.0]
                        for k in np.linspace(*v["k_axis"])
                        for j in np.linspace(*v["j_axis"])]
                header = ["k", "J", "re", "im"]
            else:
                continue
            with open(os.path.join(out_dir, v["csv"]), "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows([[repr(float(x)) for x in r] for r in rows])


def execute(workload, seed, seconds, root, trace):
    """Run the verdict list.

    Returns (inputs, output directory, untraced pass, traced pass or None);
    an untraced run also times the set-up in "setup_s".
    """
    if not os.path.isfile(os.path.join(root, "src", "nclb", "__init__.py")):
        raise BenchError(f"no src/nclb under {root}: run from a checkout root")
    if not os.path.isdir(os.path.join(root, "fixtures")):
        raise BenchError(f"no fixtures/ under {root}")
    # one CPU for the harness and every child: a process that migrates
    # between the host's two vCPUs ran 5 % slower and less steadily
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    out_dir = os.path.join(HERE, "out", f"{workload}-{seed}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    env = pinned_env(root)
    rc, _, _ = run_child([PY, "-c", "import nclb.cli"], env, root)  # fills
    if rc != 0:                                                      # the cache
        raise BenchError(f"importing nclb failed with exit code {rc}")

    inputs = inp.make_inputs(workload, seed, seconds)
    inputs_path = os.path.join(out_dir, "inputs.json")
    with open(inputs_path, "w") as fh:
        json.dump(inputs, fh)
    if workload == "cli":
        write_cli_files(inputs, out_dir)

    # set-up samples on both sides of the verdicts, so that one burst of
    # outside load moves few of them
    setup = [] if trace else setup_samples(root, workload)
    passes = []
    for traced in ([False, True] if trace else [False]):
        run = Run(root, out_dir, env, traced)
        passes.append(run.cli(inputs) if workload == "cli"
                      else run.in_process(inputs_path))
    if not trace:
        passes[0]["setup_s"] = setup + setup_samples(root, workload)
    return inputs, out_dir, passes[0], (passes[1] if trace else None)


# -- checking and metrics --------------------------------------------------


def check_outputs(inputs, out_dir, plain, traced, root, report=None):
    """(attempted, failed, correct): compare every timed verdict."""
    import compare

    files = compare.Files(root, out_dir)
    attempted = failed = 0
    correct = True
    for rnd in inputs["rounds"]:
        for v in rnd:
            attempted += 1
            out = plain["outputs"].get(v["id"])
            if out is None:
                correct = False
                continue
            if traced is not None and traced["outputs"].get(v["id"]) != out:
                correct = False    # tracing changed an output
            ok, rows = compare.compare(v, out, files)
            failed += not ok
            if report is not None:
                report(v, ok, rows)
    return attempted, failed, correct


def nominal_seconds(run):
    """Each timed verdict's time at the nominal host speed, in list order."""
    return hostspeed.at_nominal(run["seconds"], run["probe_s"],
                                run["probe_nominal_s"])


def round_seconds(inputs, run):
    per_round = len(inputs["rounds"][0])
    secs = nominal_seconds(run)
    return [sum(secs[i:i + per_round]) for i in range(0, len(secs), per_round)]


def verdicts_per_s(inputs, run):
    """Verdicts per second of the median round: every round is the same
    mix, so a burst of outside load moves one round, not the figure."""
    return len(inputs["rounds"][0]) / statistics.median(round_seconds(inputs, run))


def end_to_end(inputs, plain):
    return {
        "verdicts_per_s": (verdicts_per_s(inputs, plain), "1/s"),
        "setup_s": (statistics.median(plain["setup_s"]), "s"),
        "peak_rss_mb": (plain["peak_rss_mb"], "MB"),
    }


def _merge(traces, section=None):
    """Summed per-name stats and counters of the timed part or `section`."""
    names, counters = {}, {}
    for tr in traces:
        part = tr if section is None else (tr.get(section) or {})
        for name, st in part.get("names", {}).items():
            acc = names.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += st[key]
        for name, val in part.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + val
    return names, counters


def per_layer(inputs, plain, traced):
    """The per-layer metrics and the names absent from the program.

    Layer times come from the traced pass and are scaled to the nominal
    host speed by that pass's own probes; the verdict medians come from
    the untraced pass.
    """
    traces = traced["traces"]
    names, counters = _merge(traces)
    setup_names, _ = _merge(traces, "setup")

    def calls(n, table=names):
        return table.get(n, {}).get("calls", 0)

    def incl(n, table=names):
        return table.get(n, {}).get("incl_s", 0.0)

    def self_of(prefix):
        return sum(st["self_s"] for n, st in names.items() if n.startswith(prefix))

    def ratio(a, b):
        return a / b if b else 0.0

    airy = ("airyfun.series", "airyfun.oscillatory", "airyfun.monotone")
    points = sum(calls(n) for n in airy)
    hits = counters.get("quadrature.gl_nodes_hits", 0)
    misses = counters.get("quadrature.gl_nodes_misses", 0)
    steps = counters.get("reduction.rk4_steps", 0)
    gft_points = counters.get("models.gft_points", 0) + calls("models.gft_point")
    loads = calls("models.load_model") + calls("models.load_model", setup_names)
    load_s = incl("models.load_model") + incl("models.load_model", setup_names)
    commands = [n for n in names if n.startswith("cli.cmd_")]
    n_commands = sum(calls(n) for n in commands)
    import_s = [s for tr in traces for s in tr.get("import_s", [])]

    groups = {}
    verdict_list = [v for rnd in inputs["rounds"] for v in rnd]
    for v, secs in zip(verdict_list, nominal_seconds(plain)):
        groups.setdefault(inp.verdict_kind(v), []).append(secs)

    def p50(group):
        return statistics.median(groups[group]) if group in groups else 0.0

    m = {
        "airyfun.points": (points, "count"),
        "airyfun.distinct_ratio": (ratio(counters.get("airyfun.distinct_args", 0),
                                         points), "ratio"),
        "airyfun.series_us_per_pt": (1e6 * ratio(incl(airy[0]), calls(airy[0])), "us"),
        "airyfun.oscillatory_us_per_pt": (1e6 * ratio(incl(airy[1]), calls(airy[1])),
                                          "us"),
        "quadrature.gl_nodes_calls": (calls("quadrature.gl_nodes"), "count"),
        "quadrature.gl_nodes_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "quadrature.self_s": (self_of("quadrature."), "s"),
        "expr.closure_calls": (calls("expr.closure"), "count"),
        "expr.closure_us_per_call": (1e6 * ratio(self_of("expr.closure"),
                                                 calls("expr.closure")), "us"),
        "expr.simplify_self_s": (self_of("expr.simplify"), "s"),
        "expr.compile_self_s": (self_of("expr.compile"), "s"),
        "diffop.self_s": (self_of("diffop."), "s"),
        "algebra.self_s": (self_of("algebra."), "s"),
        "bilinear.self_s": (self_of("bilinear."), "s"),
        "ratlinalg.self_s": (self_of("ratlinalg."), "s"),
        "reduction.rk4_steps": (steps, "count"),
        "reduction.rk4_steps_per_s": (ratio(steps, incl("reduction.solve_reduced")
                                            + incl("reduction.flow")), "1/s"),
        "reduction.fd_apply_calls": (calls("reduction.fd_apply"), "count"),
        "models.gft_us_per_out_pt": (1e6 * ratio(
            incl("models.inverse_gft_h3") + incl("models.inverse_gft_h3_evaluator")
            + incl("models.gft_point"), gft_points), "us"),
        "models.superposition_self_s": (self_of("models.mode_superposition_h3"), "s"),
        "models.smoke_s_per_pair": (ratio(incl("models.kernel_orthogonality_smoke"),
                                          counters.get("models.smoke_pairs", 0)), "s"),
        "models.load_model_s": (ratio(load_s, loads), "s"),
        "cli.import_s": (statistics.median(import_s) if import_s else 0.0, "s"),
        "cli.command_self_s": (ratio(self_of("cli.cmd_"), n_commands), "s"),
        "cli.output_bytes": (ratio(sum(t.get("output_bytes", 0) for t in traces),
                                   len(traces)) if inputs["workload"] == "cli"
                             else 0.0, "bytes"),
        "process.cpu_util": (ratio(plain["cpu_s"], plain["wall_s"]), "ratio"),
        "trace.overhead_ratio": (ratio(sum(nominal_seconds(traced)),
                                       sum(nominal_seconds(plain))), "ratio"),
    }
    # the traced pass's times at the nominal host speed, as the verdicts'
    speed = ratio(sum(nominal_seconds(traced)), sum(traced["seconds"]))
    for key, (val, unit) in m.items():
        if unit in ("s", "us"):
            m[key] = (val * speed, unit)
        elif unit == "1/s":
            m[key] = (ratio(val, speed), unit)
    for group in ("gft", "mode", "flow", "smoke", "command"):
        m[f"verdict.{group}_p50_s"] = (p50(group), "s")
    absent = sorted({a for tr in traces for a in tr.get("absent", [])})
    return m, absent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inp.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    try:
        inputs, out_dir, plain, traced = execute(
            args.workload, args.seed, args.seconds, root, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    def report(v, ok, rows):
        if not ok:
            bad = "; ".join(f"{lab}: {det}" for lab, good, det in rows if not good)
            print(f"FAILED {v['id']} {v['kind']}: {bad}", file=sys.stderr)

    attempted, failed, correct = check_outputs(inputs, out_dir, plain, traced,
                                               root, report)
    if args.trace:
        metrics, absent = per_layer(inputs, plain, traced)
        if absent:
            print(f"absent from the program: {', '.join(absent)}", file=sys.stderr)
    else:
        metrics = end_to_end(inputs, plain)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
