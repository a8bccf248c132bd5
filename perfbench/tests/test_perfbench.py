"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest perfbench/tests -q

They check that inputs are a pure function of the seed, that seeds move
values but not work, that tracing leaves every output unchanged, and that
the references reproduce known values and catch a wrong one.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import compare
import inputs as inp
import reference as ref
import run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SERIES_CUT = 8.25


def shape_of(obj):
    """The work a verdict list asks for: its structure with drawn values masked."""
    if isinstance(obj, dict):
        return {k: shape_of(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [shape_of(x) for x in obj]
    if isinstance(obj, float):
        return "float"
    if isinstance(obj, str):
        try:
            Fraction(obj)
            return "rational"
        except ValueError:
            return obj
    return obj


def airy_regimes(v):
    """(series, oscillatory, monotone) counts of a verdict's Airy arguments,
    over its grid and the x1 shifts of its stencils."""
    if v["kind"] == "gft":
        k, _ = ref.gauss_legendre(v["n"], *v["box"][0])
        j, _ = ref.gauss_legendre(v["n"], *v["box"][1])
        kg, jg = np.meshgrid(k, j, indexing="ij")
        two_j2 = 2 * jg * jg
        x1s = {p[0] + s * v["fd_step"] for p in v["grid"] for s in (-2, -1, 0, 1, 2)}
        args = np.concatenate([((two_j2 * x1 + 2 * kg * jg + float(Fraction(v["E"])))
                                / two_j2 ** (2 / 3)).ravel() for x1 in x1s])
    else:
        mu, nu, energy = (float(Fraction(v[key])) for key in ("mu", "nu", "E"))
        x1s = {p[0] + s * 0.02 for p in v["grid"] for s in (-2, -1, 0, 1, 2)}
        args = ref.mode_argument(mu, nu, energy, sorted(x1s))
    series = int(np.sum(np.abs(args) <= SERIES_CUT))
    osc = int(np.sum(args < -SERIES_CUT))
    return series, osc, args.size - series - osc


@pytest.mark.parametrize("workload", inp.WORKLOADS)
def test_one_seed_always_gives_the_same_inputs(workload):
    first = json.dumps(inp.make_inputs(workload, 7, 25))
    assert json.dumps(inp.make_inputs(workload, 7, 25)) == first
    assert json.dumps(inp.make_inputs(workload, 8, 25)) != first


@pytest.mark.parametrize("workload", inp.WORKLOADS)
def test_seeds_move_values_not_work(workload):
    a, b = (inp.make_inputs(workload, s, 25) for s in (3, 4))
    assert shape_of(a["rounds"]) == shape_of(b["rounds"])
    assert len(a["rounds"]) == inp.rounds_for(workload, 25)
    for ra, rb in zip(a["rounds"], b["rounds"]):
        for va, vb in zip(ra, rb):
            if va["kind"] == "gft" or va["kind"].startswith("mode_"):
                assert airy_regimes(va) == airy_regimes(vb)
            if va["kind"] == "flow_h3":
                steps = [round(abs(t) / va["step"]) for t in va["targets"]]
                assert steps == [round(abs(t) / vb["step"]) for t in vb["targets"]]


def test_airy_bands_are_what_the_workload_says():
    rnd = inp.make_inputs("reconstruct", 5, 25)["rounds"][0]
    regimes = {v["kind"]: airy_regimes(v) for v in rnd}
    assert regimes["gft"][1:] == (0, 0)
    assert regimes["mode_series"][1:] == (0, 0)
    assert regimes["mode_moderate"][0] == regimes["mode_moderate"][2] == 0
    deep = [v for v in rnd if v["kind"] == "mode_deep"]
    z = ref.mode_argument(0.5, 1.0, float(Fraction(deep[0]["E"])),
                          [p[0] for p in deep[0]["grid"]])
    assert np.all(z <= -200)


def test_deep_band_inputs_ignore_the_seed():
    deep = [[v for r in inp.make_inputs("reconstruct", s, 25)["rounds"] for v in r
             if v["kind"] == "mode_deep"] for s in (1, 2)]
    assert deep[0] == deep[1]
    assert len({v["E"] for v in deep[0]}) == len(deep[0])


def test_references_reproduce_known_values():
    assert abs(ref.ai(0.0) - 0.35502805388781723926) <= 1e-15
    assert abs(ref.ai_mpmath(-220.5) - ref.ai(-220.5)) <= 1e-12
    assert ref.mode_solves_laplacian()
    assert ref.jacobi_holds(os.path.join(ROOT, "fixtures", "h3.json"))
    assert ref.algebra_index(os.path.join(ROOT, "fixtures", "h3.json")) == 1
    assert ref.algebra_index(os.path.join(ROOT, "fixtures", "g47.json")) == 0


def test_references_reproduce_the_c10_field():
    from nclb.models import QuadSpec2D, inverse_gft_h3_evaluator

    def phi(k, j):
        return np.exp(-(k ** 2 + (j - 1.0) ** 2) / (2.0 * 0.2 ** 2))

    box = ((-1.0, 1.0), (0.2, 1.8))
    pts = [(-0.4, 0.0, 0.4), (-0.4, 0.4, -0.4), (-0.4, -0.4, 0.0)]
    ev = inverse_gft_h3_evaluator(phi, 1.0, QuadSpec2D(box=box, n=32))
    got = np.array([ev(p) for p in pts])
    want = ref.inverse_gft(phi, 1.0, box, 32, pts)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_a_wrong_value_is_caught():
    v = inp.make_inputs("reconstruct", 5, 25)["rounds"][0][2]
    assert v["kind"] == "mode_series"
    z = ref.mode_values(*(float(Fraction(v[k])) for k in ("mu", "nu", "E")), v["grid"])
    out = {"status": "pass", "values": [[c.real, c.imag] for c in z]}
    assert compare.compare(v, out, None)[0]
    out["values"][4][0] *= 1 + 1e-7
    assert not compare.compare(v, out, None)[0]


def test_a_command_that_wrote_no_field_fails():
    v = next(v for v in inp.make_inputs("cli", 5, 25)["rounds"][0]
             if v["kind"] == "reconstruct")
    ok, rows = compare.compare(v, {"rc": 2, "stdout": "", "out_csv": ""}, None)
    assert not ok
    assert [label for label, good, _ in rows if not good] == [
        "exit code", "--out file written"]


def test_names_the_program_lacks_are_reported_absent():
    code = ("import nclb.cli, tracer\n"
            "tracer.WHOLE_MODULES += ('nclb.gone',)\n"
            "tracer.PLAIN.append(('nclb.models', 'gone', 'models.gone'))\n"
            "t = tracer.Tracer()\nt.install()\nprint(sorted(set(t.absent)))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=run.pinned_env(ROOT),
                          cwd=os.path.join(ROOT, "perfbench"), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['models.gone', 'nclb.gone']"


@pytest.fixture(scope="module")
def traced_runs():
    """Two seeds of one reconstruct round, each untraced and traced."""
    return {seed: run.execute("reconstruct", seed, 1, ROOT, True)
            for seed in (901, 902)}


def test_tracing_leaves_outputs_unchanged(traced_runs):
    for inputs, out_dir, plain, traced in traced_runs.values():
        assert plain["outputs"] == traced["outputs"]


def test_seeds_give_the_same_program_work_and_failures(traced_runs):
    def counts(result):
        inputs, out_dir, plain, traced = result
        names = traced["traces"][0]["names"]
        airy = {n: names[n]["calls"] for n in names if n.startswith("airyfun.")}
        failed = run.check_outputs(inputs, out_dir, plain, None, ROOT)[1]
        return airy, failed

    a, b = (counts(r) for r in traced_runs.values())
    assert a == b
    assert a[1] == 2          # the two deep-band modes of the round


def test_rk4_steps_do_not_depend_on_the_seed():
    steps = []
    for seed in (903, 904):
        inputs, out_dir, plain, _ = run.execute("reduced", seed, 1, ROOT, False)
        steps.append({v["kind"]: plain["outputs"][v["id"]].get("steps")
                      for v in inputs["rounds"][0]})
        assert run.check_outputs(inputs, out_dir, plain, None, ROOT)[1] == 0
    assert steps[0] == steps[1]
    assert steps[0]["flow_h3"] == sum(95 * (i + 1) for i in range(inp.FLOW_H3_TARGETS))
