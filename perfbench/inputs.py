"""Seeded verdict lists for the three benchmark workloads.

Stdlib only: the harness imports this without the program under test.

A run is a fixed list of verdicts: ``rounds_for(workload, seconds)`` whole
rounds of the same template.  Seeds move values, never work: node counts,
grid shapes, target counts, RK4 step counts and the Airy regime of every
argument are fixed by the template, and each drawn value stays inside a band
narrow enough that its cost barely moves.  Every verdict draws fresh values,
so the program's caches never carry one verdict's work into the next.

The deep-band Airy modes (arguments near -220) are the one exception to
seeded draws: the program returns wrong values there on every input, so
their inputs depend only on their position in the list, never on the seed,
and they fail the same way in every run.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("reconstruct", "reduced", "cli")

# Measured wall time of one round on a 2-core x86 host; it turns the run
# length into a round count once, so the same --seconds always means the
# same work, however fast the machine is.
NOMINAL_ROUND_S = {"reconstruct": 1.5, "reduced": 5.3, "cli": 3.9}

# models whose validated load each workload's set-up pays
SETUP_MODELS = {
    "reconstruct": ("heisenberg",),
    "reduced": ("heisenberg", "g4_7"),
    "cli": ("heisenberg", "g4_7"),
}

# -- fixed shapes ------------------------------------------------------------

GFT_NODES = 16            # Gauss-Legendre nodes per axis
GFT_FD_STEP = 0.05
GFT_HALF_BOX = (1.0, 0.6)   # half-widths of the (k, J) support box
MODE_X1 = 9               # distinct x1 values on a mode grid
MODE_BANDS = ("series", "moderate", "deep")
FLOW_H3_TARGETS = 21
FLOW_H3_STEP = 1e-3
FLOW_G47_SAMPLES = 2
FLOW_G47_STEPS = 700      # RK4 steps per characteristic, whatever its length
FLOW_G47_FD_STEP = 2e-3
CLI_NODES = 10

# verdict kinds of one round, in order
TEMPLATES = {
    "reconstruct": (["gft"] * 2
                    + [f"mode_{band}" for band in MODE_BANDS for _ in range(2)]),
    "reduced": ["flow_h3", "flow_g47", "smoke_g47", "flow_h3", "flow_g47",
                "smoke_h3"],
    "cli": ["check_algebra", "index", "coisotropic_h3", "coisotropic_g47",
            "verify", "reduce", "residual_mode", "residual_file",
            "reconstruct"],
}


def rounds_for(workload, seconds):
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def _rational(rng, lo, hi, den=1000):
    """A drawn rational in [lo, hi] with a fixed denominator, as "p/q"."""
    return str(Fraction(round(rng.uniform(lo, hi) * den), den))


def _gft(rng):
    k0 = rng.uniform(-0.1, 0.1)
    j0 = rng.uniform(0.95, 1.05)
    hk, hj = GFT_HALF_BOX
    off = [rng.uniform(-0.02, 0.02) for _ in range(3)]
    grid = [(off[0] + 0.4 * a, off[1] + 0.4 * b, off[2] + 0.4 * c)
            for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1)]
    return {
        "phi": {"k0": k0, "j0": j0, "sigma": rng.uniform(0.22, 0.26)},
        "E": _rational(rng, 0.9, 1.1),
        "box": [[k0 - hk, k0 + hk], [j0 - hj, j0 + hj]],
        "n": GFT_NODES,
        "grid": grid,
        "sup_points": grid[:3],
        "fd_step": GFT_FD_STEP,
    }


def _mode_grid(x1_offset):
    x1s = [x1_offset - 1.0 + 0.25 * i for i in range(MODE_X1)]
    return [(a, b, c) for a in x1s for b in (-0.5, 0.5) for c in (-0.5, 0.5)]


def _mode(rng, band, position):
    """Airy-mode parameters whose arguments stay inside one band.

    The argument is (2 nu^2 x1 + 2 mu nu + E) / (2 nu^2)^(2/3); over the
    grid's x1 in [-1.1, 1.1] it spans a few units around the band's centre.
    """
    if band == "deep":
        # seed-free: the position in the list alone picks a distinct energy
        mu, nu = "1/2", "1"
        energy = str(Fraction(-350000 - 7 * position, 1000))
        x1_offset = 0.0
    else:
        mu = _rational(rng, 0.3, 0.7)
        nu_f = rng.uniform(0.9, 1.1) if band == "series" else rng.uniform(0.95, 1.05)
        nu = str(Fraction(round(nu_f * 1000), 1000))
        if band == "series":
            energy = _rational(rng, 0.5, 1.5)
        else:
            scale = float(2 * Fraction(nu) ** 2) ** (2.0 / 3.0)
            centre = -30.0 * scale - 2.0 * float(Fraction(mu) * Fraction(nu))
            energy = _rational(rng, centre - 1.0, centre + 1.0)
        x1_offset = rng.uniform(-0.05, 0.05)
    return {"band": band, "mu": mu, "nu": nu, "E": energy,
            "grid": _mode_grid(x1_offset)}


def _flow_h3(rng, slot):
    # |q| = (m + delta) * step keeps round(|q| / step) = m for any delta
    targets = []
    for i in range(FLOW_H3_TARGETS):
        m = 95 * (i + 1)
        sign = rng.choice((-1.0, 1.0))
        targets.append(sign * (m + rng.uniform(-0.4, 0.4)) * FLOW_H3_STEP)
    return {"J": 1.0 if slot % 2 == 0 else -1.0,
            "E": rng.uniform(0.5, 1.5), "targets": targets,
            "step": FLOW_H3_STEP}


def _flow_g47(rng):
    samples = [(rng.uniform(1.2, 2.2), rng.uniform(0.5, 0.9))
               for _ in range(FLOW_G47_SAMPLES)]
    return {"J": 1.0, "E": rng.uniform(0.5, 1.5), "v_ref": -1.0,
            "samples": samples, "steps": FLOW_G47_STEPS,
            "fd_step": FLOW_G47_FD_STEP}


def _gaussian(rng, centers, width):
    return {"centers": [c + rng.uniform(-0.05, 0.05) for c in centers],
            "width": width + rng.uniform(-0.02, 0.02)}


def _smoke(rng, model):
    if model == "heisenberg":
        a = _gaussian(rng, (0.1, -0.2), 0.5)
        b = _gaussian(rng, (-0.1, 0.15), 0.45)
        spec = None
    else:
        a = _gaussian(rng, (1.2, 0.1, 1.0, 0.0), 0.3)
        b = _gaussian(rng, (1.1, 0.05, 1.05, -0.05), 0.28)
        spec = {"n_outer": 72, "n_inner": 48}
    return {"model": model, "a": a, "b": b, "J": 1, "spec": spec}


def _cli(rng, kind, slot_id):
    seed = str(rng.randrange(1, 2 ** 31))
    if kind == "residual_mode":
        return {"mu": _rational(rng, 0.3, 0.7), "nu": _rational(rng, 0.9, 1.1),
                "E": _rational(rng, 0.5, 1.5), "seed": seed}
    if kind == "residual_file":
        return {"mu": rng.uniform(0.3, 0.7), "nu": rng.uniform(0.9, 1.1),
                "E": _rational(rng, 0.5, 1.5),
                # a decimal grid, as the CLI keys points by 9-digit rounding
                "origin": [round(rng.uniform(-0.05, 0.05), 3) for _ in range(3)],
                "h": 0.1, "shape": [7, 7, 5],
                "csv": f"{slot_id}.field.csv", "seed": seed}
    if kind == "reconstruct":
        k0 = rng.uniform(-0.1, 0.1)
        j0 = rng.uniform(0.95, 1.05)
        return {"phi": {"k0": k0, "j0": j0, "sigma": rng.uniform(0.22, 0.26)},
                "k_axis": [k0 - 1.0, k0 + 1.0, 21],
                "j_axis": [j0 - 0.6, j0 + 0.6, 13],
                "E": _rational(rng, 0.9, 1.1), "nodes": CLI_NODES,
                "csv": f"{slot_id}.phi.csv", "out": f"{slot_id}.out.csv",
                "seed": seed}
    if kind == "reduce":
        return {"J": "1" if rng.random() < 0.5 else "-1",
                "E": _rational(rng, 0.5, 1.5), "seed": seed}
    return {"seed": seed}


def _verdict(kind, rng, slot, slot_id, position):
    if kind == "gft":
        return _gft(rng)
    if kind.startswith("mode_"):
        return _mode(rng, kind[5:], position)
    if kind == "flow_h3":
        return _flow_h3(rng, slot)
    if kind == "flow_g47":
        return _flow_g47(rng)
    if kind.startswith("smoke_"):
        return _smoke(rng, "heisenberg" if kind == "smoke_h3" else "g4_7")
    return _cli(rng, kind, slot_id)


def _round(workload, seed, index):
    """Round `index` of the run; index -1 is the warm-up round."""
    label = "warmup" if index < 0 else f"r{index}"
    template = TEMPLATES[workload]
    out = []
    for slot, kind in enumerate(template):
        slot_id = f"{label}.{slot}"
        rng = random.Random(f"{workload}:{seed}:{slot_id}")
        position = (index + 1) * len(template) + slot
        params = _verdict(kind, rng, slot, slot_id, position)
        out.append({"id": slot_id, "kind": kind, **params})
    return out


def make_inputs(workload, seed, seconds):
    """The run's verdicts: an untimed warm-up round and the timed rounds."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    return {
        "workload": workload,
        "seed": seed,
        "warmup": _round(workload, seed, -1),
        "rounds": [_round(workload, seed, i)
                   for i in range(rounds_for(workload, seconds))],
    }


def verdict_kind(verdict):
    """Per-kind latency group: gft, mode, flow, smoke or command."""
    kind = verdict["kind"]
    for group in ("gft", "mode", "flow", "smoke"):
        if kind.startswith(group):
            return group
    return "command"
