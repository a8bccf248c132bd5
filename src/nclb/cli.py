"""Command-line front end: machine-checkable reports over the library.

Subcommands map onto the verification pipeline: exact algebra checks from
JSON files, model-level verification, reduction, residuals, and the
Heisenberg reconstruction.  Output is a table by default and a ReportDoc
JSON document with --json; byte-identical output for fixed seed and inputs.

Exit codes: 0 all checks pass, 1 any failure (or inconclusive), 2 usage or
input errors.  Every library error (`report.NclbError`) ends in an error
document: an inconclusive computation or a failed strict verification with
1, anything else (bad input, an expression error) with 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from . import expr as ex
from .algebra import Subspace, index_witness, jacobi_defect, load_algebra
from .bilinear import coisotropy_check, load_form
from .expr import to_text
from .models import (BUILDERS, QuadSpec2D, casimir_scalar_check,
                     chart_samples, inverse_gft_h3_evaluator,
                     invariant_frame_check, load_model, mode_solution_h3,
                     pde_residual, pde_residual_field, validate_model)
from .reduction import (NotFirstOrderError, build_reduced, extract_first_order,
                        local_lift_check, rectify_check, verify_lambda_rep)
from .report import (DEFAULT_SEED, FAIL, INCONCLUSIVE, PASS, CheckRecord,
                     InconclusiveError, NclbError, VerificationError,
                     overall_status, worst)


class InputError(NclbError, ValueError):
    pass


def _seed_from(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("NCLB_SEED")
    if env is not None:
        try:
            return int(env, 0)
        except ValueError as exc:
            raise InputError(f"bad NCLB_SEED value {env!r}") from exc
    return DEFAULT_SEED


def _frac(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {text!r}") from exc


def _real(text):
    """A rational option as a float; one beyond the double range is an
    input error."""
    try:
        return float(_frac(text))
    except OverflowError as exc:
        raise InputError(f"beyond the double range: {text!r}") from exc


def _check_count(value, flag):
    """A count option below 1 is an input error."""
    if value < 1:
        raise InputError(f"{flag} must be >= 1, got {value}")


def _parse_grid(spec_text, names):
    """'x1=-1:1:5,x2=0:2:3' -> list of coordinate tuples (row-major); axes
    other than `names`, in that order, are an input error."""
    axes = []
    try:
        for part in spec_text.split(","):
            name, rng = part.split("=")
            lo, hi, count = rng.split(":")
            lo, hi, count = _real(lo), _real(hi), int(count)
            if count < 1:
                raise ValueError("count must be >= 1")
            if count == 1:
                axes.append((name.strip(), [0.5 * (lo + hi)]))
            else:
                step = (hi - lo) / (count - 1)
                axes.append((name.strip(), [lo + i * step for i in range(count)]))
    except ValueError as exc:
        raise InputError(f"bad grid spec {spec_text!r}: {exc}") from exc
    if [name for name, _ in axes] != list(names):
        raise InputError(f"grid axes must be {tuple(names)}")
    points = [()]
    for _, vals in axes:
        points = [p + (v,) for p in points for v in vals]
    return points


def _read_points(path, n):
    """{point: re + i im} from a CSV of n coordinate columns, re and im; a
    point given twice with different values is an input error."""
    table = {}
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for lineno, row in enumerate(reader, start=1):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                if lineno == 1 and not _is_float(row[0]):
                    continue  # header
                if len(row) != n + 2:
                    raise InputError(
                        f"{path}:{lineno}: expected {n + 2} columns, got {len(row)}")
                try:
                    *pt, re_, im_ = (float(v) for v in row)
                except ValueError as exc:
                    raise InputError(f"{path}:{lineno}: {exc}") from exc
                pt, val = tuple(pt), complex(re_, im_)
                if pt in table and table[pt] != val:
                    raise InputError(f"point {pt} is given twice with different values")
                table[pt] = val
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not table:
        raise InputError(f"{path}: no data rows")
    return table


def _is_float(text):
    try:
        float(text)
        return True
    except ValueError:
        return False


def _grid_interpolant(table):
    """Bilinear interpolant over a rectangular (k, J) grid of `_read_points`."""
    ks = sorted({k for k, _ in table})
    js = sorted({j for _, j in table})
    if len(ks) < 2 or len(js) < 2:
        raise InputError("spectral samples need at least 2 distinct k and 2 distinct J values")
    if len(table) != len(ks) * len(js):
        raise InputError("spectral samples do not form a full rectangular grid")
    ka = np.array(ks)
    ja = np.array(js)
    vals = np.array([[table[(k, j)] for j in js] for k in ks], dtype=complex)

    def phi(kq, jq):
        kq = np.asarray(kq, dtype=float)
        jq = np.asarray(jq, dtype=float)
        ik = np.clip(np.searchsorted(ka, kq) - 1, 0, len(ka) - 2)
        ij = np.clip(np.searchsorted(ja, jq) - 1, 0, len(ja) - 2)
        tk = np.clip((kq - ka[ik]) / (ka[ik + 1] - ka[ik]), 0.0, 1.0)
        tj = np.clip((jq - ja[ij]) / (ja[ij + 1] - ja[ij]), 0.0, 1.0)
        return ((1 - tk) * (1 - tj) * vals[ik, ij]
                + tk * (1 - tj) * vals[ik + 1, ij]
                + (1 - tk) * tj * vals[ik, ij + 1]
                + tk * tj * vals[ik + 1, ij + 1])

    box = ((ks[0], ks[-1]), (js[0], js[-1]))
    return phi, box


# --- subcommand implementations ----------------------------------------------

def _cmd_check_algebra(args, seed):
    L = load_algebra(args.file)
    bad = jacobi_defect(L)
    rec = CheckRecord(
        check="jacobi", status=PASS if not bad else FAIL,
        max_residual=0.0 if not bad else 1.0,
        detail={"dim": L.dim, "violations": [list(t) for t, _ in bad]},
    )
    return [rec], {"file": args.file}


def _cmd_index(args, seed):
    _check_count(args.trials, "--trials")
    L = load_algebra(args.file)
    idx, witness = index_witness(L, trials=args.trials, seed=seed)
    rec = CheckRecord(
        check="index", status=PASS, samples_used=args.trials, seed=seed,
        detail={"index": idx,
                "witness": [str(c) for c in witness.components]},
    )
    return [rec], {"file": args.file, "trials": args.trials}


def _cmd_coisotropic(args, seed):
    L = load_algebra(args.file)
    subs = {}
    if args.alpha is not None:
        subs["alpha"] = args.alpha
    if args.beta is not None:
        subs["beta"] = args.beta
    gm = load_form(args.form, substitutions=subs or None)
    try:
        indices = [int(t) for t in args.ideal.split(",")]
    except ValueError as exc:
        raise InputError(f"bad ideal spec {args.ideal!r}") from exc
    H = Subspace.spanned_by_indices(L.dim, indices)
    rep = coisotropy_check(L, gm, H)
    rec = CheckRecord(
        check="coisotropic", status=PASS if rep.verdict else FAIL,
        detail={
            "is_commutative_ideal": rep.is_commutative_ideal,
            "hperp_in_h": rep.hperp_in_h,
            "block_zero": rep.block_zero,
            "verdict": rep.verdict,
        },
    )
    return [rec], {"file": args.file, "form": args.form, "ideal": args.ideal}


def _aggregate(name, records):
    seeds = {r.seed for r in records if r.seed is not None}
    status = overall_status(records)
    return CheckRecord(
        check=name, status=status,
        max_residual=worst((r.max_residual or 0.0) for r in records),
        samples_used=sum(r.samples_used for r in records),
        seed=seeds.pop() if len(seeds) == 1 else None,
        skipped_samples=sum(r.skipped_samples for r in records),
        detail={"subchecks": [r.check for r in records if r.status != PASS]}
        if status != PASS else {},
    )


def _load_model_from_args(args):
    return load_model(args.model, alpha=_frac(args.alpha), beta=_frac(args.beta))


def _cmd_model_verify(args, seed):
    model = _load_model_from_args(args)
    structural = validate_model(model, seed=seed)
    records = []
    records.append(_aggregate("jacobi", structural[:1]))
    frame_recs = structural[1:] + invariant_frame_check(model, seed=seed)
    records.append(_aggregate("frames", frame_recs))
    records.append(_aggregate("lambda_rep", verify_lambda_rep(model, seed=seed)))
    lift_worst = worst([local_lift_check(model, i, seed=seed)
                        for i in range(1, model.dim + 1)])
    records.append(CheckRecord(
        check="lift", status=PASS if lift_worst <= 1e-12 else FAIL,
        max_residual=lift_worst, seed=seed,
    ))
    red = build_reduced(model, verify=False)
    try:
        extract_first_order(red, model.normalizer)
        records.append(CheckRecord(check="reduced_first_order", status=PASS,
                                   max_residual=0.0))
    except NotFirstOrderError as exc:
        records.append(CheckRecord(check="reduced_first_order", status=FAIL,
                                   detail={"error": str(exc)}))
    if model.name == "heisenberg":
        cas = casimir_scalar_check(model, element=3)
        ok = cas.acts_as_scalar and all(
            abs(v - 1j * jv) <= 1e-12 for jv, v in cas.values.items())
        records.append(CheckRecord(
            check="casimir", status=PASS if ok else FAIL,
            detail={"values": {str(k): [v.real, v.imag]
                               for k, v in cas.values.items()}},
        ))
    else:
        rep = coisotropy_check(model.algebra, model.form, model.ideal)
        records.append(CheckRecord(
            check="coisotropy", status=PASS if rep.verdict else FAIL,
            detail={"verdict": rep.verdict},
        ))
    params = {"model": args.model, "alpha": args.alpha, "beta": args.beta}
    return records, params


def _cmd_model_reduce(args, seed):
    j_val, e_val = _real(args.J), _real(args.E)
    model = _load_model_from_args(args)
    model.lrep.check_j(j_val)
    red = build_reduced(model, verify=True)
    red = extract_first_order(red, model.normalizer)
    fo = red.first_order
    detail = {
        "normalizer": to_text(fo.normalizer),
        "Z": [to_text(z) for z in fo.Z],
        "V": to_text(fo.V),
    }
    records = [CheckRecord(check="reduced_first_order", status=PASS,
                           max_residual=0.0, detail=detail)]
    v_expr, u_exprs = model.flow_box
    if u_exprs:
        samples = chart_samples(model, 100, seed=seed)
        rep = rectify_check(fo.Z, v_expr, u_exprs, samples,
                            params={"J": j_val, "E": e_val})
        dev = worst((rep.max_dev_v, rep.max_dev_u))
        records.append(CheckRecord(
            check="rectification",
            status=PASS if dev <= 1e-12 else FAIL,
            max_residual=dev,
            samples_used=rep.samples_used, seed=seed,
            skipped_samples=rep.skipped_samples,
            detail={"v": to_text(v_expr), "u": [to_text(u) for u in u_exprs]},
        ))
    params = {"model": args.model, "alpha": args.alpha, "beta": args.beta,
              "J": args.J, "E": args.E}
    return records, params


def _cmd_model_residual(args, seed):
    model = _load_model_from_args(args)
    if args.psi == "mode":
        if model.name != "heisenberg":
            raise InputError("mode residuals are defined for the heisenberg model")
        psi = mode_solution_h3(_frac(args.mu), _frac(args.nu), _frac(args.E))
        points = _parse_grid(args.grid, model.x_vars)
        rep = pde_residual(model, psi, _frac(args.E), points)
        # c08's gates; a stencil cross-check above its gate cannot tell
        # stencil truncation from a drift of the symbolic path
        if not rep.max_residual <= 1e-8:
            status = FAIL
        else:
            status = PASS if rep.fd_cross_deviation <= 1e-5 else INCONCLUSIVE
        rec = CheckRecord(
            check="pde_residual", status=status,
            max_residual=rep.max_residual, samples_used=rep.samples_used,
            skipped_samples=rep.skipped_samples,
            detail={"symbolic_zero": rep.symbolic_zero,
                    "fd_cross_deviation": rep.fd_cross_deviation},
        )
        params = {"model": args.model, "psi": "mode", "mu": args.mu,
                  "nu": args.nu, "E": args.E, "grid": args.grid}
        return [rec], params

    if args.file is None:
        raise InputError("--psi file needs --file")
    rec = _grid_field_residual(model, _read_points(args.file, model.dim), _real(args.E))
    params = {"model": args.model, "psi": "file", "file": args.file, "E": args.E}
    return [rec], params


def _grid_key(pt):
    return tuple(round(c, 9) for c in pt)


def _grid_field_residual(model, table, e_val):
    """FD residual of a sampled field given on a uniform rectangular grid."""
    axes = [sorted(set(ax)) for ax in zip(*table)]
    table = {_grid_key(pt): v for pt, v in table.items()}
    if len(table) != int(np.prod([len(a) for a in axes])):
        raise InputError("field samples do not form a full rectangular grid")
    steps = []
    for ax in axes:
        if len(ax) < 5:
            raise InputError("need at least 5 samples per axis for 4th-order stencils")
        diffs = {round(b - a, 12) for a, b in zip(ax, ax[1:])}
        if len(diffs) != 1:
            raise InputError("grid spacing must be uniform per axis")
        steps.append(diffs.pop())
    h = steps[0]
    if any(abs(s - h) > 1e-12 for s in steps):
        raise InputError("grid spacing must match across axes")

    def psi(pt):
        try:
            return table[_grid_key(pt)]
        except KeyError:
            raise ex.DomainError(f"point {pt} off the sampled grid") from None

    interior = [
        pt for pt in table
        if all(ax[2] - 1e-9 <= c <= ax[-3] + 1e-9 for c, ax in zip(pt, axes))
    ]
    try:
        rep = pde_residual_field(model, psi, e_val, interior, fd_step=h)
    except InconclusiveError as exc:
        return CheckRecord(check="pde_residual", status=INCONCLUSIVE,
                           detail={"reason": str(exc)})
    # a NaN or inf sample makes the figure NaN and the record a failure
    return CheckRecord(
        check="pde_residual",
        status=PASS if math.isfinite(rep.max_residual) else FAIL,
        max_residual=rep.max_residual, samples_used=rep.samples_used,
        skipped_samples=rep.skipped_samples,
        detail={"note": "status reports computation only; threshold is caller's"},
    )


def _cmd_model_reconstruct(args, seed):
    model = _load_model_from_args(args)
    if model.name != "heisenberg":
        raise InputError("reconstruction is implemented for the heisenberg model")
    phi, box = _grid_interpolant(_read_points(args.phi, 2))
    points = _parse_grid(args.grid, model.x_vars)
    e_val = _real(args.E)
    _check_count(args.nodes, "--nodes")
    evaluator = inverse_gft_h3_evaluator(phi, e_val, QuadSpec2D(box=box, n=args.nodes))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(model.x_vars) + ["re", "im"])
            for pt in points:
                v = evaluator(pt)
                writer.writerow([repr(c) for c in pt] + [repr(v.real), repr(v.imag)])
    rep = pde_residual_field(model, evaluator, e_val, points)
    rec = CheckRecord(
        check="reconstruction_residual",
        status=PASS if rep.max_residual <= 1e-3 else FAIL,
        max_residual=rep.max_residual, samples_used=rep.samples_used,
        skipped_samples=rep.skipped_samples,
    )
    params = {"model": args.model, "phi": args.phi, "E": args.E,
              "grid": args.grid, "nodes": args.nodes, "out": args.out}
    return [rec], params


# --- driver -------------------------------------------------------------------

def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit a JSON ReportDoc")
    common.add_argument("--seed", type=lambda s: int(s, 0),
                        default=argparse.SUPPRESS,
                        help="sampling seed (overrides NCLB_SEED; default 0xC0FFEE)")

    p = argparse.ArgumentParser(prog="nclb", description=__doc__)
    p.set_defaults(json=False, seed=None)
    sub = p.add_subparsers(dest="command", required=True)

    def leaf(parent, name, **kw):
        return parent.add_parser(name, parents=[common], **kw)

    sp = leaf(sub, "check-algebra", help="Jacobi identity of an algebra file")
    sp.add_argument("file")
    sp.set_defaults(fn=_cmd_check_algebra)

    sp = leaf(sub, "index", help="index of an algebra by random sampling")
    sp.add_argument("file")
    sp.add_argument("--trials", type=int, default=32)
    sp.set_defaults(fn=_cmd_index)

    sp = leaf(sub, "coisotropic", help="null-ideal criterion for (algebra, form, ideal)")
    sp.add_argument("file")
    sp.add_argument("--form", required=True)
    sp.add_argument("--ideal", required=True, help="comma list of basis indices")
    sp.add_argument("--alpha", default=None)
    sp.add_argument("--beta", default=None)
    sp.set_defaults(fn=_cmd_coisotropic)

    mp = sub.add_parser("model", help="bundled model pipelines")
    msub = mp.add_subparsers(dest="model_command", required=True)

    def add_model_args(s):
        s.add_argument("model", choices=list(BUILDERS))
        s.add_argument("--alpha", default="1")
        s.add_argument("--beta", default="1")

    sp = leaf(msub, "verify", help="structural + representation checks")
    add_model_args(sp)
    sp.set_defaults(fn=_cmd_model_verify)

    sp = leaf(msub, "reduce", help="assemble and split the reduced operator")
    add_model_args(sp)
    sp.add_argument("--J", default="1")
    sp.add_argument("--E", default="1")
    sp.set_defaults(fn=_cmd_model_reduce)

    sp = leaf(msub, "residual", help="PDE residual of a candidate solution")
    add_model_args(sp)
    sp.add_argument("--psi", choices=["mode", "file"], required=True)
    sp.add_argument("--mu", default="1/2")
    sp.add_argument("--nu", default="1")
    sp.add_argument("--E", default="1")
    sp.add_argument("--grid", default="x1=-1:1:5,x2=-1:1:5,x3=-1:1:5")
    sp.add_argument("--file", default=None)
    sp.set_defaults(fn=_cmd_model_residual)

    sp = leaf(msub, "reconstruct", help="inverse transform of a spectral amplitude")
    add_model_args(sp)
    sp.add_argument("--phi", required=True, help="CSV of k,J,re,im on a grid")
    sp.add_argument("--E", default="1")
    sp.add_argument("--grid", default="x1=-0.4:0.4:3,x2=-0.4:0.4:3,x3=-0.4:0.4:3")
    sp.add_argument("--nodes", type=int, default=64)
    sp.add_argument("--out", default=None, help="write the field as CSV")
    sp.set_defaults(fn=_cmd_model_reconstruct)
    return p


def run(argv):
    """Execute a command; returns (exit_code, report_doc)."""
    code, doc, _ = _run(argv)
    return code, doc


def _run(argv):
    """(exit_code, report_doc, whether the parsed flags ask for JSON)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (int(exc.code) if exc.code else 0), None, False
    seed = None
    try:
        seed = _seed_from(args)
        records, params = args.fn(args, seed)
    except (NclbError, OSError, json.JSONDecodeError) as exc:
        doc = {"tool_version": __version__, "command": " ".join(argv),
               "error": str(exc)}
        failed = isinstance(exc, (InconclusiveError, VerificationError))
        return (1 if failed else 2), doc, args.json
    overall = overall_status(records)
    doc = {
        "tool_version": __version__,
        "command": " ".join(argv),
        "seed": seed,
        "parameters": params,
        "checks": [r.to_dict() for r in records],
        "overall": overall,
    }
    return (0 if overall == PASS else 1), doc, args.json


def _print_human(doc, stream):
    if "error" in doc:
        print(f"error: {doc['error']}", file=stream)
        return
    width = max((len(c["check"]) for c in doc["checks"]), default=10)
    for c in doc["checks"]:
        resid = c.get("max_residual")
        resid_txt = f"  max_residual={resid:.3e}" if resid is not None else ""
        print(f"{c['check']:<{width}}  {c['status']:<12}{resid_txt}", file=stream)
        for key, val in (c.get("detail") or {}).items():
            print(f"{'':<{width}}    {key}: {val}", file=stream)
    print(f"overall: {doc['overall']}", file=stream)


def _finite_json(obj):
    """obj with each non-finite float written as the string "nan", "inf" or
    "-inf", which strict JSON parsers accept."""
    if isinstance(obj, dict):
        return {k: _finite_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(v) for v in obj]
    return str(float(obj)) if isinstance(obj, float) and not math.isfinite(obj) else obj


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    code, doc, as_json = _run(argv)
    if doc is None:
        return code
    try:
        if as_json:
            print(json.dumps(_finite_json(doc), sort_keys=True, indent=2,
                             allow_nan=False))
        else:
            _print_human(doc, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: the flush at interpreter exit goes to devnull
        # so that it cannot raise again, and the command's code stands
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
