import json
import math
import os
import shlex
from fractions import Fraction

import numpy as np
import pytest

from nclb import cli, models, reduction
from nclb.cli import main, run
from nclb.reduction import NotFirstOrderError
from nclb.report import CheckRecord, VerificationError, replace

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def _write_mode_field(path):
    """The H3 mode (mu, nu, E) = (1/2, 1, 1) on a 9^3 grid of step 0.05."""
    from nclb.expr import compile_expr
    from nclb.models import mode_solution_h3
    f = compile_expr(mode_solution_h3(Fraction(1, 2), Fraction(1), Fraction(1)),
                     ["x1", "x2", "x3"])
    h = 0.05
    lines = ["x1,x2,x3,re,im"]
    rng = range(-4, 5)
    for i in rng:
        for j in rng:
            for k in rng:
                v = f(i * h, j * h, k * h)
                lines.append(f"{i * h},{j * h},{k * h},{v.real},{v.imag}")
    path.write_text("\n".join(lines))


def _write_gaussian_phi(path):
    """A Gaussian spectral amplitude about (k, J) = (0, 1) on a 21^2 grid."""
    lines = ["k,J,re,im"]
    for k in np.linspace(-1.0, 1.0, 21):
        for j in np.linspace(0.2, 1.8, 21):
            v = math.exp(-((k) ** 2 + (j - 1.0) ** 2) / (2 * 0.2 ** 2))
            lines.append(f"{k},{j},{v},0.0")
    path.write_text("\n".join(lines))


def _field_csv(x1s, x2s=None, drop=0):
    """A constant field on the grid x1s x x2s x x1s, less its last `drop`
    points."""
    pts = [(a, b, c) for a in x1s for b in (x2s or x1s) for c in x1s]
    return "\n".join(f"{a},{b},{c},1,0" for a, b, c in pts[:len(pts) - drop])


class TestExitCodes:
    def test_check_algebra_pass(self):
        code, doc = run(["check-algebra", fx("h3.json")])
        assert code == 0
        assert doc["overall"] == "pass"

    def test_check_algebra_missing_file(self):
        code, doc = run(["check-algebra", "no/such/file.json"])
        assert code == 2
        assert "error" in doc

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, doc = run(["check-algebra", str(p)])
        assert code == 2

    def test_bad_bracket_data(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"dim": 2, "basis": ["a", "b"],
                                 "brackets": [{"i": 1, "j": 2, "c": {"9": "1"}}]}))
        code, doc = run(["check-algebra", str(p)])
        assert code == 2

    def test_failing_check_exits_one(self, tmp_path):
        p = tmp_path / "nonjacobi.json"
        p.write_text(json.dumps({
            "dim": 3, "basis": ["e1", "e2", "e3"],
            "brackets": [{"i": 1, "j": 2, "c": {"3": "1"}},
                         {"i": 1, "j": 3, "c": {"1": "1"}}],
        }))
        code, doc = run(["check-algebra", str(p)])
        assert code == 1
        assert doc["overall"] == "fail"

    def test_unknown_subcommand_usage_error(self, capsys):
        code, doc = run(["frobnicate"])
        assert code == 2

    def test_unknown_flag_usage_error(self):
        code, doc = run(["index", fx("h3.json"), "--bogus"])
        assert code == 2


_VERIFY_USAGE = """\
usage: nclb model verify [-h] [--json] [--seed SEED] [--alpha ALPHA]
                         [--beta BETA]
                         {heisenberg,g4_7}
"""

_VERIFY_HELP = _VERIFY_USAGE + """
positional arguments:
  {heisenberg,g4_7}

options:
  -h, --help         show this help message and exit
  --json             emit a JSON ReportDoc
  --seed SEED        sampling seed (overrides NCLB_SEED; default 0xC0FFEE)
  --alpha ALPHA
  --beta BETA
"""


class TestUsageText:
    # the model choices come from models.BUILDERS; the text is pinned whole
    @pytest.fixture(autouse=True)
    def _columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def test_model_verify_help(self, capsys):
        assert main(["model", "verify", "--help"]) == 0
        assert capsys.readouterr() == (_VERIFY_HELP, "")

    def test_invalid_model_choice(self, capsys):
        assert main(["model", "verify", "nope"]) == 2
        assert capsys.readouterr() == ("", _VERIFY_USAGE + (
            "nclb model verify: error: argument model: invalid choice: 'nope' "
            "(choose from 'heisenberg', 'g4_7')\n"))


class TestIndexCommand:
    def test_h3(self):
        code, doc = run(["index", fx("h3.json")])
        assert code == 0
        assert doc["checks"][0]["detail"]["index"] == 1

    def test_g47(self):
        code, doc = run(["index", fx("g47.json")])
        assert code == 0
        assert doc["checks"][0]["detail"]["index"] == 0

    def test_abelian(self):
        code, doc = run(["index", fx("abelian3.json"), "--trials", "8"])
        assert doc["checks"][0]["detail"]["index"] == 3


class TestCoisotropicCommand:
    def test_h3_null_center(self):
        code, doc = run(["coisotropic", fx("h3.json"),
                         "--form", fx("h3_null_center.json"), "--ideal", "1,3"])
        assert code == 0
        assert doc["checks"][0]["detail"]["verdict"] is True

    def test_g47_with_parameters(self):
        code, doc = run(["coisotropic", fx("g47.json"),
                         "--form", fx("g47_g1.json"), "--ideal", "1,2",
                         "--alpha", "1", "--beta", "1"])
        assert code == 0

    def test_unsubstituted_parameter_is_input_error(self):
        code, doc = run(["coisotropic", fx("g47.json"),
                         "--form", fx("g47_g1.json"), "--ideal", "1,2"])
        assert code == 2

    @pytest.mark.parametrize("ideal, form, error", [
        # 0 and -1 used to reach e3 and e2 by negative indexing (exit 1),
        # the others ended in a traceback
        ("0", ["h3_null_center.json"], "basis index 0 outside 1..3"),
        ("-1", ["h3_null_center.json"], "basis index -1 outside 1..3"),
        ("1,5", ["h3_null_center.json"], "basis index 5 outside 1..3"),
        ("3,3", ["h3_null_center.json"], "repeated basis index 3"),
        ("1,3", ["g47_g1.json", "--alpha", "1", "--beta", "1"],
         "form has dimension 4, the algebra 3"),
    ])
    def test_bad_ideal_or_form_is_an_input_error(self, ideal, form, error, capsys):
        argv = ["coisotropic", fx("h3.json"), "--form", fx(form[0]),
                "--ideal", ideal] + form[1:]
        code, doc = run(argv)
        assert code == 2
        assert doc["error"] == error
        assert main(argv) == 2
        assert capsys.readouterr().out == f"error: {error}\n"

    def test_non_coisotropic_pair_fails(self, tmp_path):
        p = tmp_path / "euclid.json"
        p.write_text(json.dumps({"matrix": [["1", "0", "0"],
                                            ["0", "1", "0"],
                                            ["0", "0", "1"]]}))
        code, doc = run(["coisotropic", fx("h3.json"), "--form", str(p),
                         "--ideal", "1,3"])
        assert code == 1


class TestModelCommands:
    def test_verify_heisenberg_check_names(self):
        code, doc = run(["model", "verify", "heisenberg"])
        assert code == 0
        names = [c["check"] for c in doc["checks"]]
        assert names == ["jacobi", "frames", "lambda_rep", "lift",
                         "reduced_first_order", "haar_invariance",
                         "coordinate_expansion", "casimir"]

    def test_verify_g47(self):
        code, doc = run(["model", "verify", "g4_7"])
        assert code == 0
        names = [c["check"] for c in doc["checks"]]
        assert names[-1] == "coisotropy"

    def test_reduce_g47_prints_split(self):
        code, doc = run(["model", "reduce", "g4_7", "--J", "1", "--E", "1"])
        assert code == 0
        detail = doc["checks"][0]["detail"]
        assert detail["Z"] == ["q1 + (-1)*q2", "(-1)*q1"]
        assert "log(q2)" in detail["V"]

    @pytest.mark.parametrize("flags", [
        ["g4_7", "--E", "1e400"], ["g4_7", "--J", "abc"], ["g4_7", "--J", "0"],
        ["g4_7", "--J", "1/2"], ["g4_7", "--J", "-1/2"], ["heisenberg", "--J", "0"],
        ["heisenberg", "--J", "1e400"]])
    def test_reduce_bad_number_is_an_error_document(self, flags, capsys):
        # numbers beyond the double range, one that does not parse, a J
        # that is no orbit label of g4_7 (+-1), and J = 0, off the punctured
        # line of heisenberg labels: exit 2, no traceback
        code, doc = run(["model", "reduce"] + flags)
        assert code == 2
        assert set(doc) == {"tool_version", "command", "error"}
        assert main(["model", "reduce"] + flags) == 2
        assert capsys.readouterr().out.startswith("error: ")

    @pytest.mark.parametrize("model, j", [("g4_7", "-2/2"), ("heisenberg", "1/2")])
    def test_reduce_takes_a_rational_j(self, model, j):
        code, doc = run(["model", "reduce", model, f"--J={j}"])
        assert code == 0
        assert doc["parameters"]["J"] == j

    @pytest.mark.parametrize("value", ["-1/2", "-1e-3"])
    @pytest.mark.parametrize("argv", [
        ["model", "reduce", "g4_7", "--alpha"],
        ["model", "reduce", "g4_7", "--alpha", "3", "--beta"],
        ["model", "residual", "heisenberg", "--psi", "mode", "--mu"],
        ["model", "residual", "heisenberg", "--psi", "mode", "--nu"],
        ["model", "reduce", "heisenberg", "--J"],
        ["model", "reduce", "heisenberg", "--E"],
    ], ids=" ".join)
    def test_negative_rational_after_its_option(self, argv, value):
        # argparse takes a dash-led token for a flag unless it reads as -1 or
        # -0.5; the command must see the value as `--option=value` does
        code, doc = run(argv + [value])
        want_code, want = run(argv[:-1] + [f"{argv[-1]}={value}"])
        assert doc is not None
        assert code == want_code
        assert {**doc, "command": ""} == {**want, "command": ""}

    def test_residual_mode(self):
        code, doc = run(["model", "residual", "heisenberg", "--psi", "mode",
                         "--mu", "1/2", "--nu", "1", "--E", "1",
                         "--grid", "x1=-1:1:3,x2=-1:1:3,x3=-1:1:3"])
        assert code == 0
        assert doc["checks"][0]["detail"]["symbolic_zero"] is True

    def test_residual_mode_deep_oscillatory(self):
        import scipy.special

        from nclb.expr import compile_expr
        from nclb.models import mode_solution_h3

        code, doc = run(["model", "residual", "heisenberg", "--psi", "mode",
                         "--E", "-1000"])
        # the residual is exact, but at the fixed stencil step the
        # cross-check deviates by ~1.7e-3, above c08's 1e-5: no verdict
        assert code == 1
        check = doc["checks"][0]
        assert check["status"] == "inconclusive"
        assert check["max_residual"] <= 1e-8
        assert 1e-5 < check["detail"]["fd_cross_deviation"] < 1e-2
        # the mode's Airy arguments are near -629; its values against scipy
        f = compile_expr(mode_solution_h3(Fraction(1, 2), 1, -1000), ["x1", "x2", "x3"])
        for x1 in np.linspace(-1.0, 1.0, 5):
            z = (2.0 * x1 + 1.0 - 1000.0) / 2.0 ** (2.0 / 3.0)
            ai, _, bi, _ = scipy.special.airy(z)
            got = f(x1, 0.5, -0.5)
            want = ai * np.exp(1j * (0.5 * 0.5 - 0.5))
            assert abs(got - want) <= 1e-10 * math.hypot(ai, bi)

    def test_residual_below_airy_cut_is_an_error_document(self, capsys):
        # every Airy argument is near -6.3e8, below LEFT_CUT: each sample is
        # a DomainError and the check cannot reach a verdict
        argv = ["model", "residual", "heisenberg", "--psi", "mode",
                "--E", "-1000000000"]
        code, doc = run(argv)
        assert code == 1
        assert "checks" not in doc and "samples" in doc["error"]
        assert main(argv + ["--json"]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == doc["error"]

    def test_expression_error_exits_two(self, capsys):
        # E = 10^400 does not fit a double: the mode cannot be compiled
        code, doc = run(["model", "residual", "heisenberg", "--psi", "mode",
                         "--E", "1e400"])
        assert code == 2
        assert "double range" in doc["error"]

    def test_residual_bad_grid(self):
        code, doc = run(["model", "residual", "heisenberg", "--psi", "mode",
                         "--grid", "y=0:1:oops"])
        assert code == 2

    def test_bad_model_parameters(self):
        code, doc = run(["model", "verify", "g4_7", "--alpha", "0", "--beta", "0"])
        assert code == 2

    def test_residual_field_csv(self, h3, tmp_path):
        # sample the closed-form mode on a uniform grid and feed it back
        p = tmp_path / "field.csv"
        _write_mode_field(p)
        code, doc = run(["model", "residual", "heisenberg", "--psi", "file",
                         "--file", str(p), "--E", "1"])
        assert code == 0
        assert doc["checks"][0]["max_residual"] <= 1e-4

    def test_residual_field_csv_nan_fails(self, tmp_path):
        # a 5x5x5 grid has one interior point; a NaN there must not pass
        from nclb.expr import compile_expr
        from nclb.models import mode_solution_h3
        f = compile_expr(mode_solution_h3(Fraction(1, 2), 1, 1), ["x1", "x2", "x3"])
        h = 0.05
        lines = ["x1,x2,x3,re,im"]
        for i in range(-2, 3):
            for j in range(-2, 3):
                for k in range(-2, 3):
                    v = f(i * h, j * h, k * h)
                    re = "nan" if (i, j, k) == (0, 0, 0) else repr(v.real)
                    lines.append(f"{i * h},{j * h},{k * h},{re},{v.imag}")
        p = tmp_path / "field.csv"
        p.write_text("\n".join(lines))
        code, doc = run(["model", "residual", "heisenberg", "--psi", "file",
                         "--file", str(p), "--E", "1"])
        check = doc["checks"][0]
        assert not (check["status"] == "pass"
                    and math.isfinite(check["max_residual"]))
        assert check["status"] == "fail"
        assert code == 1

    def test_residual_zero_field_csv_is_inconclusive(self, tmp_path):
        # the one interior point of a 5x5x5 grid of zeros reaches no verdict
        h = 0.05
        lines = ["x1,x2,x3,re,im"] + [
            f"{i * h},{j * h},{k * h},0,0"
            for i in range(-2, 3) for j in range(-2, 3) for k in range(-2, 3)]
        p = tmp_path / "field.csv"
        p.write_text("\n".join(lines))
        code, doc = run(["model", "residual", "heisenberg", "--psi", "file",
                         "--file", str(p), "--E", "1"])
        check = doc["checks"][0]
        assert check["status"] == "inconclusive"
        assert check["detail"] == {
            "reason": "field is numerically zero on all samples"}
        assert code == 1

    def test_residual_field_csv_with_a_conflicting_point_is_an_input_error(
            self, tmp_path):
        # the zero field of a 5x5x5 grid, its centre given again as 1
        h = 0.05
        lines = ["x1,x2,x3,re,im"] + [
            f"{i * h},{j * h},{k * h},0,0"
            for i in range(-2, 3) for j in range(-2, 3) for k in range(-2, 3)]
        p = tmp_path / "field.csv"
        p.write_text("\n".join(lines + ["0.0,0.0,0.0,1,0"]))
        code, doc = run(["model", "residual", "heisenberg", "--psi", "file",
                         "--file", str(p), "--E", "1"])
        assert code == 2
        assert doc["error"] == (
            "point (0.0, 0.0, 0.0) is given twice with different values")

    def test_json_writes_a_nan_figure_as_a_string(self, tmp_path, capsys):
        # a NaN residual must not become the bare token NaN, which strict
        # JSON parsers reject
        p = tmp_path / "field.csv"
        h = 0.05
        p.write_text("\n".join(
            f"{i * h},{j * h},{k * h},{'nan' if (i, j, k) == (0, 0, 0) else 1},0"
            for i in range(-2, 3) for j in range(-2, 3) for k in range(-2, 3)))
        argv = ["model", "residual", "heisenberg", "--psi", "file",
                "--file", str(p), "--E", "1", "--json"]
        assert main(argv) == 1

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["checks"][0]["max_residual"] == "nan"
        assert cli._finite_json([math.inf, -math.inf, (1.5, math.nan)]) == [
            "inf", "-inf", [1.5, "nan"]]

    @pytest.mark.parametrize("argv, files, error", [
        # _read_points: a ragged row and a non-numeric cell
        (["model", "residual", "heisenberg", "--psi", "file", "--file", "{field}"],
         {"field": "0,0,0,1"}, "field.csv:1: expected 5 columns, got 4"),
        (["model", "residual", "heisenberg", "--psi", "file", "--file", "{field}"],
         {"field": "0,0,0,abc,0"}, "could not convert string to float: 'abc'"),
        (["model", "residual", "heisenberg", "--psi", "file"], {},
         "--psi file needs --file"),
        # the four grid guards of a --file field
        (["model", "residual", "heisenberg", "--psi", "file", "--file", "{field}"],
         {"field": _field_csv([0.1 * i for i in range(5)], drop=1)},
         "field samples do not form a full rectangular grid"),
        (["model", "residual", "heisenberg", "--psi", "file", "--file", "{field}"],
         {"field": _field_csv([0.1 * i for i in range(4)])},
         "need at least 5 samples per axis for 4th-order stencils"),
        (["model", "residual", "heisenberg", "--psi", "file", "--file", "{field}"],
         {"field": _field_csv([0.0, 0.1, 0.2, 0.3, 0.5])},
         "grid spacing must be uniform per axis"),
        (["model", "residual", "heisenberg", "--psi", "file", "--file", "{field}"],
         {"field": _field_csv([0.1 * i for i in range(5)],
                              [0.2 * i for i in range(5)])},
         "grid spacing must match across axes"),
        # a --phi table with a hole, and a bad --ideal
        (["model", "reconstruct", "heisenberg", "--phi", "{phi}"],
         {"phi": "\n".join(f"{k},{j},1,0" for k in (-1, 0, 1) for j in (0.5, 1.5)
                           if (k, j) != (0, 1.5))},
         "spectral samples do not form a full rectangular grid"),
        (["coisotropic", fx("h3.json"), "--form", fx("h3_null_center.json"),
          "--ideal", "1,x"], {}, "bad ideal spec '1,x'"),
        # g4_7 has no mode family and no inverse GFT; grids over other axes
        (["model", "residual", "g4_7", "--psi", "mode"], {},
         "model g4_7 has no closed-form mode family"),
        (["model", "reconstruct", "g4_7", "--phi", "{phi}"], {"phi": "-1,1,1,0"},
         "model g4_7 has no inverse GFT"),
        (["model", "residual", "heisenberg", "--psi", "mode",
          "--grid", "x1=-1:1:3,x3=-1:1:3,x2=-1:1:3"], {},
         "grid axes must be ('x1', 'x2', 'x3')"),
        (["model", "reconstruct", "heisenberg", "--phi", "{phi}",
          "--grid", "x1=-0.4:0.4:3,x2=-0.4:0.4:3"],
         {"phi": "\n".join(f"{k},{j},1,0" for k in (-1, 1) for j in (0.5, 1.5))},
         "grid axes must be ('x1', 'x2', 'x3')"),
        # one nan entry printed a failing record with max_residual=nan
        (["model", "reconstruct", "heisenberg", "--phi", "{phi}"],
         {"phi": "\n".join(f"{k},{j},{'nan' if (k, j) == (0, 1.5) else 1},0"
                           for k in (-1, 0, 1) for j in (0.5, 1.5))},
         "inverse GFT needs a finite phi_hat"),
        # each of these ended in a traceback with exit 1: a malformed form
        # document (a KeyError and two TypeErrors)
        (["coisotropic", fx("h3.json"), "--form", "{doc}", "--ideal", "1,3"],
         {"doc": {"dim": 3}}, "bad form document: 'matrix'"),
        (["coisotropic", fx("h3.json"), "--form", "{doc}", "--ideal", "1,3"],
         {"doc": [["1", "0"], ["0", "1"]]}, "bad form document: list indices"),
        (["coisotropic", fx("h3.json"), "--form", "{doc}", "--ideal", "1,3"],
         {"doc": {"matrix": 5}}, "bad form document: 'int' object is not iterable"),
        # a zero denominator, and text that is no rational, as a ZeroDivisionError
        # or a ValueError outside any loader's handler
        (["coisotropic", fx("g47.json"), "--form", fx("g47_g1.json"), "--ideal", "1,2",
          "--alpha", "1/0", "--beta", "1"], {}, "not a rational: '1/0'"),
        (["coisotropic", fx("g47.json"), "--form", fx("g47_g1.json"), "--ideal", "1,2",
          "--alpha", "1", "--beta", "pony"], {}, "not a rational: 'pony'"),
        (["check-algebra", "{doc}"],
         {"doc": {"dim": 3, "brackets": [{"i": 1, "j": 2, "c": {"3": "1/0"}}]}},
         "bad algebra document: not a rational: '1/0'"),
        (["index", "{doc}"],
         {"doc": {"dim": 3, "brackets": [{"i": 1, "j": 2, "c": {"3": "1/0"}}]}},
         "bad algebra document: not a rational: '1/0'"),
        (["coisotropic", fx("h3.json"), "--form", "{doc}", "--ideal", "1,3"],
         {"doc": {"matrix": [["1/0", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}},
         "entry (1,1) = '1/0' is not rational"),
        # an AttributeError and an OverflowError the algebra loader let through
        (["check-algebra", "{doc}"],
         {"doc": {"dim": 3, "brackets": [{"i": 1, "j": 2, "c": ["1"]}]}},
         "bad algebra document: 'list' object has no attribute 'items'"),
        (["check-algebra", "{doc}"], {"doc": {"dim": math.inf}},
         "bad algebra document: cannot convert float infinity to integer"),
    ])
    def test_input_guards_are_error_documents(self, argv, files, error, tmp_path,
                                              capsys):
        paths = {}
        for name, content in files.items():
            # a CSV table as text, a JSON document as its object
            if isinstance(content, str):
                paths[name] = tmp_path / f"{name}.csv"
                paths[name].write_text(content)
            else:
                paths[name] = tmp_path / f"{name}.json"
                paths[name].write_text(json.dumps(content))
        argv = [a.format(**paths) for a in argv]
        code, doc = run(argv)
        assert code == 2
        assert set(doc) == {"tool_version", "command", "error"}
        assert error in doc["error"]
        assert main(argv) == 2
        assert capsys.readouterr().out.startswith("error: ")

    def test_one_count_grid_axis_is_its_midpoint(self):
        assert cli._parse_grid("x1=0:1:1,x2=-1:1:2", ("x1", "x2")) == [
            (0.5, -1.0), (0.5, 1.0)]

    @pytest.mark.parametrize("argv", [
        ["model", "residual", "heisenberg", "--psi", "mode",
         "--grid", "x1=-1e400:1:5,x2=-1:1:5,x3=-1:1:5"],
        ["index", fx("g47.json"), "--trials", "0"],
        ["model", "reconstruct", "heisenberg", "--phi", "{phi}", "--nodes", "0"],
    ])
    def test_bad_number_is_an_input_error(self, argv, tmp_path, capsys):
        # a grid bound beyond the double range and counts below one: exit 2
        # with an error document, no traceback
        phi = tmp_path / "phi.csv"
        phi.write_text("\n".join(f"{k},{j},1,0" for k in (-1, 1) for j in (1, 2)))
        argv = [a.format(phi=phi) for a in argv]
        code, doc = run(argv)
        assert code == 2
        assert set(doc) == {"tool_version", "command", "error"}
        assert main(argv) == 2
        assert capsys.readouterr().out.startswith("error: ")

    def test_reconstruct_support_across_j_zero_is_an_input_error(self, tmp_path):
        # the library's SingularMeasureError reaches the CLI as a document
        phi = tmp_path / "phi.csv"
        phi.write_text("\n".join(f"{k},{j},1,0" for k in (-1, 1) for j in (-1, 1)))
        code, doc = run(["model", "reconstruct", "heisenberg", "--phi", str(phi)])
        assert code == 2
        assert doc["error"] == "spectral support must exclude J = 0"

    @pytest.mark.parametrize("rows, error", [
        # one J value: the interpolant would divide by a zero J spacing
        ([(-1, 1.0), (0, 1.0), (1, 1.0)],
         "spectral samples need at least 2 distinct k and 2 distinct J values"),
        ([(0, 0.5), (0, 1.5)],
         "spectral samples need at least 2 distinct k and 2 distinct J values"),
    ])
    def test_reconstruct_one_value_axis_is_an_input_error(self, rows, error,
                                                          tmp_path):
        phi = tmp_path / "phi.csv"
        phi.write_text("\n".join(f"{k},{j},1,0" for k, j in rows))
        code, doc = run(["model", "reconstruct", "heisenberg", "--phi", str(phi)])
        assert (code, doc["error"]) == (2, error)

    def test_reconstruct_conflicting_point_is_an_input_error(self, tmp_path):
        phi = tmp_path / "phi.csv"
        rows = [f"{k},{j},1,0" for k in (-1, 1) for j in (0.5, 1.5)]
        phi.write_text("\n".join(rows + ["1,1.5,2,0"]))
        code, doc = run(["model", "reconstruct", "heisenberg", "--phi", str(phi)])
        assert code == 2
        assert doc["error"] == "point (1.0, 1.5) is given twice with different values"

    def test_reconstruct_energy_past_the_airy_cut_is_an_input_error(self, tmp_path):
        # E = -1e6 puts the Airy arguments below LEFT_CUT: a document, exit 2
        phi = tmp_path / "phi.csv"
        phi.write_text("\n".join(f"{k},{j},1,0" for k in (-1, 0, 1)
                                 for j in (0.5, 1.0, 1.5)))
        code, doc = run(["model", "reconstruct", "heisenberg", "--phi", str(phi),
                         "--E=-1e6", "--nodes", "8",
                         "--grid", "x1=-0.4:0.4:3,x2=-0.4:0.4:3,x3=-0.4:0.4:3"])
        assert code == 2
        assert "below the left cut" in doc["error"]

    def test_verify_runs_each_structural_check_once_per_seed(self, monkeypatch):
        # load_model validates at the default seed, and verify reuses those
        # records at that seed; another seed is validated once more
        monkeypatch.delenv("NCLB_SEED", raising=False)
        jacobi_defect = models.jacobi_defect
        calls = []

        def counting(algebra):
            calls.append(algebra)
            return jacobi_defect(algebra)

        monkeypatch.setattr(models, "jacobi_defect", counting)
        assert run(["model", "verify", "g4_7"])[0] == 0
        assert len(calls) == 1
        assert run(["model", "verify", "g4_7", "--seed", "7"])[0] == 0
        assert len(calls) == 3

    @pytest.mark.parametrize("error, code", [
        (VerificationError([CheckRecord(check="lambda_rep_commutators",
                                        status="fail")]), 1),
        (NotFirstOrderError("second-order part is numerically nonzero"), 2),
    ])
    def test_library_errors_are_documents(self, error, code, monkeypatch):
        # a failed strict verification exits 1, any other library error 2
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(reduction, "build_reduced", fail)
        got, doc = run(["model", "reduce", "heisenberg"])
        assert (got, doc["error"]) == (code, str(error))

    def test_reconstruct(self, tmp_path):
        p = tmp_path / "phi.csv"
        _write_gaussian_phi(p)
        out = tmp_path / "psi.csv"
        code, doc = run(["model", "reconstruct", "heisenberg", "--phi", str(p),
                         "--E", "1", "--grid", "x1=-0.4:0.4:3,x2=-0.4:0.4:3,x3=-0.4:0.4:3",
                         "--nodes", "48", "--out", str(out)])
        assert code == 0
        assert doc["checks"][0]["max_residual"] <= 1e-3
        body = out.read_text().splitlines()
        assert body[0] == "x1,x2,x3,re,im"
        assert len(body) == 1 + 27
        # the rows are the inverse GFT at the same points
        from nclb.models import QuadSpec2D, inverse_gft_h3
        rows = np.array([[float(c) for c in line.split(",")] for line in body[1:]])
        phi, box = cli._grid_interpolant(cli._read_points(str(p), 2))
        want = inverse_gft_h3(phi, 1.0, rows[:, :3], QuadSpec2D(box=box, n=48))
        got = rows[:, 3] + 1j * rows[:, 4]
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


class TestDeterminism:
    def test_byte_identical_json(self, capsys):
        main(["model", "verify", "heisenberg", "--json", "--seed", "11"])
        first = capsys.readouterr().out
        main(["model", "verify", "heisenberg", "--json", "--seed", "11"])
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["seed"] == 11

    def test_aggregated_checks_carry_the_seed(self):
        _, doc = run(["model", "verify", "heisenberg", "--json", "--seed", "11"])
        checks = {c["check"]: c for c in doc["checks"]}
        assert checks["lambda_rep"]["samples_used"] == 40
        assert checks["lambda_rep"]["seed"] == 11
        assert checks["frames"]["seed"] == 11
        assert checks["jacobi"]["seed"] is None  # exact, nothing sampled

    def test_aggregate_is_nan_whatever_the_order(self):
        from nclb.models import _aggregate
        from nclb.report import PASS, CheckRecord

        recs = [CheckRecord("a", PASS, max_residual=1.0, seed=3),
                CheckRecord("b", PASS, max_residual=math.nan, seed=3)]
        for order in (recs, recs[::-1]):
            agg = _aggregate("both", order)
            assert math.isnan(agg.max_residual)
            assert agg.seed == 3
        recs[1].seed = 4
        assert _aggregate("both", recs).seed is None

    def test_seed_resolution_order(self, monkeypatch):
        monkeypatch.setenv("NCLB_SEED", "21")
        _, doc = run(["index", fx("h3.json")])
        assert doc["seed"] == 21
        _, doc = run(["index", fx("h3.json"), "--seed", "5"])
        assert doc["seed"] == 5  # flag wins over the environment
        monkeypatch.delenv("NCLB_SEED")
        _, doc = run(["index", fx("h3.json")])
        assert doc["seed"] == 0xC0FFEE

    def test_bad_env_seed(self, monkeypatch):
        monkeypatch.setenv("NCLB_SEED", "pony")
        code, doc = run(["index", fx("h3.json")])
        assert code == 2

    def test_abbreviated_json_flag_prints_a_document(self, capsys):
        code = main(["check-algebra", fx("h3.json"), "--js"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["overall"] == "pass"

    def test_closed_stdout_exits_quietly_with_the_command_code(self):
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH"))))}
        # stdout is a pipe whose read end is closed before the command prints
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "nclb.cli", "check-algebra", fx("h3.json")],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 0


_H3_VERIFY = """\
jacobi                pass          max_residual=0.000e+00
frames                pass          max_residual=0.000e+00
lambda_rep            pass          max_residual=0.000e+00
lift                  pass          max_residual=0.000e+00
reduced_first_order   pass          max_residual=0.000e+00
haar_invariance       pass          max_residual=0.000e+00
                        left: 0.0
                        right: 0.0
                        unimodular: True
coordinate_expansion  pass          max_residual=0.000e+00
                        terms: 3
casimir               pass        \n\
                        values: {'1': [0.0, 1.0], '-1': [-0.0, -1.0]}
overall: pass
"""

_G47_VERIFY = """\
jacobi                pass          max_residual=0.000e+00
frames                pass          max_residual=0.000e+00
lambda_rep            pass          max_residual=0.000e+00
lift                  pass          max_residual=0.000e+00
reduced_first_order   pass          max_residual=0.000e+00
haar_invariance       pass          max_residual=0.000e+00
                        left: 0.0
                        right: 0.0
                        unimodular: False
coordinate_expansion  pass          max_residual=0.000e+00
                        terms: 9
coisotropy            pass        \n\
                        verdict: True
overall: pass
"""

_H3_REDUCE = """\
reduced_first_order  pass          max_residual=0.000e+00
                       normalizer: 2*I*J
                       Z: ['1']
                       V: (1/2)*I*E*J^(-1) + (1/2)*I*J*q^2
overall: pass
"""

_G47_REDUCE = """\
reduced_first_order  pass          max_residual=0.000e+00
                       normalizer: 2*I*J*q2^2
                       Z: ['q1 + (-1)*q2', '(-1)*q1']
                       V: 1/2 + (1/2)*I*E*J^(-1)*q2^(-2) + I*J*q1*q2*log(q2) \
+ (-1)*I*J*q1^2*log(q2) + (-5/2)*q1*q2^(-1)
rectification        pass          max_residual=5.336e-16
                       v: (5^(1/2))^(-1)*log((-1/2)*5^(1/2)*q2 + q1 + (1/2)*q2) \
+ (-1)*(5^(1/2))^(-1)*log((1/2)*5^(1/2)*q2 + q1 + (1/2)*q2)
                       u: ['((-1/2)*5^(1/2)*q2 + q1 + (1/2)*q2)^(-1/2 + (1/2)*5^(1/2))\
*((1/2)*5^(1/2)*q2 + q1 + (1/2)*q2)^(1/2 + (1/2)*5^(1/2))']
overall: pass
"""


@pytest.mark.parametrize("argv, table", [
    (["model", "verify", "heisenberg"], _H3_VERIFY),
    (["model", "verify", "g4_7"], _G47_VERIFY),
    (["model", "reduce", "heisenberg"], _H3_REDUCE),
    (["model", "reduce", "g4_7"], _G47_REDUCE),
    (["model", "verify", "g4_7", "--alpha", "3", "--beta", "-1/8"], _G47_VERIFY),
])
def test_human_table(argv, table, capsys, monkeypatch):
    monkeypatch.delenv("NCLB_SEED", raising=False)
    assert main(argv) == 0
    assert capsys.readouterr().out == table


@pytest.mark.parametrize("argv", [
    ["model", "verify", "{model}"],
    ["model", "residual", "{model}", "--psi", "mode",
     "--grid", "x1=-1:1:3,x2=-1:1:3,x3=-1:1:3"],
    ["model", "reconstruct", "{model}", "--phi", "{phi}", "--nodes", "16"],
], ids=lambda argv: argv[1])
def test_a_renamed_heisenberg_model_gives_the_same_records(argv, tmp_path,
                                                           monkeypatch):
    # the CLI reads what a model offers from its fields, never its name
    monkeypatch.setitem(models.BUILDERS, "h3_copy", lambda a, b: replace(
        models._heisenberg_model(a, b), name="h3_copy"))
    phi = tmp_path / "phi.csv"
    _write_gaussian_phi(phi)
    (code, doc), (code_copy, doc_copy) = (
        run([a.format(model=name, phi=phi) for a in argv])
        for name in ("heisenberg", "h3_copy"))
    assert code == code_copy == 0
    assert doc_copy["checks"] == doc["checks"]


def _readme_cli_commands():
    """The commands of the README's `## CLI` block, as argv lists without the
    leading `nclb`."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        text = fh.read()
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines() if line.strip()]


@pytest.mark.parametrize("argv", _readme_cli_commands(), ids=" ".join)
def test_readme_cli_commands_run(argv, tmp_path, monkeypatch):
    _write_mode_field(tmp_path / "field.csv")
    _write_gaussian_phi(tmp_path / "phi.csv")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NCLB_SEED", raising=False)
    argv = [fx(a[len("fixtures/"):]) if a.startswith("fixtures/") else a
            for a in argv]
    code, doc = run(argv)
    assert code == 0, doc
