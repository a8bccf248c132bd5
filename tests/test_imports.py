"""What `import nclb` and each CLI command load.

The exact algebra commands run on `algebra`, `bilinear` and `ratlinalg`
alone.  Loading a model and the symbolic model commands (`verify`,
`reduce`) run the expression, model and reduction modules without numpy;
only the commands that build arrays (`residual`, `reconstruct`) import it.
No command loads `dataclasses`: the record classes are built by
`report.record`.  The package resolves its exported names on first access,
each to the object of its defining module.
"""

import importlib
import os
import re
import subprocess
import sys

import pytest

import nclb

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
NUMERIC_STACK = ("numpy", "nclb.expr", "nclb.models", "nclb.reduction")
SYMBOLIC_STACK = {"nclb.expr", "nclb.models", "nclb.reduction"}
# the records are built by `report.record`, not by `dataclasses`, which
# would also import `inspect` (numpy imports that on its own)
RECORD_MACHINERY = ("dataclasses", "inspect")

# the exported names, by defining module
EXPORTS = {
    "nclb.algebra": ["Covector", "LieAlgebra", "Subspace", "adapted_basis",
                     "index", "index_witness", "jacobi_defect",
                     "kirillov_matrix", "subspace_flags"],
    "nclb.bilinear": ["BilinearForm", "LaplacianData", "coisotropy_check",
                      "laplacian_data", "orth_complement"],
    "nclb.diffop": ["DiffOp", "SampleSpec", "apply", "commutator", "compose",
                    "op_equal"],
    "nclb.expr": ["Airy", "Const", "Exp", "Expr", "I", "Log", "Power",
                  "Product", "Sum", "Var", "compile_expr", "differentiate",
                  "evaluate", "simplify", "subst", "to_text"],
    "nclb.models": ["GroupModel", "KernelD", "QuadSpec2D", "SmearedGaussian",
                    "airy_identity_check", "casimir_scalar_check",
                    "invariant_frame_check", "inverse_gft_h3",
                    "kernel_orthogonality_smoke", "laplace_operator",
                    "load_model", "mode_solution_h3", "pde_residual",
                    "validate_model"],
    "nclb.reduction": ["Characteristic", "LambdaRep", "ReducedOperator",
                       "build_reduced", "extract_first_order",
                       "local_lift_check", "rectify_check",
                       "reduced_residual", "solve_reduced",
                       "verify_lambda_rep"],
}
SUBMODULES = ["airyfun", "algebra", "bilinear", "diffop", "expr", "models",
              "quadrature", "ratlinalg", "reduction", "report"]
ALL = sorted([name for names in EXPORTS.values() for name in names] + SUBMODULES)

# runs one command, then writes the names of the loaded modules to stderr
_PROBE = """\
import sys
from nclb.cli import main
code = main(sys.argv[1:])
sys.stderr.write("\\n".join(sorted(sys.modules)))
sys.exit(code)
"""


def _stderr_of(args):
    """stderr of a fresh interpreter run with args from the checkout root."""
    src = os.path.join(ROOT, "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable] + args, cwd=ROOT,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stderr


def _loaded_by(argv, probe=_PROBE):
    return set(_stderr_of(["-c", probe] + argv).splitlines())


@pytest.mark.parametrize("argv", [
    ["check-algebra", "fixtures/h3.json"],
    ["index", "fixtures/g47.json", "--trials", "32"],
    ["coisotropic", "fixtures/h3.json", "--form", "fixtures/h3_null_center.json",
     "--ideal", "1,3"],
    ["coisotropic", "fixtures/g47.json", "--form", "fixtures/g47_g1.json",
     "--ideal", "1,2", "--alpha", "1", "--beta", "1"],
], ids=lambda argv: argv[0])
def test_algebra_commands_leave_out_the_numeric_stack(argv):
    loaded = _loaded_by(argv)
    assert {"nclb.algebra", "nclb.bilinear", "nclb.ratlinalg"} <= loaded
    assert loaded.isdisjoint(NUMERIC_STACK)
    assert loaded.isdisjoint(RECORD_MACHINERY)


@pytest.mark.parametrize("argv", [
    ["model", "verify", "heisenberg"],
    ["model", "verify", "g4_7"],
    pytest.param(["model", "verify", "g4_7", "--alpha", "3", "--beta", "-1/8"],
                 id="verify g4_7 --alpha 3 --beta -1/8"),
    ["model", "reduce", "g4_7", "--alpha", "1", "--beta", "1", "--J=1", "--E=3/4"],
], ids=lambda argv: " ".join(argv[1:3]))
def test_symbolic_model_commands_leave_out_numpy(argv):
    loaded = _loaded_by(argv)
    assert SYMBOLIC_STACK <= loaded
    assert loaded.isdisjoint({"numpy", "nclb.airyfun"})
    assert loaded.isdisjoint(RECORD_MACHINERY)


def test_loading_the_models_leaves_out_numpy():
    probe = ("import sys\nimport nclb\n"
             "nclb.load_model('heisenberg')\nnclb.load_model('g4_7')\n"
             "sys.stderr.write('\\n'.join(sorted(sys.modules)))\n")
    loaded = _loaded_by([], probe)
    assert {"nclb.models", "nclb.reduction"} <= loaded
    assert "numpy" not in loaded
    assert loaded.isdisjoint(RECORD_MACHINERY)
    # only the algebra and form file loaders read JSON, and they import it
    assert "json" not in loaded


def test_importtime_lists_the_submodules_the_package_imports():
    # `python -X importtime` times only the import statement's path
    err = _stderr_of(["-X", "importtime", "-c",
                      "import nclb; nclb.load_model('g4_7')"])
    timed = {line.rsplit("|", 1)[-1].strip() for line in err.splitlines()
             if line.startswith("import time:")}
    assert {"nclb.expr", "nclb.ratlinalg", "nclb.models"} <= timed


def test_array_model_commands_load_the_numeric_stack(tmp_path):
    phi = tmp_path / "phi.csv"
    phi.write_text("\n".join(f"{k},{j},1,0" for k in (-1, 1) for j in (0.5, 1.5)))
    for argv in (["model", "residual", "heisenberg", "--psi", "mode"],
                 ["model", "reconstruct", "heisenberg", "--phi", str(phi),
                  "--E", "1", "--nodes", "8",
                  "--grid", "x1=-0.4:0.4:3,x2=-0.4:0.4:3,x3=-0.4:0.4:3"]):
        loaded = _loaded_by(argv)
        assert set(NUMERIC_STACK) <= loaded, argv[1]
        assert "dataclasses" not in loaded, argv[1]


def test_all_is_unchanged():
    assert nclb.__all__ == ALL
    assert set(ALL) <= set(dir(nclb))


def test_each_name_is_the_object_of_its_defining_module():
    for module, names in EXPORTS.items():
        defining = importlib.import_module(module)
        for name in names:
            assert getattr(nclb, name) is getattr(defining, name), name
    for name in SUBMODULES:
        assert getattr(nclb, name) is importlib.import_module(f"nclb.{name}")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from nclb import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == ALL
    assert all(namespace[name] is getattr(nclb, name) for name in ALL)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        nclb.nope


# definitions that nothing else in the package names, kept as test
# vocabulary and as the inverse-GFT oracle
KEPT_ON_PURPOSE = {"algebra.abelian_algebra", "models.mode_superposition_h3"}


def test_every_definition_is_named_elsewhere_in_the_package():
    # a module-level function, class or assigned name whose name appears on
    # no other line of the package, code or prose, and that the package
    # does not export, is dead
    import ast
    import glob

    sources = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "nclb", "*.py"))):
        with open(path, encoding="utf-8") as f:
            sources[os.path.splitext(os.path.basename(path))[0]] = f.read().splitlines()
    dead = set()
    for module, lines in sources.items():
        for node in ast.parse("\n".join(lines)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                word = re.compile(rf"\b{re.escape(name)}\b")
                if not (name.startswith("__") or name in nclb.__all__ or any(
                        word.search(line) for m, text in sources.items()
                        for k, line in enumerate(text, 1)
                        if not (m == module and node.lineno <= k <= node.end_lineno))):
                    dead.add(f"{module}.{name}")
    assert dead == KEPT_ON_PURPOSE


def _private_imports(src):
    """'module: source.name' for each underscore-prefixed, non-dunder name
    that a module of the package under src imports from another."""
    import ast
    import glob

    found = []
    for path in sorted(glob.glob(os.path.join(src, "nclb", "*.py"))):
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        module = os.path.splitext(os.path.basename(path))[0]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "nclb"):
                found += [f"{module}: {node.module}.{alias.name}" for alias in node.names
                          if alias.name.startswith("_") and not alias.name.startswith("__")]
    return found


def test_no_module_imports_a_private_name_of_another():
    # a name one module shares with another has a public owner
    assert _private_imports(os.path.join(ROOT, "src")) == []


# the first numeric act of a fresh interpreter is one of evaluate,
# compile_expr or compile_array on Airy trees; then every value is checked
# against `airyfun`, and an argument below LEFT_CUT against DomainError
_AIRY_PROBE = """\
import sys
from nclb import expr as ex
from nclb.report import LEFT_CUT
assert "nclb.airyfun" not in sys.modules and "numpy" not in sys.modules
act = sys.argv[1]
x = ex.Var("x")
kinds = ex.AIRY_KINDS
trees = tuple(ex.Airy(k, x) for k in kinds)
xs = [-30.5, -3.25, 0.0, 1.5, 9.0]
if act == "evaluate":
    got = [[ex.evaluate(t, {"x": v}) for v in xs] for t in trees]
    closure = ex.compile_expr(trees, ["x"])
elif act == "compile_expr":
    closure = ex.compile_expr(trees, ["x"])
    got = [list(col) for col in zip(*(closure(v) for v in xs))]
else:
    values, ok = ex.compile_array(trees, ["x"])(xs)
    assert ok.all()
    got = values.tolist()
    closure = ex.compile_array(trees, ["x"])
from nclb import airyfun
if act == "compile_array":
    assert got == [airyfun.airy_array(k, xs).astype(complex).tolist() for k in kinds]
else:
    assert got == [[complex(airyfun.airy(k, v)) for v in xs] for k in kinds]
try:
    closure([2 * LEFT_CUT] if act == "compile_array" else 2 * LEFT_CUT)
except ex.DomainError:
    pass
else:
    raise AssertionError("no DomainError below LEFT_CUT")
sys.stderr.write("\\n".join(sorted(sys.modules)))
"""


@pytest.mark.parametrize("act", ["evaluate", "compile_expr", "compile_array"])
def test_airy_is_bound_on_first_use(act):
    assert {"nclb.airyfun", "numpy"} <= _loaded_by([act], _AIRY_PROBE)
