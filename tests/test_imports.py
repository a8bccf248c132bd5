"""What `import nclb` and each CLI command load.

The exact algebra commands run on `algebra`, `bilinear` and `ratlinalg`
alone; the package resolves its exported names on first access, each to
the object of its defining module.
"""

import importlib
import os
import subprocess
import sys

import pytest

import nclb

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
NUMERIC_STACK = ("numpy", "nclb.expr", "nclb.models", "nclb.reduction")

# the exported names, by defining module, as the package has always had them
EXPORTS = {
    "nclb.algebra": ["Covector", "LieAlgebra", "Subspace", "adapted_basis",
                     "annihilator", "index", "index_witness",
                     "is_polarization", "jacobi_defect", "kirillov_matrix",
                     "subspace_flags"],
    "nclb.bilinear": ["BilinearForm", "LaplacianData", "coisotropy_check",
                      "laplacian_data", "orth_complement"],
    "nclb.diffop": ["DiffOp", "SampleSpec", "apply", "commutator", "compose",
                    "op_equal"],
    "nclb.expr": ["Airy", "Const", "Exp", "Expr", "I", "Log", "Power",
                  "Product", "Sum", "Var", "compile_expr", "differentiate",
                  "evaluate", "parse", "simplify", "subst", "to_text"],
    "nclb.models": ["GroupModel", "KernelD", "QuadSpec2D", "SmearedGaussian",
                    "airy_identity_check", "casimir_scalar_check",
                    "invariant_frame_check", "inverse_gft_h3",
                    "kernel_orthogonality_smoke", "laplace_operator",
                    "load_model", "mode_solution_h3", "pde_residual",
                    "validate_model"],
    "nclb.reduction": ["Characteristic", "LambdaRep", "ReducedOperator",
                       "build_reduced", "extract_first_order", "flow",
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


def _loaded_by(argv):
    src = os.path.join(ROOT, "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", _PROBE] + argv, cwd=ROOT,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return set(proc.stderr.splitlines())


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


def test_a_model_command_loads_the_numeric_stack():
    assert set(NUMERIC_STACK) <= _loaded_by(["model", "verify", "g4_7"])


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
