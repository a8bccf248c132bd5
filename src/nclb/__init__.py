"""Exact algebraic checks and first-order reduction of invariant Laplacians
on Lie groups, with explicit integration along characteristics.

Every exported name resolves on first access (PEP 562), and only then is
its module imported: `import nclb` alone loads no submodule, and the exact
layer (`algebra`, `bilinear`, `ratlinalg`) runs without numpy, as do
`load_model` and the symbolic model checks; numpy is imported by the
functions that build arrays.
"""

import sys

__version__ = "0.1.0"

# defining module -> the names this package exports from it
_EXPORTS = {
    "algebra": ("Covector", "LieAlgebra", "Subspace", "adapted_basis",
                "index", "index_witness", "jacobi_defect", "kirillov_matrix",
                "subspace_flags"),
    "bilinear": ("BilinearForm", "LaplacianData", "coisotropy_check",
                 "laplacian_data", "orth_complement"),
    "diffop": ("DiffOp", "SampleSpec", "apply", "commutator", "compose",
               "op_equal"),
    "expr": ("Airy", "Const", "Exp", "Expr", "I", "Log", "Power", "Product",
             "Sum", "Var", "compile_expr", "differentiate", "evaluate",
             "simplify", "subst", "to_text"),
    "models": ("GroupModel", "KernelD", "QuadSpec2D", "SmearedGaussian",
               "airy_identity_check", "casimir_scalar_check",
               "invariant_frame_check", "inverse_gft_h3",
               "kernel_orthogonality_smoke", "laplace_operator", "load_model",
               "mode_solution_h3", "pde_residual", "validate_model"),
    "reduction": ("Characteristic", "LambdaRep", "ReducedOperator",
                  "build_reduced", "extract_first_order", "local_lift_check",
                  "rectify_check", "reduced_residual", "solve_reduced",
                  "verify_lambda_rep"),
}
_SUBMODULES = ("airyfun", "algebra", "bilinear", "diffop", "expr", "models",
               "quadrature", "ratlinalg", "reduction", "report")
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_ORIGIN, *_SUBMODULES])


def _submodule(name):
    # `__import__` rather than `importlib.import_module`: only the import
    # statement's path is timed by `python -X importtime`
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    if name in _SUBMODULES:
        return _submodule(name)
    if name in _ORIGIN:
        return getattr(_submodule(_ORIGIN[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
