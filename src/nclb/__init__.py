"""Exact algebraic checks and first-order reduction of invariant Laplacians
on Lie groups, with explicit integration along characteristics."""

__version__ = "0.1.0"

from .algebra import (Covector, LieAlgebra, Subspace, adapted_basis,
                      annihilator, index, index_witness, is_polarization,
                      jacobi_defect, kirillov_matrix, subspace_flags)
from .bilinear import (BilinearForm, LaplacianData, coisotropy_check,
                       laplacian_data, orth_complement)
from .diffop import DiffOp, SampleSpec, apply, commutator, compose, op_equal
from .expr import (Airy, Const, Exp, Expr, I, Log, Power, Product, Sum, Var,
                   compile_expr, differentiate, evaluate, parse, simplify,
                   subst, to_text)
from .models import (GroupModel, KernelD, QuadSpec2D, SmearedGaussian,
                     airy_identity_check, casimir_scalar_check,
                     invariant_frame_check, inverse_gft_h3, kernel_orthogonality_smoke,
                     laplace_operator, load_model, mode_solution_h3,
                     pde_residual, validate_model)
from .reduction import (Characteristic, LambdaRep, ReducedOperator,
                        build_reduced, extract_first_order, flow,
                        local_lift_check, rectify_check, reduced_residual,
                        solve_reduced, verify_lambda_rep)

__all__ = [name for name in dir() if not name.startswith("_")]
