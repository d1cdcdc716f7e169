"""Krylov subspace approximation of exp(sigma t A) v and phi_p(sigma t A) v
with a-posteriori error bounds, estimates, and restarted step-size control."""

from .approximant import Approximant, effective_order
from .dense import expm_dense, phi_dense, phi_scalar
from .estimators import ErrorEstimate, era, err1, quad_estimates
from .krylov import (KrylovConfig, KrylovDecomposition, build_krylov,
                     extend_krylov)
from .oracle import (oracle_chebyshev, oracle_convection_diffusion,
                     oracle_laplacian, oracle_phi, oracle_reference,
                     oracle_series)
from .problems import (ProblemSpec, build_convection_diffusion, build_heat,
                       build_hubbard, build_schrodinger, starting_vector)
from .sparse import SparseOperator, validate_prefactor
from .stepper import (ControllerSpec, PropagationResult, StepRecord,
                      expokit_first_step, propagate, propagate_fixed_steps,
                      step_size_direct, step_size_heuristic,
                      step_size_iterated)

__version__ = "0.1.0"

__all__ = [
    "Approximant", "ControllerSpec", "ErrorEstimate", "KrylovConfig",
    "KrylovDecomposition", "PropagationResult", "ProblemSpec",
    "SparseOperator", "StepRecord",
    "build_convection_diffusion", "build_heat", "build_hubbard",
    "build_krylov", "build_schrodinger", "effective_order", "era", "err1",
    "expm_dense", "expokit_first_step", "extend_krylov",
    "oracle_chebyshev", "oracle_convection_diffusion", "oracle_laplacian",
    "oracle_phi",
    "oracle_reference", "oracle_series", "phi_dense",
    "phi_scalar", "propagate", "propagate_fixed_steps", "quad_estimates",
    "starting_vector", "step_size_direct", "step_size_heuristic",
    "step_size_iterated", "validate_prefactor",
]
