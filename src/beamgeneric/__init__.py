"""Structure-preserving simulation of damped Timoshenko and Bresse beams.

The package casts ten beam models as metriplectic systems z_t = L dE + M dS
on a periodic mimetic grid, verifies the bracket axioms (antisymmetry,
symmetry, positive semidefiniteness, degeneracy, and the Jacobi identity
by a stencil that is exact for the catalog's brackets) to roundoff, and
integrates the dynamics with diagnostics for energy conservation, entropy
production and decay rates.
"""

from .catalog import (
    ALL_MODEL_IDS,
    ModelId,
    ModelSpec,
    build_model,
    default_initial_state,
)
from .engine import (
    DiagnosticsRecord,
    IntegratorConfig,
    TestFunctional,
    VerificationReport,
    compile_rhs,
    decay_rate,
    direct_rhs,
    generic_rhs,
    integrate,
    jacobi_check,
    poisson_bracket,
    random_cotangent,
    random_state,
    random_test_functional,
    step_rk4,
    transform_check,
    uniform_scaling,
    verify_brackets,
)
from .errors import DivergenceError, DomainError, PositivityError
from .functionals import (
    ModelParams,
    energy,
    entropy,
    fd_gradient,
    grad_energy,
    grad_entropy,
    mechanical_energy,
)
from .grid import Grid
from .operators import (
    Block,
    DissipativeRow,
    apply_L,
    apply_M,
)
from .state import (
    FIELD_NAMES,
    CotangentVector,
    State,
    StateLayout,
    mixed_inner,
    pack,
    unpack,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_MODEL_IDS",
    "Block",
    "CotangentVector",
    "DiagnosticsRecord",
    "DissipativeRow",
    "DivergenceError",
    "DomainError",
    "FIELD_NAMES",
    "Grid",
    "IntegratorConfig",
    "ModelId",
    "ModelParams",
    "ModelSpec",
    "PositivityError",
    "State",
    "StateLayout",
    "TestFunctional",
    "VerificationReport",
    "apply_L",
    "apply_M",
    "build_model",
    "compile_rhs",
    "decay_rate",
    "default_initial_state",
    "direct_rhs",
    "energy",
    "entropy",
    "fd_gradient",
    "generic_rhs",
    "grad_energy",
    "grad_entropy",
    "integrate",
    "jacobi_check",
    "mechanical_energy",
    "mixed_inner",
    "pack",
    "poisson_bracket",
    "random_cotangent",
    "random_state",
    "random_test_functional",
    "step_rk4",
    "transform_check",
    "uniform_scaling",
    "unpack",
    "verify_brackets",
]
