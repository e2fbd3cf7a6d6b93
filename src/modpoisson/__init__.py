"""Modified Poisson integrals on a half space.

Evaluation of the classical and modified half-space Dirichlet and Neumann
integrals, their Gegenbauer kernel machinery, spherical-harmonic asymptotic
expansions, and a numerical certification suite for the identities, growth
orders, and sharpness constructions the solution theory rests on.
"""

from . import gegenbauer
from .data import (
    BoundaryData,
    Support,
    bump,
    bump_train,
    constant,
    exp_decay,
    make_data,
    poly_growth,
    shell_bump,
)
from .errors import (
    AccuracyError,
    ConstructionError,
    DomainError,
    ModPoissonError,
    SingularityError,
)
from .expansions import (
    AsymptoticExpansion,
    HarmonicFamilyTerm,
    addition_separation,
    coefficient_Y0,
    coefficient_Y1,
    divergence_demo,
    exp_data_neumann_coefficient,
    gamma_addition,
    harmonic_term,
)
from .geometry import HalfSpacePoint
from .kernels import (
    KernelParams,
    kernel_K,
    kernel_KM_direct,
    kernel_KM_integral,
    kernel_KM_second,
    kernel_bound_first,
)
from .quadrature import (
    QuadratureSpec,
    alpha_n,
    dirichlet_D,
    dirichlet_DM,
    integral_F,
    integral_F_second,
    neumann_N,
    neumann_NM,
    solution_u,
    solution_v,
)
from .sharpness import (
    SharpnessConstants,
    compute_constants,
    data_balls_super_extension,
    data_half_balls,
    km_cone_minimum,
    phi_band_minimum,
)
from .verification import (
    CheckReport,
    check_boundary,
    growth_sweep,
    harmonicity_residual,
    kernel_identity_residual,
    neumann_representation_residual,
)

__version__ = "0.1.0"
