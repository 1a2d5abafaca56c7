"""Algebraic structure of the nine-dimensional MICZ-Kepler problem.

Interbasis transformation matrices between the spherical, parabolic and
prolate spheroidal bases, the tridiagonal eigenproblem for the spheroidal
separation constant, and independent numeric oracles (Gauss quadrature,
brute-force sums, Clebsch-Gordan identities) that cross-verify every
closed form, exactly where possible.
"""

from ._backend import BACKEND
from .errors import (
    BranchMatchAmbiguous,
    ConvergenceFailure,
    DegenerateShift,
    DomainError,
    EmptySector,
    FactorialOfNegative,
    IndexOutOfRange,
    InternalConsistencyError,
    LambdaOutOfRange,
    LimitMismatch,
    Micz9Error,
    NegativeQuantumNumber,
    NonpositiveCharge,
    NumericalError,
    OrthogonalityViolation,
    ParityMismatch,
    RadicandMismatch,
    ValidationError,
)
from .exactscalar import RadicalScalar, Rational
from .sector import (
    HalfInt,
    Sector,
    alpha_scale,
    energy,
    enumerate_sectors,
    lambda_range,
    m9_parabolic_eigenvalue,
    np_range,
    validate_sector,
)
from .coeffs import (
    k_diag,
    k_offdiag,
    m9_diag,
    m9_offdiag,
    m9_spherical_matrix,
)
from .interbasis import (
    CGArgs,
    WMatrix,
    clebsch_gordan,
    m9_matrix_bruteforce,
    w_coefficient,
    w_matrix,
    w_recurrence_residual,
    w_via_cg,
)
from .spheroidal import (
    BranchSweep,
    SpheroidalSpectrum,
    SymTridiagonal,
    build_k_matrix,
    check_parabolic_limit,
    check_spherical_limit,
    separation_constants,
    spectra,
    sweep_branches,
    t_by_continuant,
)
from .wavefield import (
    QuadratureRule,
    basis_overlap,
    gauss_rule,
    jacobi_gen,
    laguerre_gen,
    ode_residuals,
    psi_parabolic,
    psi_spherical,
    psi_spheroidal,
    w_overlap_quadrature,
    w_overlap_stable,
)

__version__ = "0.1.0"
