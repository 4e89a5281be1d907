"""Block Toeplitz determinant asymptotics for the dimer correlation limit.

The package computes the monomer-monomer correlation of the classical dimer
model on the square-to-triangular interpolating lattice, both at finite
separation (finite determinants) and in the limit (closed form), and
cross-validates every identity used along the way: the finite-section
equivalence, the operator-determinant constant, the banded-symbol reduction,
trace corrections, and the analytic continuation to all parameters with
positive real part.
"""

from .closed_form import correlation_limit, e_phi, lambda_value
from .continuation import correlation_finite, correlation_scan, theta_decomposition
from .dimer import (
    DimerParams,
    dimer_matrix,
    symbol_phi,
    symbol_psi,
    symbol_psi_inverse,
)
from .errors import (
    BranchFailure,
    DecompositionMismatch,
    DimerdetError,
    InvariantViolation,
    NonzeroWinding,
    NotBanded,
    ParameterOutOfRange,
    PoleInput,
    QuadratureUnconverged,
    SampleFailure,
    SingularDeterminant,
    SingularSymbol,
    TailNotResolved,
    TruncatedOperatorSingular,
    TruncationTooShort,
)
from .spectral import fourier_coefficients, geometric_mean, log_determinant, toeplitz_section
from .szego import (
    bocg_residual,
    e_phi_reduction,
    exp_representation,
    psi_table,
    szego_E_operator,
    widom_banded_E,
)

#: the functions the README and the demos call, the parameter type, and the
#: error hierarchy; everything else is imported from the module defining it
__all__ = [
    "bocg_residual", "correlation_finite", "correlation_limit", "correlation_scan",
    "dimer_matrix", "e_phi", "e_phi_reduction", "exp_representation", "fourier_coefficients",
    "geometric_mean", "lambda_value", "log_determinant", "psi_table", "symbol_phi", "symbol_psi",
    "symbol_psi_inverse", "szego_E_operator", "theta_decomposition", "toeplitz_section",
    "widom_banded_E",
    "DimerParams",
    "DimerdetError", "BranchFailure", "DecompositionMismatch", "InvariantViolation",
    "NonzeroWinding", "NotBanded", "ParameterOutOfRange", "PoleInput", "QuadratureUnconverged",
    "SampleFailure", "SingularDeterminant", "SingularSymbol", "TailNotResolved",
    "TruncatedOperatorSingular", "TruncationTooShort",
]

__version__ = "0.1.0"
