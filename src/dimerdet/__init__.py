"""Block Toeplitz determinant asymptotics for the dimer correlation limit.

The package computes the monomer-monomer correlation of the classical dimer
model on the square-to-triangular interpolating lattice, both at finite
separation (finite determinants) and in the limit (closed form), and
cross-validates every identity used along the way: the finite-section
equivalence, the operator-determinant constant, the banded-symbol reduction,
trace corrections, and the analytic continuation to all parameters with
positive real part.
"""

from .closed_form import (
    CoefficientBundle,
    SpectralRoots,
    coefficient_bundle,
    correlation_limit,
    e_phi,
    kl_helpers,
    lambda_long_form,
    lambda_value,
    prefactor,
    spectral_roots,
)
from .continuation import (
    ContinuedSequence,
    LimitScan,
    ScanRow,
    b_hat,
    correlation_finite,
    e_plus_symbol,
    k_plus_matrix,
    limit_scan,
    theta_decomposition,
)
from .dimer import (
    DimerCoefficients,
    DimerParams,
    KernelSymbols,
    dimer_coefficients,
    dimer_matrix,
    flip_conjugate,
    kernel_symbols,
    phi_table,
    symbol_a_b,
    symbol_d,
    symbol_phi,
    symbol_phi_product,
    symbol_psi,
    symbol_psi_inverse,
)
from .errors import (
    BranchFailure,
    DecompositionMismatch,
    DegenerateRoots,
    DimensionMismatch,
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
from .spectral import (
    FourierTable,
    LogDet,
    MatrixSymbol,
    ScalarSymbol,
    fourier_coefficients,
    geometric_mean,
    hankel_matrix,
    hankel_section,
    log_determinant,
    pointwise_inverse,
    series_symbol,
    toeplitz_matrix,
    toeplitz_section,
)
from .szego import (
    ExpRepresentation,
    alpha_log_tables,
    bocg_residual,
    combine_tables,
    correction_factor,
    e_phi_reduction,
    exp_representation,
    hankel_trace,
    psi_table,
    szego_E_operator,
    widom_banded_E,
)

__version__ = "0.1.0"
