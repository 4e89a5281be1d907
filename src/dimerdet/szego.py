"""Determinant constants by operator truncation and series identities.

The limit constant ``E`` of a block Toeplitz determinant sequence is an
operator determinant ``det T(phi) T(phi^{-1})``; this module computes it by
truncating the semi-infinite Hankel product at a finite order with an
a-posteriori tail estimate, and implements the identity toolkit that reduces
the dimer case to a finite determinant: scalar log series, Hankel traces,
the trace-based correction factor, the banded-symbol finite-determinant
formula, the one-step residual identity, and the exponential representation
of the dimer symbol.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dimer import DimerParams, symbol_phi, symbol_psi, _p, _q, _sigma
from .errors import (
    BranchFailure,
    NotBanded,
    TailNotResolved,
    TruncatedOperatorSingular,
)
from .spectral import (
    FourierTable,
    _lagrange_fill,
    MatrixSymbol,
    ScalarSymbol,
    as_matrix_symbol,
    fourier_coefficients,
    geometric_mean,
    grid_for_order,
    hankel_section,
    log_determinant,
    pivoted_lu,
    pointwise_inverse,
    series_symbol,
    toeplitz_matrix,
    toeplitz_section,
    winding_check,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TruncationConfig:
    """Truncation sizes for semi-infinite operators and scalar series."""

    op_order: int = 256
    series_order: int = 2048
    tolerance: float = 1e-10


def _coeff_magnitudes(tab: FourierTable, side: int) -> np.ndarray:
    """max-entry magnitudes of coefficients k = 1..K (side=+1) or -1..-K."""
    ks = np.arange(1, tab.order + 1) * side
    return np.array([np.max(np.abs(tab.coeff(int(k)))) for k in ks])


def _geometric_tail(mags: np.ndarray) -> float:
    """Crude geometric bound on the sum of the sequence beyond its last term."""
    nz = mags[mags > 0]
    if nz.size < 4:
        return 0.0
    window = nz[-max(4, nz.size // 4):]
    r = (window[-1] / window[0]) ** (1.0 / (window.size - 1))
    if not (0.0 < r < 1.0):
        return float(window[-1] * mags.size)
    return float(window[-1] * r / (1.0 - r))


def _hankel_hs_norms(tab: FourierTable, m: int, side: int) -> tuple[float, float]:
    """(full, discarded-tail) Hilbert-Schmidt estimates for a truncated Hankel.

    The HS norm of H is sqrt(sum_k k |phi_k|^2); truncation at order m
    discards the part weighted by coefficients beyond m, estimated from the
    table plus a geometric extrapolation past the table order.
    """
    mags = _coeff_magnitudes(tab, side)
    ks = np.arange(1, tab.order + 1, dtype=float)
    full = math.sqrt(float(np.sum(ks * mags ** 2)))
    beyond = mags[m:] if m < tab.order else mags[:0]
    tail_sq = float(np.sum((ks[m:] - m) * beyond ** 2)) if beyond.size else 0.0
    tail_sq += (tab.order + 1) * _geometric_tail(mags ** 2)
    return full, math.sqrt(tail_sq)


def szego_E_operator(sym: ScalarSymbol | MatrixSymbol, cfg: TruncationConfig,
                     grid_size: int = 4096) -> complex:
    """E(sym) = det(I - H(sym) H(symtilde^{-1})) on an op_order truncation.

    Requires det sym nonvanishing with winding number zero (checked).  The
    Hilbert-Schmidt weight of the discarded Hankel blocks is estimated from
    the coefficient decay; if it exceeds ``cfg.tolerance`` the truncation is
    rejected rather than silently returning an under-resolved value.
    """
    msym = as_matrix_symbol(sym)
    winding_check(msym, grid_size)
    order = min(2 * cfg.op_order - 1, grid_size // 4 - 1)
    tab = fourier_coefficients(msym, grid_size, order)
    tab_inv = fourier_coefficients(pointwise_inverse(msym), grid_size, order)
    m = cfg.op_order
    full1, tail1 = _hankel_hs_norms(tab, m, +1)
    full2, tail2 = _hankel_hs_norms(tab_inv, m, -1)
    tail = tail1 * full2 + full1 * tail2
    log.debug("szego_E_operator: truncation tail estimate %.3e", tail)
    if tail > cfg.tolerance:
        raise TailNotResolved(
            f"operator truncation tail {tail:.3e} exceeds {cfg.tolerance:.1e}; "
            "increase op_order")
    h1 = hankel_section(tab, m)
    h2 = hankel_section(tab_inv, m, reflected=True)
    ld = log_determinant(np.eye(m * msym.block_size) - h1 @ h2)
    return ld.value


def _partial_sum_with_tail(terms: np.ndarray, tol: float, what: str) -> complex:
    total = complex(np.sum(terms))
    est = _geometric_tail(np.abs(terms))
    log.debug("%s: tail estimate %.3e", what, est)
    if est > tol:
        raise TailNotResolved(f"{what}: series tail estimate {est:.3e} exceeds {tol:.1e}")
    return total


def scalar_E_series(logsym_coeffs: FourierTable, order: int,
                    tol: float = 1e-10) -> complex:
    """E from the scalar identity exp(sum k [log phi]_k [log phi]_{-k})."""
    if logsym_coeffs.block_size != 1:
        raise ValueError("scalar_E_series requires a scalar table")
    order = min(order, logsym_coeffs.order)
    ks = np.arange(1, order + 1)
    terms = np.array([k * logsym_coeffs.scalar(k) * logsym_coeffs.scalar(-k)
                      for k in ks])
    return complex(np.exp(_partial_sum_with_tail(terms, tol, "scalar_E_series")))


def hankel_trace(a: FourierTable, b: FourierTable, order: int,
                 tol: float = 1e-10) -> complex:
    """trace H(a) H(btilde) = sum_{m>=1} m a_m b_{-m}, summed to ``order``."""
    if a.block_size != 1 or b.block_size != 1:
        raise ValueError("hankel_trace requires scalar tables")
    order = min(order, a.order, b.order)
    ks = np.arange(1, order + 1)
    terms = np.array([k * a.scalar(k) * b.scalar(-k) for k in ks])
    return _partial_sum_with_tail(terms, tol, "hankel_trace")


def correction_factor(a: FourierTable, block_size: int, order: int,
                      tol: float = 1e-10) -> complex:
    """exp(N trace H(a) H(atilde)): the scalar-shift factor relating
    E(e^{a I_N + Q}) to E(e^Q)."""
    return complex(np.exp(block_size * hankel_trace(a, a, order, tol)))


def combine_tables(tables: list[FourierTable], weights: list[complex]) -> FourierTable:
    """Pointwise linear combination of coefficient tables (same shape/order)."""
    base = tables[0]
    coeffs = sum(complex(w) * t.coeffs for w, t in zip(weights, tables))
    return FourierTable(base.block_size, base.order, coeffs, base.tail_tol)


def widom_banded_E(psi_tab: FourierTable, band: int, grid_size: int = 4096) -> complex:
    """E(psi) = G(psi)^n det T_n(psi^{-1}) for one-sided banded symbols.

    ``psi_tab`` must have coefficients vanishing (below 1e-13) beyond
    ``band`` on at least one side.  The convention det T_0 = 1 makes the
    formula valid at band 0 as well.
    """
    upper = max((np.max(np.abs(psi_tab.coeff(k)))
                 for k in range(band + 1, psi_tab.order + 1)), default=0.0)
    lower = max((np.max(np.abs(psi_tab.coeff(-k)))
                 for k in range(band + 1, psi_tab.order + 1)), default=0.0)
    if min(upper, lower) > 1e-13:
        raise NotBanded(
            f"coefficients beyond band {band} reach {min(upper, lower):.3e} on both sides")
    sym = series_symbol(psi_tab)
    gmean = geometric_mean(sym, grid_size)
    if band == 0:
        return complex(1.0)
    inv_tab = fourier_coefficients(pointwise_inverse(sym), grid_size,
                                   grid_size // 4 - 1)
    det = log_determinant(toeplitz_matrix(inv_tab, band)).value
    return complex(gmean ** band * det)


def bocg_residual(psi_tab: FourierTable, n: int, cfg: TruncationConfig) -> complex:
    """The operator-determinant factor of the one-step reduction identity

        det T_n(psi^{-1}) = E(psi)/G(psi)^n *
            det(I - H(z^{-n} psi) T^{-1}(psitilde) H(psitilde z^{-n}) T^{-1}(psi)),

    computed on truncations of size ``op_order``.  Multiplying by z^{-n} is
    an index shift of the coefficient table.  The factor tends to 1 as n
    grows past the coefficient support.
    """
    m = cfg.op_order
    t_psi = pivoted_lu(toeplitz_section(psi_tab, m))
    t_psit = pivoted_lu(toeplitz_section(psi_tab, m, reflected=True))
    if t_psi[2].is_singular or t_psit[2].is_singular:
        raise TruncatedOperatorSingular("T(psi) or T(psitilde): pivot below threshold")
    h1 = hankel_section(psi_tab, m, shift=n)
    h2 = hankel_section(psi_tab, m, shift=n, reflected=True)
    inner = h1 @ scipy.linalg.lu_solve(t_psit[:2], h2, check_finite=False)
    # right-multiply by T(psi)^{-1} via a transposed solve
    prod = scipy.linalg.lu_solve(t_psi[:2], inner.T, trans=1, check_finite=False).T
    size = m * psi_tab.block_size
    return log_determinant(np.eye(size) - prod).value


# ---------------------------------------------------------------------------
# exponential representation of the dimer symbol
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpRepresentation:
    """The pieces of phi = exp(a I_2 + b Q) and the reconstructed symbol."""

    a: ScalarSymbol
    b: ScalarSymbol
    q_part: MatrixSymbol
    reconstructed: MatrixSymbol


def exp_representation(params: DimerParams) -> ExpRepresentation:
    """Write the dimer symbol as exp(a I_2 + b Q) with trace Q = 0.

    Here a = -(1/2) log(1 - 2t cos x + t^2) + i pi, Q collects the
    trace-free part, and b is fixed by a branch-normalized logarithm of
    alpha(x) = -(p + ptilde)/2 - Delta (real positive at x = 0 and pi).
    The matrix exponential is evaluated through cosh/sinh of b*Delta with
    the removable points x in {0, pi} filled by polynomial extrapolation.
    The reconstruction equals the product-form symbol sigma * psi, whose
    diagonal orientation is opposite to ``symbol_phi``; determinants do not
    see the difference.
    """
    if not params.is_real_unit_interval:
        raise BranchFailure(
            f"exponential representation is established for real t in (0, 1), got {params.t}")
    t = params.t.real

    def quad_poly(x):
        return 1.0 - 2.0 * t * np.cos(x) + t * t

    def a_fn(x):
        return -0.5 * np.log(quad_poly(x)) + 1j * np.pi

    def delta_fn(x):
        inner = quad_poly(x) ** 2 + (t * np.cos(x) + np.sin(x) ** 2) ** 2
        return 1j * np.sin(x) * np.sqrt(inner)

    def alpha_fn(x):
        return -(t * np.cos(x) + np.sin(x) ** 2) * (t - np.cos(x)) - delta_fn(x)

    # branch check: the principal log of alpha is the normalized continuous
    # one iff alpha never meets the closed negative real axis and is real
    # positive at the anchors x = 0, pi
    anchors = alpha_fn(np.array([0.0, np.pi]))
    if not (anchors.real > 0).all() or np.max(np.abs(anchors.imag)) > 1e-12:
        raise BranchFailure(f"alpha not real positive at anchors: {anchors}")
    probe = alpha_fn(2.0 * np.pi * np.arange(1024) / 1024 - np.pi)
    on_cut = (probe.real <= 0) & (np.abs(probe.imag) < 1e-13)
    if np.any(on_cut):
        raise BranchFailure("alpha(x) touches the negative real axis; "
                            "principal log is not the normalized branch")

    def w_fn(x):
        # w = b * Delta = -a + i pi + log sigma + log alpha; the i pi from a
        # cancels against the explicit one, leaving principal logs only
        return (0.5 * np.log(quad_poly(x)) + np.log(_sigma(t, x).real)
                + np.log(alpha_fn(x)))

    def ratio_direct(x):
        return np.sinh(w_fn(x)) / delta_fn(x)

    def b_direct(x):
        return w_fn(x) / delta_fn(x)

    def removable(x):
        return np.abs(np.sin(x)) < 1e-6

    def ratio_fn(x):
        x = np.asarray(x, dtype=float)
        return _lagrange_fill(ratio_direct, x, removable(x), 5e-4)

    def b_fn(x):
        x = np.asarray(x, dtype=float)
        return _lagrange_fill(b_direct, x, removable(x), 5e-4)

    def q11(x):
        return (_p(t, x) - _p(t, -x)) / 2.0

    q_part = MatrixSymbol.from_entries([
        [ScalarSymbol(q11), ScalarSymbol(lambda x: _q(t, x))],
        [ScalarSymbol(lambda x: _q(t, -x)), ScalarSymbol(lambda x: -q11(x))],
    ])

    def entry(i, j):
        def eval_(x):
            x = np.asarray(x, dtype=float)
            ea = np.exp(a_fn(x))
            ratio = ratio_fn(x)
            qv = q_part.entries[i][j](x)
            val = ratio * qv
            if i == j:
                val = val + np.cosh(w_fn(x))
            return ea * val
        return ScalarSymbol(eval_)

    reconstructed = MatrixSymbol.from_entries(
        [[entry(0, 0), entry(0, 1)], [entry(1, 0), entry(1, 1)]])
    return ExpRepresentation(ScalarSymbol(a_fn), ScalarSymbol(b_fn),
                             q_part, reconstructed)


# ---------------------------------------------------------------------------
# the reduction route to the dimer constant
# ---------------------------------------------------------------------------

def alpha_log_tables(params: DimerParams, order: int) -> tuple[FourierTable, FourierTable]:
    """Fourier tables of alpha_1 = log(1-2t cos x+t^2) and
    alpha_2 = log(t^2+sin^2 x+sin^4 x); real logs for real t in (0,1)."""
    if not params.is_real_unit_interval:
        raise BranchFailure(f"log symbols need real t in (0, 1), got {params.t}")
    t = params.t.real
    grid = grid_for_order(order)
    a1 = ScalarSymbol(lambda x: np.log(1.0 - 2.0 * t * np.cos(x) + t * t) + 0j)
    a2 = ScalarSymbol(lambda x: np.log(t * t + np.sin(x) ** 2 + np.sin(x) ** 4) + 0j)
    return (fourier_coefficients(a1, grid, order),
            fourier_coefficients(a2, grid, order))


def e_phi_operator(params: DimerParams, cfg: TruncationConfig) -> complex:
    """E(phi) by operator truncation of the dimer symbol; real t in (0, 1)."""
    return szego_E_operator(symbol_phi(params), cfg, params.fourier_m)


def e_phi_reduction(params: DimerParams, cfg: TruncationConfig | None = None) -> complex:
    """E(phi) by the trace-correction + banded-determinant route.

    The dimer symbol factors through exp representations with scalar shifts
    a_1 (for phi) and a_2 (for sigma^{-1} phi); the correction-factor
    quotient converts E(sigma^{-1} phi) into E(phi), and E(sigma^{-1} phi)
    itself is a band-3 symbol handled by the finite-determinant formula.
    """
    cfg = cfg or TruncationConfig()
    tab1, tab2 = alpha_log_tables(params, cfg.series_order)
    a1 = combine_tables([tab1], [-0.5])
    a2 = combine_tables([tab1, tab2], [0.5, 0.5])
    corr = (correction_factor(a1, 2, cfg.series_order, cfg.tolerance)
            / correction_factor(a2, 2, cfg.series_order, cfg.tolerance))
    psi_tab = fourier_coefficients(symbol_psi(params), 64, 8)
    return complex(corr * widom_banded_E(psi_tab, 3, params.fourier_m))
