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

from .dimer import DimerParams, symbol_psi, _p, _q, _sigma
from .errors import (
    BranchFailure,
    NotBanded,
    TailNotResolved,
    TruncatedOperatorSingular,
)
from .spectral import (
    FourierTable,
    _lagrange_fill,
    _stack_entries,
    MIN_ORDER,
    MatrixSymbol,
    ScalarSymbol,
    as_matrix_symbol,
    common_order_tables,
    fourier_coefficients,
    geometric_mean,
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


#: the largest operator truncation m (in blocks) that :func:`szego_E_operator`
#: and :func:`bocg_residual` build.  Memory, not time, sets it: with 2x2
#: blocks the product holds two (2m)^2 complex buffers, 19 MB at m = 384,
#: and every further 64 adds about 7 MB
MAX_OP_ORDER = 384


def _one_side(tab: FourierTable, side: int) -> np.ndarray:
    """Coefficient blocks k = 1..K (side=+1) or k = -1..-K (side=-1)."""
    mid = tab.order
    return tab.coeffs[mid + 1:] if side > 0 else tab.coeffs[:mid][::-1]


def _coeff_magnitudes(tab: FourierTable, side: int) -> np.ndarray:
    """max-entry magnitudes of coefficients k = 1..K (side=+1) or -1..-K."""
    return np.abs(_one_side(tab, side)).max(axis=(1, 2), initial=0.0)


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


def _hankel_hs_tails(tab: FourierTable, side: int, m_max: int) -> tuple[float, np.ndarray]:
    """Hilbert-Schmidt estimates for a Hankel: the full norm, and the
    discarded tail of its truncation at each order m = 0..m_max.

    The HS norm of H is sqrt(sum_k k |phi_k|^2); truncation at order m
    discards the part weighted by coefficients beyond m, estimated from the
    table plus a geometric extrapolation past the table order.
    """
    w = _coeff_magnitudes(tab, side) ** 2
    ks = np.arange(1, tab.order + 1)
    full = math.sqrt(float(np.sum(ks * w)))
    # sum_{k>m} (k - m) |phi_k|^2 = sum_{j>m} sum_{k>=j} |phi_k|^2, a double
    # suffix sum; zero for m >= order
    tail_sq = np.zeros(max(m_max, tab.order) + 1)
    tail_sq[:tab.order] = np.cumsum(np.cumsum(w[::-1]))[::-1]
    return full, np.sqrt(tail_sq[:m_max + 1] + (tab.order + 1) * _geometric_tail(w))


def szego_E_operator(sym: ScalarSymbol | MatrixSymbol, tol: float = 1e-10) -> complex:
    """E(sym) = det(I - H(sym) H(symtilde^{-1})) on the smallest truncation
    whose Hilbert-Schmidt tail estimate is below ``tol``.

    Requires det sym nonvanishing with winding number zero (checked).  Both
    tables follow the doubling rule of :func:`fourier_coefficients`; the tail
    is read off for every order up to ``MAX_OP_ORDER``, past which the
    truncation is rejected rather than silently under-resolved.
    """
    msym = as_matrix_symbol(sym)
    winding_check(msym)
    tab = fourier_coefficients(msym)
    tab_inv = fourier_coefficients(pointwise_inverse(msym))
    full1, tail1 = _hankel_hs_tails(tab, +1, MAX_OP_ORDER)
    full2, tail2 = _hankel_hs_tails(tab_inv, -1, MAX_OP_ORDER)
    tail = tail1 * full2 + full1 * tail2
    resolved = np.flatnonzero(tail[1:] <= tol)
    if resolved.size == 0:
        raise TailNotResolved(
            f"operator truncation tail {tail[-1]:.3e} exceeds {tol:.1e} at the cap "
            f"MAX_OP_ORDER = {MAX_OP_ORDER}")
    m = int(resolved[0]) + 1
    log.debug("szego_E_operator: order %d, truncation tail estimate %.3e", m, tail[m])
    return _operator_det(tab, tab_inv, m)


def _operator_det(tab: FourierTable, tab_inv: FourierTable, m: int) -> complex:
    """det(I - H(sym) H(symtilde^{-1})) on the order-m truncation, from the
    tables of sym and sym^{-1}, built and factored in one buffer."""
    a, h2 = hankel_section(tab, m), hankel_section(tab_inv, m, reflected=True)
    # the product overwrites H1 a row block at a time, so two buffers are live
    for lo in range(0, a.shape[0], 128):
        a[lo:lo + 128] = a[lo:lo + 128] @ h2
    a *= -1.0
    a.flat[::a.shape[0] + 1] += 1.0
    # a.T is Fortran-ordered, so pivoted_lu factors it in place; det a.T = det a
    return pivoted_lu(a.T)[2].value


def hankel_trace(a: FourierTable, b: FourierTable, order: int,
                 tol: float = 1e-10) -> complex:
    """trace H(a) H(btilde) = sum_{m>=1} m a_m b_{-m}, summed to ``order``."""
    if a.block_size != 1 or b.block_size != 1:
        raise ValueError("hankel_trace requires scalar tables")
    order = min(order, a.order, b.order)
    terms = (np.arange(1, order + 1) * _one_side(a, 1)[:order, 0, 0]
             * _one_side(b, -1)[:order, 0, 0])
    est = _geometric_tail(np.abs(terms))
    log.debug("hankel_trace: tail estimate %.3e", est)
    if est > tol:
        raise TailNotResolved(f"hankel_trace: series tail estimate {est:.3e} exceeds {tol:.1e}")
    return complex(np.sum(terms))


def correction_factor(a: FourierTable, block_size: int, order: int,
                      tol: float = 1e-10) -> complex:
    """exp(N trace H(a) H(atilde)): the scalar-shift factor relating
    E(e^{a I_N + Q}) to E(e^Q), and at N = 1 the scalar constant E(e^a)."""
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
    formula valid at band 0 as well.  ``grid_size`` is the geometric mean's
    grid; the psi^{-1} table follows the doubling rule of
    :func:`fourier_coefficients`.
    """
    upper = np.max(_coeff_magnitudes(psi_tab, 1)[band:], initial=0.0)
    lower = np.max(_coeff_magnitudes(psi_tab, -1)[band:], initial=0.0)
    if min(upper, lower) > 1e-13:
        raise NotBanded(
            f"coefficients beyond band {band} reach {min(upper, lower):.3e} on both sides")
    sym = series_symbol(psi_tab)
    gmean = geometric_mean(sym, grid_size)
    if band == 0:
        return complex(1.0)
    inv_tab = fourier_coefficients(pointwise_inverse(sym), order=band)
    det = log_determinant(toeplitz_matrix(inv_tab, band)).value
    return complex(gmean ** band * det)


def bocg_residual(psi_tab: FourierTable, n: int, tol: float = 1e-10) -> complex:
    """The operator-determinant factor of the one-step reduction identity

        det T_n(psi^{-1}) = E(psi)/G(psi)^n *
            det(I - H(z^{-n} psi) T^{-1}(psitilde) H(psitilde z^{-n}) T^{-1}(psi)),

    on truncations of size m doubled from ``MIN_ORDER`` until one more
    doubling moves it by at most ``tol`` (relative), up to ``MAX_OP_ORDER``.
    The factor tends to 1 as n grows past the coefficient support.
    """
    m = MIN_ORDER
    value = _bocg_truncated(psi_tab, n, m)
    while m < MAX_OP_ORDER:
        m = min(2 * m, MAX_OP_ORDER)
        value, coarse = _bocg_truncated(psi_tab, n, m), value
        if abs(value - coarse) <= tol * abs(value):
            return value
    raise TailNotResolved(
        f"bocg_residual: doubling the truncation to the cap MAX_OP_ORDER = {MAX_OP_ORDER} "
        f"moved the residual by {abs(value - coarse):.3e}")


def _bocg_truncated(psi_tab: FourierTable, n: int, m: int) -> complex:
    """:func:`bocg_residual` on the order-m truncations of T(psi) and T(psitilde).

    Multiplying by z^{-n} is an index shift of the coefficient table.  Both
    Hankel sections vanish outside their leading r = N (order - n) rows and
    columns, so the product is block triangular and its determinant is
    exactly the leading r x r one.
    """
    t_psi = pivoted_lu(toeplitz_section(psi_tab, m))
    t_psit = pivoted_lu(toeplitz_section(psi_tab, m, reflected=True))
    if t_psi[2].is_singular or t_psit[2].is_singular:
        raise TruncatedOperatorSingular("T(psi) or T(psitilde): pivot below threshold")
    support = min(m, max(0, psi_tab.order - n))
    r = support * psi_tab.block_size
    if r == 0:
        return complex(1.0)
    h1 = hankel_section(psi_tab, support, shift=n)
    rhs = np.zeros((m * psi_tab.block_size, r), dtype=complex)
    rhs[:r] = hankel_section(psi_tab, support, shift=n, reflected=True)
    inner = h1 @ scipy.linalg.lu_solve(t_psit[:2], rhs, check_finite=False)[:r]
    # right-multiply by T(psi)^{-1} via a transposed solve
    rhs[:r] = inner.T
    prod = scipy.linalg.lu_solve(t_psi[:2], rhs, trans=1, check_finite=False)[:r].T
    return log_determinant(np.eye(r) - prod).value


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

    def q_fn(x):
        q11 = (_p(t, x) - _p(t, -x)) / 2.0
        return _stack_entries([[q11, _q(t, x)], [_q(t, -x), -q11]], x.size)

    def reconstructed_fn(x):
        # exp(a I + w/Delta Q) = e^a (cosh(w) I + sinh(w)/Delta Q), as Q^2 = Delta^2 I
        ea = np.exp(a_fn(x))[:, None, None]
        val = ratio_fn(x)[:, None, None] * q_fn(x)
        val += np.cosh(w_fn(x))[:, None, None] * np.eye(2)
        return ea * val

    q_part = MatrixSymbol(q_fn, 2)
    reconstructed = MatrixSymbol(reconstructed_fn, 2)
    return ExpRepresentation(ScalarSymbol(a_fn), ScalarSymbol(b_fn),
                             q_part, reconstructed)


# ---------------------------------------------------------------------------
# the reduction route to the dimer constant
# ---------------------------------------------------------------------------

def alpha_log_tables(params: DimerParams) -> tuple[FourierTable, FourierTable]:
    """Fourier tables of alpha_1 = log(1-2t cos x+t^2) and
    alpha_2 = log(t^2+sin^2 x+sin^4 x); real logs for real t in (0,1).

    Both follow the doubling rule of :func:`fourier_coefficients` and share
    one order, so they can be combined coefficient-wise.
    """
    if not params.is_real_unit_interval:
        raise BranchFailure(f"log symbols need real t in (0, 1), got {params.t}")
    t = params.t.real
    return common_order_tables((
        ScalarSymbol(lambda x: np.log(1.0 - 2.0 * t * np.cos(x) + t * t) + 0j),
        ScalarSymbol(lambda x: np.log(t * t + np.sin(x) ** 2 + np.sin(x) ** 4) + 0j)))


def correction_quotient(params: DimerParams, tol: float = 1e-10) -> complex:
    """E(phi) / E(sigma^{-1} phi) as a quotient of trace-correction factors.

    The dimer symbol factors through exp representations with scalar shifts
    a_1 = -alpha_1/2 (for phi) and a_2 = (alpha_1 + alpha_2)/2 (for
    sigma^{-1} phi); the quotient equals the closed-form ``prefactor``.
    """
    tab1, tab2 = alpha_log_tables(params)
    a1 = combine_tables([tab1], [-0.5])
    a2 = combine_tables([tab1, tab2], [0.5, 0.5])
    return (correction_factor(a1, 2, a1.order, tol)
            / correction_factor(a2, 2, a2.order, tol))


def psi_table(params: DimerParams) -> FourierTable:
    """The table of the band-3 symbol psi = sigma^{-1} phi, to order 8."""
    return fourier_coefficients(symbol_psi(params), 64, 8)


def e_phi_reduction(params: DimerParams, tol: float = 1e-10) -> complex:
    """E(phi) by the trace-correction + banded-determinant route.

    :func:`correction_quotient` converts E(sigma^{-1} phi) into E(phi), and
    E(sigma^{-1} phi) itself is a band-3 symbol handled by the
    finite-determinant formula.
    """
    return complex(correction_quotient(params, tol) * widom_banded_E(psi_table(params), 3))
