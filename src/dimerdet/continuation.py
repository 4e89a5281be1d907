"""The one route for P(n): the regular section, for every Re(t) > 0.

For real 0 < t < 1 the diagonal symbol entry splits as c = e+ + u, u the
geometric-series symbol with section K+ (bands t^{j-k-1}); e+ stays smooth
on the whole half-plane.  T_n(e+) + K+ continues the section (``b_hat``,
entries growing like t^n), and pre-multiplying by T_n(Theta+), of
determinant 1, gives the regular T_n(phi_hat) + P_n K P_n + W_n L W_n.
:func:`correlation_finite` and :func:`limit_scan` use :func:`theta_section`;
``b_hat`` and ``_phi_hat_symbol`` are only references checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .closed_form import e_phi
from .errors import (
    BranchFailure,
    DecompositionMismatch,
    InvariantViolation,
    ParameterOutOfRange,
    TruncationTooShort,
)
from .spectral import (
    FourierTable,
    _lagrange_fill,
    MatrixSymbol,
    ScalarSymbol,
    fourier_coefficients,
    grid_for_order,
    log_determinant,
    pivoted_lu,
    toeplitz_matrix,
)
from .dimer import DimerParams, _d, _weight, symbol_d

#: circle-distance below which the removable point of e+ is extrapolated
POLE_WINDOW = 1e-4


@dataclass(frozen=True)
class ContinuedSequence:
    """The continued section b_hat and the dense corrections K and L."""

    t: complex
    n: int
    b_hat: np.ndarray
    k_op: np.ndarray
    l_op: np.ndarray
    identity_residual: float


def e_plus_symbol(t: complex) -> ScalarSymbol:
    """The regularized diagonal entry e+ = c - 1/(e^{-ix} - t).

    Evaluated as a single fraction so the numerator cancellation at
    e^{-ix} = t is explicit; within ``POLE_WINDOW`` of that (removable)
    point the value is filled by 4-point polynomial extrapolation from
    nearby angles, where the direct formula is well conditioned.
    """
    t = complex(t)
    if not t.real > 0:
        raise ParameterOutOfRange(f"Re(t) must be positive, got {t}")

    def direct(x):
        root = _weight(t, x)
        if np.any(np.abs(root) < 1e-13):
            raise BranchFailure("weight root vanished on evaluation points")
        return ((t * np.cos(x) + np.sin(x) ** 2) - root) / ((np.exp(-1j * x) - t) * root)

    def eval_(x):
        x = np.asarray(x, dtype=float)
        return _lagrange_fill(direct, x, np.abs(np.exp(-1j * x) - t) < POLE_WINDOW, 3e-4)

    return ScalarSymbol(eval_)


def k_plus_matrix(t: complex, n: int) -> np.ndarray:
    """Strictly lower triangular Toeplitz section with entries t^{j-k-1}.

    For |t| < 1 this is the section of the symbol 1/(e^{-ix} - t); for other
    parameters it is its entrywise analytic continuation.
    """
    t = complex(t)
    j = np.arange(n)[:, None]
    k = np.arange(n)[None, :]
    expo = np.where(j > k, j - k - 1, 0)
    return np.where(j > k, t ** expo, 0.0 + 0.0j)


def _scalar_tables(t: complex, grid_size: int, order: int):
    """Fourier tables of e+ and d to ``order``, on a grid of at least ``grid_size``."""
    grid = max(grid_size, grid_for_order(order))
    return [fourier_coefficients(sym, grid, order) for sym in (e_plus_symbol(t), symbol_d(t))]


def b_hat(t: complex, n: int, grid_size: int = 4096, order: int = 512) -> np.ndarray:
    """The continued section [[B, T_n(d)], [T_n(d)^T, B^T]], B = T_n(e+) + K+.

    For real 0 < t < 1 its determinant equals det T_n(phi); for every other
    parameter with Re(t) > 0 it is the analytic continuation of that
    determinant in t.
    """
    t = complex(t)
    e_tab, d_tab = _scalar_tables(t, grid_size, max(order, n))
    b = toeplitz_matrix(e_tab, n) + k_plus_matrix(t, n)
    d = toeplitz_matrix(d_tab, n)
    return np.block([[b, d], [d.T, b.T]])


def _phi_hat_symbol(t: complex) -> MatrixSymbol:
    """Theta+ * phi, written so every entry is regular on Re(t) > 0.

    Theta+ = diag(1 - t e^{ix}, 1 - t e^{-ix}) and
    (1 - t e^{ix}) / (e^{-ix} - t) = e^{ix} exactly, so the diagonal entries
    are (1 - t e^{+-ix}) e+(+-x) + e^{+-ix} with no near-pole cancellation.
    This sampled form is the reference for :func:`_phi_hat_table`.
    """
    ep = e_plus_symbol(t)

    def h11(x):
        return (1.0 - t * np.exp(1j * x)) * ep(x) + np.exp(1j * x)

    def h12(x):
        return (1.0 - t * np.exp(1j * x)) * _d(t, x)

    def h21(x):
        return (1.0 - t * np.exp(-1j * x)) * _d(t, -x)

    def h22(x):
        return (1.0 - t * np.exp(-1j * x)) * ep(-x) + np.exp(-1j * x)

    return MatrixSymbol.from_entries([
        [ScalarSymbol(h11), ScalarSymbol(h12)],
        [ScalarSymbol(h21), ScalarSymbol(h22)],
    ])


def _phi_hat_table(t: complex, e_tab: FourierTable, d_tab: FourierTable) -> FourierTable:
    """Coefficients of Theta+ phi+ from the e+ and d tables, one order lower.

    Entry (1,1) is e_k - t e_{k-1} + delta_{k,1} and (1,2) is d_k - t d_{k-1};
    entries (2,2) and (2,1) are the same two at index -k.
    """
    order = e_tab.order - 1
    out = np.empty((2 * order + 1, 2, 2), dtype=complex)
    for col, tab in enumerate((e_tab, d_tab)):
        c = tab.coeffs[:, 0, 0]  # c[k + order + 1] is coefficient k
        out[:, 0, col] = c[1:-1] - t * c[:-2]
    out[order + 1, 0, 0] += 1.0
    out[:, 1, ::-1] = out[::-1, 0, :]
    return FourierTable(2, order, out, e_tab.tail_tol)


def _k_row(t: complex, n: int, e_tab: FourierTable, d_tab: FourierTable) -> np.ndarray:
    """Row 0 of K = -H(Theta+) H(phitilde+): t [e_{-(j+1)}, d_{-(j+1)}] in block j.

    Row 1 of L = -H(Thetatilde+) H(phi+) holds the same pairs swapped, so
    row 2n-1 of W_n L W_n is this row reversed.
    """
    order = e_tab.order
    em = e_tab.coeffs[order - n:order, 0, 0][::-1]  # e_{-1}, ..., e_{-n}
    dm = d_tab.coeffs[order - n:order, 0, 0][::-1]
    return t * np.column_stack([em, dm]).ravel()


def theta_section(t: complex, n: int, e_tab: FourierTable,
                  d_tab: FourierTable) -> np.ndarray:
    """T_n(phi_hat) + P_n K P_n + W_n L W_n, the section P(n) is taken from.

    Block (j, k) is phi_hat_{j-k}, copied once from a zero-copy sliding
    window into a Fortran-ordered buffer that ``pivoted_lu`` factors in
    place; K adds to row 0 and W_n L W_n to row 2n-1 (see :func:`_k_row`).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > e_tab.order:
        raise TruncationTooShort(
            f"section n={n} needs coefficients to {n}, table has {e_tab.order}")
    tab = _phi_hat_table(t, e_tab, d_tab)
    coeffs = tab.coeffs[tab.order - n + 1:tab.order + n]  # indices 1-n .. n-1
    out = np.empty((2 * n, 2 * n), dtype=complex, order="F")
    # row 2j + a is blocks[a, j]; window [j, a, b, k] holds coefficient j - k
    blocks = out.reshape((2, n, 2, n), order="F")
    blocks[...] = sliding_window_view(coeffs, n, axis=0)[..., ::-1].transpose(1, 0, 2, 3)
    k_row = _k_row(t, n, e_tab, d_tab)
    out[0] += k_row
    out[-1] += k_row[::-1]
    return out


def theta_decomposition(t: complex, n: int, grid_size: int = 4096,
                        order: int = 512) -> ContinuedSequence:
    """Check det b_hat = det(T_n(phi_hat) + P_n K P_n + W_n L W_n) to 1e-9.

    K = -H(Theta+) H(phitilde+) and L = -H(Thetatilde+) H(phi+) are the
    rank-one corrections from the pre-multiplication by T_n(Theta+).
    """
    t = complex(t)
    lhs_mat = b_hat(t, n, grid_size, order)
    e_tab, d_tab = _scalar_tables(t, grid_size, max(order, n))
    k_row = _k_row(t, n, e_tab, d_tab)
    k_op = np.zeros((2 * n, 2 * n), dtype=complex)
    l_op = np.zeros((2 * n, 2 * n), dtype=complex)
    k_op[0], l_op[1] = k_row, k_row.reshape(n, 2)[:, ::-1].ravel()

    lhs = log_determinant(lhs_mat).value
    rhs = pivoted_lu(theta_section(t, n, e_tab, d_tab))[2].value
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    if residual > 1e-9:
        raise DecompositionMismatch(
            f"det b_hat = {lhs} vs decomposed {rhs} at t={t}, n={n}")
    return ContinuedSequence(t, n, lhs_mat, k_op, l_op, residual)


def correlation_finite(params: DimerParams, n: int) -> complex:
    """P(n) = (1/2) sqrt(det :func:`theta_section`), principal root.

    The e+ and d tables go to order ``max(fourier_k, n)`` on at least
    ``fourier_m`` points.  For real t an imaginary residue up to 1e-10 is dropped.
    """
    t = params.t
    tables = _scalar_tables(t, params.fourier_m, max(params.fourier_k, n))
    val = 0.5 * np.sqrt(pivoted_lu(theta_section(t, n, *tables))[2].value)
    if t.imag == 0.0:
        if abs(val.imag) > 1e-10:
            raise InvariantViolation(
                f"correlation at real t has imaginary residue {val.imag:.3e}")
        val = val.real
    return complex(val)


@dataclass(frozen=True)
class ScanRow:
    n: int
    value: complex
    abs_error: float


@dataclass(frozen=True)
class LimitScan:
    t: complex
    target: complex
    rows: tuple[ScanRow, ...]

    @property
    def errors_decreasing(self) -> bool:
        errs = [r.abs_error for r in self.rows]
        return all(b < a for a, b in zip(errs, errs[1:]))


def limit_scan(t: complex, n_list: list[int], grid_size: int = 4096,
               order: int = 512) -> LimitScan:
    """det of :func:`theta_section` along increasing n, with distances to
    the closed-form limit; the e+ and d tables are built once for all n.
    """
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    t = complex(t)
    target = e_phi(t)
    e_tab, d_tab = _scalar_tables(t, grid_size, max(order, max(n_list)))
    rows = []
    for n in n_list:
        det = pivoted_lu(theta_section(t, n, e_tab, d_tab))[2].value
        rows.append(ScanRow(n, det, abs(det - target)))
    return LimitScan(t, target, tuple(rows))
