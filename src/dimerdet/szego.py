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

from .dimer import DimerParams, _angle_terms, _unit_interval_t, symbol_psi
from .errors import (
    BranchFailure,
    NonzeroWinding,
    NotBanded,
    TailNotResolved,
    TruncatedOperatorSingular,
)
from .spectral import (
    FourierTable,
    _checkerboard_real,
    _doubled,
    _gemm,
    _inverse_samples,
    _series,
    _stack_entries,
    MatrixSymbol,
    ScalarSymbol,
    common_order_tables,
    fourier_coefficients,
    geometric_means,
    hankel_section,
    log_determinant,
    pivoted_lu,
    toeplitz_determinants,
    toeplitz_section,
)

log = logging.getLogger(__name__)


#: the operator truncation m (in blocks) :func:`bocg_residual` doubles from
MIN_OP_ORDER = 32
#: the largest operator truncation m (in blocks) that :func:`szego_E_operator`
#: and :func:`bocg_residual` build.  Memory, not time, sets it: with 2x2
#: blocks the product holds two (2m)^2 buffers and a 2m x m half of the
#: product, float64 where the tables allow it (real t, see
#: :func:`_operator_det`), 11.8 MB at m = 384, and complex otherwise,
#: 24 MB; every further 64 adds about 4.3 or 8.5 MB
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


def szego_E_operator(sym: MatrixSymbol, tol: float = 1e-10) -> complex:
    """E(sym) = det(I - H(sym) H(symtilde^{-1})) on the smallest truncation
    whose Hilbert-Schmidt tail estimate is below ``tol``.

    Requires det sym nonvanishing with winding number zero (checked).  The
    tables of sym and sym^{-1} come from one sampling of sym per grid point,
    at the one order :func:`common_order_tables` resolves, and so does the
    winding number of det sym, sum_k k tr((sym^{-1})_{-k} sym_k): at least
    1/2 in modulus raises NonzeroWinding.  Past ``MAX_OP_ORDER`` the
    truncation is rejected rather than silently under-resolved.

    The estimate is min(tail1 full2, full1 tail2), tail and full HS norms of
    H1 = H(sym), H2 = H(symtilde^{-1}).  With P the first m block rows and
    Q = I - P, a small H2 Q makes H1 H2 block lower-triangular in (P, Q) up to
    O(full1 tail2), the section determinant's error, so slow rows below it do
    not enter; det(I - H1 H2) = det(I - H2 H1), sections too, gives the other.
    """
    def with_inverse(x):
        v = sym.sample(x)
        return np.stack([v, _inverse_samples(v)], axis=1)

    tab, tab_inv = common_order_tables(with_inverse)
    ks = np.arange(-tab.order, tab.order + 1)
    winding = np.einsum("k,kij,kji->", ks, tab_inv.coeffs[::-1], tab.coeffs)
    if abs(winding) >= 0.5:
        raise NonzeroWinding(f"det of the symbol winds {winding.real:.3f} times around 0")
    full1, tail1 = _hankel_hs_tails(tab, +1, MAX_OP_ORDER)
    full2, tail2 = _hankel_hs_tails(tab_inv, -1, MAX_OP_ORDER)
    tail = np.minimum(tail1 * full2, full1 * tail2)
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
    tables of sym and sym^{-1}, built and factored in one buffer.

    Where both tables are real after the similarity of
    :func:`dimerdet.spectral._checkerboard_real` (at real t the dimer
    symbol's are), the sections, their product and its LU are float64, of
    the same determinant; otherwise they are complex."""
    real = _checkerboard_real(tab), _checkerboard_real(tab_inv)
    if all(r is not None for r in real):
        tab, tab_inv = real
    h1, a = hankel_section(tab, m), hankel_section(tab_inv, m, reflected=True)
    # the product overwrites H2 one column half at a time, with a 2m x m temporary
    for half in (slice(None, m), slice(m, None)):
        a[:, half] = _gemm(h1, a[:, half])
    a *= -1.0
    a.flat[::a.shape[0] + 1] += 1.0
    return pivoted_lu(a)[2].value


def hankel_trace(a: FourierTable, b: FourierTable, tol: float = 1e-10) -> complex:
    """trace H(a) H(btilde) = sum_{m>=1} m a_m b_{-m}, summed to the lower
    of the two table orders."""
    if a.block_size != 1 or b.block_size != 1:
        raise ValueError("hankel_trace requires scalar tables")
    order = min(a.order, b.order)
    terms = (np.arange(1, order + 1) * _one_side(a, 1)[:order, 0, 0]
             * _one_side(b, -1)[:order, 0, 0])
    est = _geometric_tail(np.abs(terms))
    log.debug("hankel_trace: tail estimate %.3e", est)
    if est > tol:
        raise TailNotResolved(f"hankel_trace: series tail estimate {est:.3e} exceeds {tol:.1e}")
    return complex(np.sum(terms))


def correction_factor(a: FourierTable, block_size: int, tol: float = 1e-10) -> complex:
    """exp(N trace H(a) H(atilde)): the scalar-shift factor relating
    E(e^{a I_N + Q}) to E(e^Q), and at N = 1 the scalar constant E(e^a)."""
    return complex(np.exp(block_size * hankel_trace(a, a, tol)))


def widom_banded_E(psi_tab: FourierTable, band: int) -> complex:
    """E(psi) = G(psi)^n det T_n(psi^{-1}) for a one-sided banded symbol,
    n = ``band``: the family of one of :func:`widom_banded_family`."""
    return complex(widom_banded_family(psi_tab.coeffs[:, None], [band])[0])


def widom_banded_family(coeffs: np.ndarray, bands) -> np.ndarray:
    """E(psi) = G(psi)^n det T_n(psi^{-1}) for each of a family of one-sided
    banded symbols of one block size N, n = ``bands[i]`` for the symbol
    whose coefficient k is ``coeffs[k + K, i]``: the family's coefficient
    stack, shape (2K + 1, len(bands), N, N), its tables padded to one order.

    Each symbol must have coefficients vanishing (below 1e-13) beyond its
    band on at least one side, checked on the stack in one pass; NotBanded
    names the first that does not.  The convention det T_0 = 1 makes the
    formula valid at band 0 as well.  One evaluator samples the family, the
    Fourier series of the stack, so the geometric means come from one
    doubling run (:func:`geometric_means`) and the psi^{-1} tables from one
    run of :func:`common_order_tables`, each on the grid its slowest symbol
    needs, the tables reading the samples the means took on ``MIN_GRID``;
    the band x band determinants come from the stacked sections of those
    tables in one pass (:func:`dimerdet.spectral.toeplitz_determinants`).
    """
    bands = np.asarray(bands)
    order = coeffs.shape[0] // 2
    mags = np.abs(coeffs).max(axis=(2, 3))
    ks = np.arange(-order, order + 1)[:, None]
    beyond = np.minimum(np.max(mags, axis=0, where=ks > bands, initial=0.0),
                        np.max(mags, axis=0, where=ks < -bands, initial=0.0))
    wide = np.flatnonzero(beyond > 1e-13)
    if wide.size:
        raise NotBanded(f"coefficients beyond band {bands[wide[0]]} reach "
                        f"{beyond[wide[0]]:.3e} on both sides")
    sample = _series(coeffs)
    gmeans = geometric_means(sample)
    dets = np.ones(bands.size)  # det T_0
    if bands.max() > 0:
        inv_tabs = common_order_tables(lambda x: _inverse_samples(sample(x)), int(bands.max()))
        inv = np.stack([tab.coeffs for tab in inv_tabs], axis=1)
        dets = toeplitz_determinants(inv, bands)
    return gmeans ** bands * dets


def bocg_residual(psi_tab: FourierTable, n: int, tol: float = 1e-10) -> complex:
    """The operator-determinant factor of the one-step reduction identity

        det T_n(psi^{-1}) = E(psi)/G(psi)^n *
            det(I - H(z^{-n} psi) T^{-1}(psitilde) H(psitilde z^{-n}) T^{-1}(psi)),

    on truncations of size m doubled from ``MIN_OP_ORDER`` until one more
    doubling moves it by at most ``tol`` relative to max(1, |value|), up to
    ``MAX_OP_ORDER`` (see :func:`dimerdet.spectral._doubled`).  The factor
    tends to 1 as n grows past the coefficient support.
    """
    return complex(_doubled(lambda m: _bocg_truncated(psi_tab, n, m), MIN_OP_ORDER,
                            MAX_OP_ORDER, tol, TailNotResolved,
                            "bocg_residual: the truncation", "MAX_OP_ORDER")[0])


def _bocg_truncated(psi_tab: FourierTable, n: int, m: int) -> complex:
    """:func:`bocg_residual` on the order-m truncations of T(psi) and T(psitilde).

    Multiplying by z^{-n} is an index shift of the coefficient table.  Both
    Hankel sections vanish outside their leading r = N (order - n) rows and
    columns, so the product is block triangular and its determinant is
    exactly the leading r x r one: 1, with nothing factored, once n reaches
    the order.
    """
    support = min(m, psi_tab.order - n)
    if support <= 0:
        return complex(1.0)
    t_psi = pivoted_lu(toeplitz_section(psi_tab, m))
    t_psit = pivoted_lu(toeplitz_section(psi_tab, m, reflected=True))
    if t_psi[2].is_singular or t_psit[2].is_singular:
        raise TruncatedOperatorSingular("T(psi) or T(psitilde): pivot below threshold")
    r = support * psi_tab.block_size
    h1 = hankel_section(psi_tab, support, shift=n)
    rhs = np.zeros((m * psi_tab.block_size, r), dtype=complex)
    rhs[:r] = hankel_section(psi_tab, support, shift=n, reflected=True)
    inner = _gemm(h1, scipy.linalg.lu_solve(t_psit[:2], rhs, check_finite=False)[:r])
    # right-multiply by T(psi)^{-1} via a transposed solve
    rhs[:r] = inner.T
    prod = scipy.linalg.lu_solve(t_psi[:2], rhs, trans=1, check_finite=False)[:r].T
    return log_determinant(np.eye(r) - prod).value


# ---------------------------------------------------------------------------
# exponential representation of the dimer symbol
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpRepresentation:
    """The pieces b and Q of phi = exp(a I_2 + b Q), and the reconstructed
    symbol, which takes e^a in closed form."""

    b: ScalarSymbol
    q_part: MatrixSymbol
    reconstructed: MatrixSymbol


def _sinhc(w: np.ndarray) -> np.ndarray:
    """sinh(w)/w, 1 at w = 0: sin(iw)/(iw) by ``np.sinc``.  Below |w| = 1e-100,
    where it is 1 in double precision, w is taken as 0: ``np.sinc`` divides by
    its argument, which overflows at a subnormal w."""
    return np.sinc(np.where(np.abs(w) < 1e-100, 0.0, 1j * w / np.pi))


def exp_representation(params: DimerParams) -> ExpRepresentation:
    """Write the dimer symbol as exp(a I_2 + b Q) with trace Q = 0.

    In the terms of :func:`dimerdet.dimer._angle_terms`, a = -(1/2) log g +
    i pi and Q = [[-i A sin x, g sin x], [-g sin x, i A sin x]], the
    trace-free part of psi, with Q^2 = Delta^2 I.  The eigenvalues of
    e^{-a} phi are e^{+-w}, w = b Delta = log(alpha / (W sqrt g)) for the
    branch-normalized log of alpha = -A (t - cos x) - Delta (real positive at
    x = 0 and pi), so sinh(w) / Delta = -1/(W sqrt g) and
    b = (sinh(w) / Delta) / sinhc(w), sinhc(w) = sinh(w)/w, in closed form:
    sinhc has no zero at |w| < pi, so no point is removable.
    The reconstruction e^a (cosh(b Delta) I + b sinhc(b Delta) Q) equals
    sigma psi, :func:`dimerdet.dimer.symbol_phi`, for real t in (0, 1) only.
    """
    t = _unit_interval_t(params, "exp_representation")

    def delta_alpha(x):
        """The angle terms, Delta = i sin x sqrt(g^2 + A^2) and alpha at angles x."""
        terms = _angle_terms(t, x)
        delta = 1j * terms.s * np.sqrt(terms.g ** 2 + terms.a ** 2)
        return terms, delta, -terms.a * (t - terms.z.real) - delta

    # branch check: the principal log of alpha is the normalized continuous
    # one iff alpha never meets the closed negative real axis and is real
    # positive at the anchors x = 0, pi
    anchors = delta_alpha(np.array([0.0, np.pi]))[2]
    if not (anchors.real > 0).all() or np.max(np.abs(anchors.imag)) > 1e-12:
        raise BranchFailure(f"alpha not real positive at anchors: {anchors}")
    probe = delta_alpha(2.0 * np.pi * np.arange(1024) / 1024 - np.pi)[2]
    on_cut = (probe.real <= 0) & (np.abs(probe.imag) < 1e-13)
    if np.any(on_cut):
        raise BranchFailure("alpha(x) touches the negative real axis; "
                            "principal log is not the normalized branch")

    def pieces(x):
        """sqrt g, b, Delta and Q at angles x."""
        (s, _, big_a, weight, g), delta, alpha = delta_alpha(x)
        root_g = np.sqrt(g)
        ratio = -1.0 / (weight.real * root_g)  # sinh(w) / Delta
        b = ratio / _sinhc(np.log(-ratio * alpha))
        q11, q12 = -1j * big_a * s, g * s
        q = _stack_entries([[q11, q12], [-q12, -q11]], x.size)
        return root_g, b, delta, q

    def reconstructed_fn(x):
        # exp(a I + b Q) = e^a (cosh(b Delta) I + b sinhc(b Delta) Q), as Q^2 = Delta^2 I;
        # e^a = -1/sqrt(g), not exp of its log, which would lose |log g| ulps
        root_g, b, delta, q = pieces(x)
        bd = b * delta
        val = (b * _sinhc(bd))[:, None, None] * q + np.cosh(bd)[:, None, None] * np.eye(2)
        return (-1.0 / root_g)[:, None, None] * val

    return ExpRepresentation(ScalarSymbol(lambda x: pieces(x)[1]),
                             MatrixSymbol(lambda x: pieces(x)[3]),
                             MatrixSymbol(reconstructed_fn))


# ---------------------------------------------------------------------------
# the reduction route to the dimer constant
# ---------------------------------------------------------------------------

def alpha_log_tables(params: DimerParams) -> tuple[FourierTable, FourierTable]:
    """Fourier tables of alpha_1 = log g = log(1-2t cos x+t^2) and
    alpha_2 = log W^2 = log(t^2+sin^2 x+sin^4 x), from the terms of
    :func:`dimerdet.dimer._angle_terms`; real logs, for real t in (0, 1) only.

    Both come from one evaluator and one run of :func:`common_order_tables`,
    so they share one order and can be combined coefficient-wise.
    """
    t = _unit_interval_t(params, "alpha_log_tables")

    def logs(x):
        _, _, _, w, g = _angle_terms(t, x)
        return np.stack([np.log(g), 2.0 * np.log(w.real)], axis=-1)[:, :, None, None] + 0j

    return common_order_tables(logs)


def correction_quotient(params: DimerParams, tol: float = 1e-10) -> complex:
    """E(phi) / E(sigma^{-1} phi) as a quotient of trace-correction factors.

    The dimer symbol factors through exp representations with scalar shifts
    a_1 = -alpha_1/2 (for phi) and a_2 = (alpha_1 + alpha_2)/2 (for
    sigma^{-1} phi); the quotient equals the closed-form ``prefactor``.
    """
    tab1, tab2 = alpha_log_tables(params)
    a1 = FourierTable(-0.5 * tab1.coeffs)
    a2 = FourierTable(0.5 * (tab1.coeffs + tab2.coeffs))
    return correction_factor(a1, 2, tol) / correction_factor(a2, 2, tol)


def psi_table(params: DimerParams) -> FourierTable:
    """The table of the band-3 symbol psi = sigma^{-1} phi, cut at its band:
    the resolved table's coefficients |k| <= 3.  Past the band they are
    rounding noise (at most 9.4e-17 at 63 t from 0.01 to 0.99), so the cut
    drops nothing, and the Hankel supports of :func:`bocg_residual` are
    empty from n = 3 on."""
    tab = fourier_coefficients(symbol_psi(params), order=3)
    return FourierTable(tab.coeffs[tab.order - 3:tab.order + 4])


def e_phi_reduction(params: DimerParams, tol: float = 1e-10) -> complex:
    """E(phi) by the trace-correction + banded-determinant route.

    :func:`correction_quotient` converts E(sigma^{-1} phi) into E(phi), and
    E(sigma^{-1} phi) itself is a band-3 symbol handled by the
    finite-determinant formula.
    """
    return complex(correction_quotient(params, tol) * widom_banded_E(psi_table(params), 3))
