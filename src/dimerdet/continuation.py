"""The one route for P(n): the regular section, for every Re(t) > 0.

For real 0 < t < 1 the entry regularised here is c = -phi_11 of the dimer
symbol (below, phi names [[c, d], [-d, ctilde]], of the same section
determinants).  c = e+ + u, u the geometric-series symbol with section K+
(bands t^{j-k-1}); e+ stays smooth on the whole half-plane.  M_n on the
sampled e+ and d tables (:func:`dimerdet.dimer._m_n`, entries growing like
t^n) continues the section, and pre-multiplying by T_n(Theta+), of
determinant 1, gives the regular T_n(phi_hat) + P_n K P_n + W_n L W_n.
That section is centrosymmetric, so :func:`theta_section` builds only its
top n rows and its determinant is two n x n LUs (the fold of
:func:`dimerdet.spectral.folded_log_determinant`).  For real t the two are
complex conjugates (:func:`_conjugate_tables` checks the symmetry of the
tables behind that), so one LU, of the fold's plus half, gives
P(n) = (1/2) |det(B + CE)|; :func:`_section_dets` is that one route.
:func:`correlation_scan` is the one scan along it, one e+/d table pair per
list of n (:func:`correlation_finite` is its one-n case, and
:func:`errors_decreasing` reads its rows against the limit);
:func:`theta_decomposition` checks it against M_n on the same tables, and
so do the sampled phi_hat symbol and the dense 2n x 2n section of the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchFailure,
    DecompositionMismatch,
    InvariantViolation,
    SingularDeterminant,
    TruncationTooShort,
    half_plane_t,
)
from .spectral import (
    _EPS,
    STRAY_TOL,
    FourierTable,
    _section,
    ScalarSymbol,
    common_order_tables,
    folded_log_determinant,
    log_determinant,
)
from .dimer import DimerParams, _m_n, _weight


@dataclass(frozen=True)
class ContinuedSequence:
    """The residual of :func:`theta_decomposition` and the one row K and L
    hold: ``k_row`` is row 0 of K, and row 1 of L is it with each block's
    pair swapped (see :func:`_k_row`)."""

    k_row: np.ndarray
    identity_residual: float


def e_plus_d(t: complex) -> ScalarSymbol:
    """e+ = c - 1/(e^{-ix} - t) and d = sin x / weight from one evaluator,
    values of shape x.shape + (2,): e^{ix}, sin x, sin^2 x and the weight
    are computed once per angle for both.

    With A = t cos x + sin^2 x and w the weight, e+ = (A - w) / ((e^{-ix} - t) w),
    and since A^2 - w^2 = -sin^2 x (e^{-ix} - t)(e^{ix} - t) also
    -sin^2 x (e^{ix} - t) / ((A + w) w).  Each angle takes the form whose
    factor A -+ w is the larger in modulus, so nothing cancels and no
    denominator vanishes: where e^{-ix} = t, A = w as Re(t) > 0, and the
    second form is taken.  d is sin x / w, w from :func:`dimerdet.dimer._weight`.
    """
    t = half_plane_t(t)

    def eval_(x):
        z, s = np.exp(1j * x), np.sin(x)
        s2 = s ** 2
        w = _weight(t, s2)
        if np.any(np.abs(w) < 1e-13):
            raise BranchFailure("weight root vanished on evaluation points")
        a = t * z.real + s2
        minus, plus = a - w, a + w
        first = np.abs(minus) >= np.abs(plus)
        out = np.empty(x.shape + (2,), dtype=complex)
        out[..., 0] = (np.where(first, minus, -s2 * (z - t))
                       / (np.where(first, z.conj() - t, plus) * w))
        out[..., 1] = s / w
        return out

    return ScalarSymbol(eval_)


def _scalar_tables(t: complex, order: int) -> tuple[FourierTable, FourierTable]:
    """Fourier tables of e+ and d at one shared order of at least ``order``,
    from one sampling of :func:`e_plus_d` per grid point."""
    pair = e_plus_d(t)
    return common_order_tables(lambda x: pair(x)[:, :, None, None], order)


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
    return FourierTable(out)


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
    """The top n rows of T_n(phi_hat) + P_n K P_n + W_n L W_n, the 2n x 2n
    section P(n) is taken from: the Fortran-ordered n x 2n slab that
    :func:`dimerdet.spectral.folded_log_determinant` folds and factors in
    place.

    The section is centrosymmetric, bit for bit: ``_phi_hat_table`` fills
    entries (2,2) and (2,1) with (1,1) and (1,2) at -k, so phi_hat_{-k} =
    J phi_hat_k J with J the 2 x 2 swap, and K adds ``_k_row`` to row 0 as
    W_n L W_n adds it reversed to row 2n-1.  So its rows below the slab are
    the slab's reversed, and they are not built.
    """
    if n > e_tab.order:
        raise TruncationTooShort(
            f"section n={n} needs coefficients to {n}, table has {e_tab.order}")
    out = _section(_phi_hat_table(t, e_tab, d_tab), n, -(n - 1), 1, toeplitz=True, rows=n)
    out[0] += _k_row(t, n, e_tab, d_tab)
    return out


def theta_decomposition(t: complex, n: int,
                        tables: tuple[FourierTable, FourierTable] | None = None
                        ) -> ContinuedSequence:
    """Check det M_n = det(T_n(phi_hat) + P_n K P_n + W_n L W_n) to 1e-9.

    K = -H(Theta+) H(phitilde+) and L = -H(Thetatilde+) H(phi+) are the
    rank-one corrections from the pre-multiplication by T_n(Theta+), each
    one row: the result carries row 0 of K.  The right side is P(n)'s own
    route, :func:`_section_dets`; M_n (:func:`dimerdet.dimer._m_n`), from
    the unprojected tables, is the independent side.  Its band t^{j-k-1}
    reaches |t|^(n-2), so for |t| > 1 its LU fails the check from some n on
    (at t = 2, n = 33), or is flagged singular (at t = 2, n = 64:
    SingularDeterminant), and either message names M_n and that growth.
    ``tables`` defaults to :func:`_scalar_tables`.
    """
    t = half_plane_t(t)
    e_tab, d_tab = tables or _scalar_tables(t, n)
    band = f"M_n's band reaches |t|^(n-2) = {abs(t) ** (n - 2):.1e}"
    det_m = log_determinant(_m_n(t, n, e_tab, d_tab))
    if det_m.is_singular:
        raise SingularDeterminant(f"the LU of M_n is flagged singular at t={t}, n={n}; {band}")
    lhs = det_m.value
    rhs, = _section_dets(t, [n], e_tab, d_tab)
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    if residual > 1e-9:
        raise DecompositionMismatch(f"det M_n = {lhs} vs decomposed {rhs} at t={t}, "
                                    f"n={n}{'; ' + band if abs(t) > 1 else ''}")
    return ContinuedSequence(_k_row(t, n, e_tab, d_tab), residual)


def _conjugate_tables(e_tab: FourierTable,
                      d_tab: FourierTable) -> tuple[FourierTable, FourierTable]:
    """The e+ and d tables of a real t, checked and projected onto the
    symmetry that makes the fold's two halves conjugate.

    For real t, e+(-x) = conj e+(x) and d is odd and real, so e+'s
    coefficients are real and d's imaginary.  :func:`theta_section` is then
    real where row + column is even and imaginary where it is odd
    (``_phi_hat_table`` and ``_k_row`` mix e+ with e+ and d with d, times
    the real t), the ``checkerboard`` under which
    :func:`dimerdet.spectral.folded_log_determinant` factors one half only.
    A stray part above ``STRAY_TOL`` of its table's max|c| raises
    InvariantViolation; the rest are zeroed, so the relation holds exactly.
    """
    e, d = e_tab.coeffs, d_tab.coeffs
    for name, stray, coeffs in (("e+", e.imag, e), ("d", d.real, d)):
        worst, scale = np.max(np.abs(stray)), np.max(np.abs(coeffs))
        if worst > STRAY_TOL * scale:
            raise InvariantViolation(
                f"the {name} table of a real t has a stray part {worst:.3e}, "
                f"above {STRAY_TOL:.0e} of its max|c| = {scale:.3e}")
    return FourierTable(e.real.astype(complex)), FourierTable(1j * d.imag)


def _section_dets(t: complex, n_list: list[int], e_tab: FourierTable,
                  d_tab: FourierTable) -> list[complex]:
    """det :func:`theta_section` for each n of ``n_list`` from the e+ and d
    tables: the fold's two n x n LUs, or for real t, as the tables pass
    :func:`_conjugate_tables`, one (det = |det(B + CE)|^2)."""
    real = t.imag == 0.0
    if real:
        e_tab, d_tab = _conjugate_tables(e_tab, d_tab)
    return [folded_log_determinant(theta_section(t, n, e_tab, d_tab), checkerboard=real).value
            for n in n_list]


def correlation_scan(params: DimerParams, n_list: list[int]) -> list[complex]:
    """P(n) = (1/2) sqrt(det :func:`theta_section`), principal root, for each
    n of the strictly increasing ``n_list``; the e+ and d tables are
    resolved once, to at least order max(n_list).

    Its determinants are :func:`_section_dets`; at real t P(n) is real.
    """
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list must be non-empty and strictly increasing, got {n_list}")
    t = params.t
    return [complex(0.5 * np.sqrt(det))
            for det in _section_dets(t, n_list, *_scalar_tables(t, max(n_list)))]


def correlation_finite(params: DimerParams, n: int) -> complex:
    """P(n) of :func:`correlation_scan`, from tables resolved to at least order n."""
    return correlation_scan(params, [n])[0]


def errors_decreasing(n_list: list[int], values: list[complex], limit: complex) -> bool:
    """Whether the errors |P(n) - limit| of a :func:`correlation_scan` fall
    along ``n_list``: each below the one before it, or within n eps |limit|,
    the rounding level of P(n) = (1/2) sqrt(det) for the determinant of the
    2n x 2n section (half its 2n eps, whether it takes two n x n LUs or, at
    real t, one), where the order of two errors carries no information."""
    errors = [abs(value - limit) for value in values]
    return all(b < a or b <= n * _EPS * abs(limit)
               for n, a, b in zip(n_list[1:], errors, errors[1:]))
