"""The dimer matrix and its generating symbols, as independent checks.

The monomer-monomer correlation at separation ``n`` is half the square root
of ``det M_n`` where ``M_n`` is a 2n x 2n block matrix built from double
integrals over the torus.  For real ``0 < t < 1`` that determinant equals the
determinant of a block Toeplitz matrix ``T_n(phi)``; the regular section P(n)
is taken from (:mod:`dimerdet.continuation`) continues it to every Re(t) > 0.
This module builds ``M_n`` and the symbols only as independent checks.

Conventions fixed here (they matter for cross-checks):

* ``M_n`` has one builder, :func:`_m_n`, which reads an e+/d table pair:
  the torus one of :func:`torus_tables` for the dimer matrix, or the
  sampled one P(n) is taken from.  The paper's entry formulas, in the
  double integrals R_k, Q_k with 1-based indices and floor brackets
  ``[x] = floor(x)`` (including negatives), are relabelled there.
* The square root ``sqrt(t^2 + sin^2 x + sin^4 x)`` is the principal branch,
  which is positive for real positive ``t`` and stays analytic in both
  ``x`` and ``t`` on the half-plane Re(t) > 0 (the imaginary part of the
  radicand has the fixed sign of Im(t^2), so the branch cut is never hit).
* The antisymmetric integral kernel ``V`` is used with its n-dependent
  global sign dropped, which leaves every determinant unchanged.

The torus double integrals are periodic trapezoid sums, and three exact
symmetries of those sums cut their cost (:func:`_torus_hats`): each
y-integrand is pi-periodic in y, so half a y period is summed; sin(x+y) comes
from per-axis arrays; and den(-x, -y) = den(x, y), so the rows x in [0, pi]
give every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvariantViolation, ParameterOutOfRange, QuadratureUnconverged, half_plane_t
from .spectral import (
    MIN_GRID,
    QUAD_TOL,
    FourierTable,
    MatrixSymbol,
    _doubled,
    _gemm,
    _stack_entries,
    toeplitz_section,
)


#: the cap of the torus doubling rule (:func:`dimerdet.spectral._doubled`):
#: grids run up to max(MAX_QUAD_GRID, 2 * start grid), so for n >= 511 (start
#: grid 4096) the doubled check runs at 8192; the integrands peak in a window
#: of width O(Re t), so real t near 0.02 needs 2048 to 4096 points
MAX_QUAD_GRID = 4096


@dataclass(frozen=True)
class DimerParams:
    """The model parameter.

    ``t`` interpolates between the square lattice (t=0, excluded) and the
    triangular lattice (t=1); any complex ``t`` with positive real part is
    admissible.
    """

    t: complex

    def __post_init__(self):
        object.__setattr__(self, "t", half_plane_t(self.t))

    @property
    def is_real_unit_interval(self) -> bool:
        return self.t.imag == 0.0 and 0.0 < self.t.real < 1.0


# ---------------------------------------------------------------------------
# the one torus quadrature: y-sums of the kernels, then one FFT in x
# ---------------------------------------------------------------------------

def _y_means(t: complex, x: np.ndarray, grid: int) -> np.ndarray:
    """The five periodic trapezoid means over y the kernels are made of, at
    angles x, shape (5, len(x)): the means of 1, cos^2 y, cos y sin y,
    sin(x+y) cos y and sin(x+y) sin y over
      den = sin^2 x + cos^2 y + t^2 sin^2(x+y).

    Each integrand is pi-periodic in y, so the mean over ``grid`` values of
    y is the mean over the first half of them, y in [-pi, 0) (Trefethen &
    Weideman, SIAM Review 2014).  sin(x+y) is sin x cos y + cos x sin y, of
    per-axis arrays, so no point takes a sine.  Summed 128 angles at a time
    so the work arrays stay O(grid); for real t the denominator is real,
    and so is the arithmetic on it.
    """
    tt = t.real * t.real if t.imag == 0 else t * t
    y = 2.0 * np.pi * np.arange(grid // 2) / grid - np.pi
    cy, sy = np.cos(y), np.sin(y)
    # real columns, so a real denominator meets them in real products
    weights = np.stack([np.ones_like(cy), cy * cy, cy * sy], axis=1)
    ey = np.stack([cy, sy], axis=1)
    x = np.asarray(x, dtype=float)
    sx, cx = np.sin(x)[:, None], np.cos(x)[:, None]
    out = np.empty((5, x.size), dtype=np.result_type(tt, float))
    for rows in (slice(lo, lo + 128) for lo in range(0, x.size, 128)):
        s = sx[rows] * cy + cx[rows] * sy
        inv = 1.0 / (sx[rows] ** 2 + cy ** 2 + tt * s ** 2)
        out[:3, rows] = _gemm(weights.T, inv.T)
        out[3:, rows] = _gemm(ey.T, (inv * s).T)
    return out / (grid // 2)


def _kernel_sums(t: complex, x: np.ndarray, means: np.ndarray) -> np.ndarray:
    """[S+T, V] at angles x, shape (2, len(x)), from the y-means of
    :func:`_y_means` at x (V with its global sign dropped):

      S+T(x) = -(1/4pi) e^{ix} int e^{iy} (i t sin(x+y) + cos y) / den dy,
      V(x)   =  (1/4pi) sin x int 1 / den dy.
    """
    x = np.asarray(x, dtype=float)
    one, cc, cs, sc, ss = means
    return 0.5 * np.array([-np.exp(1j * x) * (cc + 1j * cs + 1j * t * (sc + 1j * ss)),
                           np.sin(x) * one])


def _torus_hats(t: complex, order: int, grid: int) -> np.ndarray:
    """[(S+T)^_k, V^_k] for k = -order..order, shape (2, 2 order + 1), the
    Fourier coefficients of the kernels by tensor-product periodic trapezoid
    quadrature on the given torus grid: one FFT of each kernel gives every
    k.  The x grid starts at -pi, so the FFT over its size carries the phase
    (-1)^k, taken off here once.  V^_k vanishes for even k.

    As den(-x, -y) = den(x, y) and the y grid, taken mod pi, is its own
    mirror, the y-means of 1, cos^2 y and sin(x+y) sin y are even in x and
    those of cos y sin y and sin(x+y) cos y odd: the grid/2 + 1 rows with x
    in [0, pi] give every row (x = -pi is the angle pi).  The rows x and
    pi - x are summed apart, so the vanishing V^_k of even k, which is
    V(x + pi) = -V(x), stays a check on the sums.
    """
    x = 2.0 * np.pi * np.arange(grid) / grid - np.pi
    half = _y_means(t, 2.0 * np.pi * np.arange(grid // 2 + 1) / grid, grid)
    means = np.concatenate([half[:, :0:-1] * [[1], [1], [-1], [-1], [1]], half[:, :-1]], axis=1)
    hat = np.fft.fft(_kernel_sums(t, x, means), axis=1) / grid
    ks = np.arange(-order, order + 1)
    return (1 - 2 * (ks % 2)) * hat[:, ks % grid]


def torus_tables(t: complex, order: int) -> tuple[FourierTable, FourierTable]:
    """The e+ and d tables to ``order`` from the torus double integrals,
    e_k = 2 (S+T)^_k and d_k = 2 V^_k (:func:`_torus_hats`): the pair
    :func:`dimerdet.continuation._scalar_tables` samples, so :func:`_m_n`
    reads either.

    The torus grid doubles from the smallest power of two at least
    4 order + 4 until the doubled grid moves no kernel coefficient
    (:func:`dimerdet.spectral._doubled`); the integrands are smooth and
    periodic on the torus, so this is spectral.  A d_k of even k above 2e-14
    (V^_k above 1e-14) raises InvariantViolation.  No top band is checked,
    as the table loop checks it, so a reader stays within ``order``.
    """
    t = half_plane_t(t)
    (st, v), _ = _doubled(lambda grid: _torus_hats(t, order, grid),
                          1 << (4 * order + 3).bit_length(), MAX_QUAD_GRID, QUAD_TOL,
                          QuadratureUnconverged, f"the torus tables to order {order}",
                          "MAX_QUAD_GRID")
    ks = np.arange(-order, order + 1)
    nonzero_even = np.flatnonzero((ks % 2 == 0) & (np.abs(v) > 1e-14))
    if nonzero_even.size:
        i = nonzero_even[0]
        raise InvariantViolation(f"d_{ks[i]} = {2 * v[i]} should vanish for even k")
    return FourierTable(2.0 * st[:, None, None]), FourierTable(2.0 * v[:, None, None])


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


def _m_n(t: complex, n: int, e_tab: FourierTable, d_tab: FourierTable) -> np.ndarray:
    """M_n = [[B, Q], [Q, B]] from the e+ and d tables: B = T_n(e+) + K+ and
    Q = -(-1)^[n/2] E T_n(d), E the index reversal, the one builder of M_n.

    The paper's entries, with 1-based block indices j, k,
      B_jk = 2 (-1)^[(k-j)/2] R_{k-j+1} + theta(j-k) t^{j-k-1},
      Q_jk = 2i (-1)^[(j+k)/2] Q_{n+1-j-k},
    [x] = floor(x) and theta(m) = 1 for m > 0, are these, as the torus
    double integrals are 2 R_k = (-1)^[(k-1)/2] e_{1-k} and
    2 Q_k = i (-1)^[(k-1)/2] d_k.  On :func:`torus_tables` this is the
    dimer matrix; on the sampled tables (d odd) it is
    S_n [[B, T_n(d)], [T_n(d)^T, B^T]] S_n^T, S_n = diag(I, (-1)^[n/2] E),
    the continuation in t of det T_n(phi) from real 0 < t < 1 that
    :func:`dimerdet.continuation.theta_decomposition` checks.  Its band
    t^{j-k-1} (:func:`k_plus_matrix`) reaches |t|^(n-2).
    """
    t = half_plane_t(t)
    b = toeplitz_section(e_tab, n) + k_plus_matrix(t, n)
    q = (-1) ** (n // 2 + 1) * toeplitz_section(d_tab, n)[::-1]
    return np.block([[b, q], [q, b]])


def dimer_matrix(params: DimerParams, n: int) -> np.ndarray:
    """The 2n x 2n dimer matrix M_n: :func:`_m_n` on the torus tables to
    order n + 1, so the torus grid starts at the smallest power of two at
    least 4(n + 1) + 4."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _m_n(params.t, n, *torus_tables(params.t, n + 1))


# ---------------------------------------------------------------------------
# the generating symbols
# ---------------------------------------------------------------------------

def _weight(t: complex, s2: np.ndarray) -> np.ndarray:
    """sqrt(t^2 + s2 + s2^2) at s2 = sin^2 x: the principal branch, positive
    for real positive t and analytic on Re(t) > 0."""
    return np.sqrt(t * t + s2 + s2 * s2 + 0j)


class _AngleTerms(NamedTuple):
    """The terms every real-t symbol is written in, at angles x."""

    s: np.ndarray  # sin x
    z: np.ndarray  # e^{ix}
    a: np.ndarray  # A = t cos x + sin^2 x
    w: np.ndarray  # the weight sqrt(t^2 + sin^2 x + sin^4 x)
    g: np.ndarray  # 1 - 2t cos x + t^2 = |t - e^{ix}|^2


def _angle_terms(t: float, x: np.ndarray) -> _AngleTerms:
    """Each term computed once.  g is summed as (1 - t)^2 + 4t sin^2(x/2), of
    two nonnegative parts, so it does not cancel near x = 0 as t nears 1
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, sec. 1.7)."""
    s, z = np.sin(x), np.exp(1j * x)
    s2 = s ** 2
    return _AngleTerms(s, z, t * z.real + s2, _weight(t, s2),
                       (1.0 - t) ** 2 + 4.0 * t * np.sin(0.5 * x) ** 2)


def _unit_interval_t(params: DimerParams, what: str) -> float:
    """t, if it is real in (0, 1); else ParameterOutOfRange naming ``what``."""
    if not params.is_real_unit_interval:
        raise ParameterOutOfRange(f"{what} requires real t in (0, 1), got {params.t}")
    return params.t.real


def symbol_phi(params: DimerParams) -> MatrixSymbol:
    """The dimer symbol sigma psi = [[sigma p, d], [-d, sigma ptilde]], with
    sigma = 1/(W g), in the terms of :func:`_angle_terms`: as p = A (t - e^{ix})
    and g = (t - e^{ix})(t - e^{-ix}), sigma p = A / ((t - e^{-ix}) W), and
    d = sin x / W, so no entry forms g.  Its sections match det M_n.

    Only defined for real 0 < t < 1: the diagonal entry has a pole on the
    unit circle at |t| = 1; :mod:`dimerdet.continuation` continues the
    sections to general parameters.
    """
    t = _unit_interval_t(params, "symbol_phi")

    def eval_(x):
        s, z, a, w, _ = _angle_terms(t, x)
        d = s / w
        return _stack_entries([[a / ((t - z.conj()) * w), d], [-d, a / ((t - z) * w)]], x.size)

    return MatrixSymbol(eval_)


def symbol_psi(params: DimerParams) -> MatrixSymbol:
    """The Laurent-polynomial part psi = [[p, q], [qtilde, ptilde]], with
    q = g sin x = -qtilde.

    psi equals the dimer symbol with the scalar factor sigma removed; its
    Fourier coefficients vanish beyond |k| = 3, which is what makes the
    banded-symbol determinant identity applicable.
    """
    t = _unit_interval_t(params, "symbol_psi")

    def eval_(x):
        s, z, a, _, g = _angle_terms(t, x)
        q = s * g
        return _stack_entries([[a * (t - z), q], [-q, a * (t - z.conj())]], x.size)

    return MatrixSymbol(eval_)


def symbol_psi_inverse(params: DimerParams) -> MatrixSymbol:
    """psi^{-1} = eta [[ptilde, qtilde], [q, p]] in closed form, eta = 1/(g W^2).

    As ptilde = A (t - e^{-ix}) and g = (t - e^{ix})(t - e^{-ix}), g cancels
    from every entry: eta ptilde = A / ((t - e^{ix}) W^2) and eta q = sin x / W^2.
    """
    t = _unit_interval_t(params, "symbol_psi_inverse")

    def eval_(x):
        s, z, a, w, _ = _angle_terms(t, x)
        w2 = w.real ** 2
        d = s / w2
        return _stack_entries([[a / ((t - z) * w2), -d], [d, a / ((t - z.conj()) * w2)]], x.size)

    return MatrixSymbol(eval_)


# ---------------------------------------------------------------------------
# the single-integral kernels behind the coefficients
# ---------------------------------------------------------------------------

def kernel_symbols(params: DimerParams, x) -> np.ndarray:
    """[S+T, V] at angles x (V with its global sign dropped), shape
    (2, len(x)), by the y-quadrature of :func:`_y_means`.

    The y grid doubles from ``MIN_GRID`` until the doubled grid moves
    neither kernel (see :func:`dimerdet.spectral._doubled`).
    Their closed forms are e+/2 and d/2, the two values of
    :func:`dimerdet.continuation.e_plus_d`, on the whole half-plane.
    """
    t = params.t
    return _doubled(lambda grid: _kernel_sums(t, x, _y_means(t, x, grid)), MIN_GRID,
                    MAX_QUAD_GRID, QUAD_TOL, QuadratureUnconverged, "S+T and V",
                    "MAX_QUAD_GRID")[0]
