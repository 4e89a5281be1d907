"""The dimer matrix and its generating symbols, as independent checks.

The monomer-monomer correlation at separation ``n`` is half the square root
of ``det M_n`` where ``M_n`` is a 2n x 2n block matrix built from double
integrals over the torus.  For real ``0 < t < 1`` that determinant equals the
determinant of a block Toeplitz matrix ``T_n(phi)``.  This module builds both
sides only as independent checks: P(n) itself comes from the regular section
in :func:`dimerdet.continuation.correlation_finite`.

Conventions fixed here (they matter for cross-checks):

* The entry formulas for ``M_n`` use 1-based indices and floor brackets,
  ``[x] = floor(x)`` including negatives.
* The square root ``sqrt(t^2 + sin^2 x + sin^4 x)`` is the principal branch,
  which is positive for real positive ``t`` and stays analytic in both
  ``x`` and ``t`` on the half-plane Re(t) > 0 (the imaginary part of the
  radicand has the fixed sign of Im(t^2), so the branch cut is never hit).
* The diagonal symbol entry ``c`` carries the denominator ``(e^{-ix} - t)``.
  Block determinants are insensitive to that sign choice, but pointwise
  values are not; see also ``symbol_psi`` which uses the opposite
  (product-form) orientation on the diagonal.
* The antisymmetric integral kernel ``V`` is used with its n-dependent
  global sign dropped, which leaves every determinant unchanged.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InvariantViolation,
    ParameterOutOfRange,
    QuadratureUnconverged,
)
from .spectral import (
    FourierTable,
    MatrixSymbol,
    ScalarSymbol,
    fourier_coefficients,
)


@dataclass(frozen=True)
class DimerParams:
    """Model parameter plus numerical configuration.

    ``t`` interpolates between the square lattice (t=0, excluded) and the
    triangular lattice (t=1); any complex ``t`` with positive real part is
    admissible.
    """

    t: complex
    quad_grid: int = 256
    fourier_m: int = 4096
    fourier_k: int = 512
    tail_tol: float = 1e-13
    quad_tol: float = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "t", complex(self.t))
        if not self.t.real > 0:
            raise ParameterOutOfRange(f"Re(t) must be positive, got t={self.t}")
        if self.quad_grid < 8:
            raise ParameterOutOfRange("quad_grid must be at least 8")

    @property
    def is_real_unit_interval(self) -> bool:
        return self.t.imag == 0.0 and 0.0 < self.t.real < 1.0


class DimerCoefficients(NamedTuple):
    """Maps k -> R_k and k -> Q_k at a fixed parameter."""

    R: dict
    Q: dict
    t: complex


# ---------------------------------------------------------------------------
# torus quadrature for the R_k / Q_k double integrals
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def _reduced_grids(t: complex, grid: int):
    """y-reduced sums shared by every coefficient index at fixed (t, grid).

    Writing cos(kx + y) = cos(kx) cos(y) - sin(kx) sin(y) turns each double
    integral into a single sum over x against precomputed y-sums, so the
    O(grid^2) work is paid once per parameter.
    """
    g = 2.0 * np.pi * np.arange(grid) / grid - np.pi
    x = g[:, None]
    y = g[None, :]
    den = np.cos(x) ** 2 + np.cos(y) ** 2 + t * t * np.cos(x + y) ** 2
    w = (2.0 * np.pi / grid) ** 2 / (8.0 * np.pi ** 2)
    return {
        "x": g,
        "even_cos": w * np.sum(np.cos(y) ** 2 / den, axis=1),
        "even_sin": w * np.sum(np.cos(y) * np.sin(y) / den, axis=1),
        "odd_cos": w * np.sum(np.cos(x + y) * np.cos(y) / den, axis=1),
        "odd_sin": w * np.sum(np.cos(x + y) * np.sin(y) / den, axis=1),
        "q_base": w * np.sum(np.cos(x) / den * np.ones_like(y), axis=1),
    }


def _r_value(t: complex, k: int, grid: int) -> complex:
    r = _reduced_grids(t, grid)
    x = r["x"]
    if k % 2 == 0:
        return complex(np.cos(k * x) @ r["even_cos"] - np.sin(k * x) @ r["even_sin"])
    return complex(t * (np.cos(k * x) @ r["odd_cos"] - np.sin(k * x) @ r["odd_sin"]))


def _q_value(t: complex, k: int, grid: int) -> complex:
    r = _reduced_grids(t, grid)
    return complex(np.cos(k * r["x"]) @ r["q_base"])


def _converged(params: DimerParams, fine, coarse, what: str) -> complex:
    if abs(fine - coarse) > params.quad_tol * max(1.0, abs(fine)):
        raise QuadratureUnconverged(
            f"{what}: doubling quad_grid moved the value by {abs(fine - coarse):.3e}")
    return fine


def coefficient_R(params: DimerParams, k: int) -> complex:
    """R_k by tensor-product periodic trapezoid quadrature.

    Even k uses the cos(y) kernel with weight 1/(8 pi^2); odd k the
    cos(x+y) kernel with an extra factor t.  The integrand is smooth and
    periodic on the torus (the denominator cannot vanish for Re(t) > 0),
    so the trapezoid rule converges spectrally; the result at ``quad_grid``
    is compared against the doubled grid and the finer value returned.
    """
    fine = _r_value(params.t, k, 2 * params.quad_grid)
    coarse = _r_value(params.t, k, params.quad_grid)
    return _converged(params, fine, coarse, f"R_{k}")


def coefficient_Q(params: DimerParams, k: int) -> complex:
    """Q_k by the same quadrature; vanishes identically for even k."""
    fine = _q_value(params.t, k, 2 * params.quad_grid)
    coarse = _q_value(params.t, k, params.quad_grid)
    return _converged(params, fine, coarse, f"Q_{k}")


def dimer_coefficients(params: DimerParams, k_min: int, k_max: int) -> DimerCoefficients:
    """All R_k, Q_k for k in [k_min, k_max], with the Q parity invariant."""
    R = {k: coefficient_R(params, k) for k in range(k_min, k_max + 1)}
    Q = {k: coefficient_Q(params, k) for k in range(k_min, k_max + 1)}
    for k, v in Q.items():
        if k % 2 == 0 and abs(v) > 1e-14:
            raise InvariantViolation(f"Q_{k} = {v} should vanish for even k")
    return DimerCoefficients(R, Q, params.t)


def _half_floor_sign(m: np.ndarray) -> np.ndarray:
    """(-1)**floor(m/2) for integer arrays, floor division semantics."""
    return 1 - 2 * ((m // 2) % 2)


def dimer_matrix(params: DimerParams, n: int) -> np.ndarray:
    """The 2n x 2n matrix [[R, Q], [Q, R]] from the displayed entry formulas.

    With 1-based block indices j, k:
      R_jk = 2 (-1)^[(k-j)/2] R_{k-j+1} + theta(j-k) t^{j-k-1}
      Q_jk = 2i (-1)^[(j+k)/2] Q_{n+1-j-k}
    where theta(m) = 1 for m > 0 and 0 otherwise.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    coeff = dimer_coefficients(params, -n, n + 1)
    j = np.arange(1, n + 1)[:, None]
    k = np.arange(1, n + 1)[None, :]

    m = k - j
    r_vals = np.array([[coeff.R[int(mm) + 1] for mm in row] for row in m])
    rmat = 2.0 * _half_floor_sign(m) * r_vals
    expo = np.where(j > k, j - k - 1, 0)
    rmat = rmat + np.where(j > k, params.t ** expo, 0.0)

    qi = n + 1 - j - k
    q_vals = np.array([[coeff.Q[int(ii)] for ii in row] for row in qi])
    qmat = 2.0j * _half_floor_sign(j + k) * q_vals

    return np.block([[rmat, qmat], [qmat, rmat]])


# ---------------------------------------------------------------------------
# the generating symbols
# ---------------------------------------------------------------------------

def _weight(t: complex, x: np.ndarray) -> np.ndarray:
    # principal branch: positive for real positive t, analytic on Re(t) > 0
    return np.sqrt(t * t + np.sin(x) ** 2 + np.sin(x) ** 4 + 0j)


def _c(t: complex, x: np.ndarray) -> np.ndarray:
    return (t * np.cos(x) + np.sin(x) ** 2) / ((np.exp(-1j * x) - t) * _weight(t, x))


def _d(t: complex, x: np.ndarray) -> np.ndarray:
    return np.sin(x) / _weight(t, x)


def _p(t: complex, x: np.ndarray) -> np.ndarray:
    return (t * np.cos(x) + np.sin(x) ** 2) * (t - np.exp(1j * x))


def _q(t: complex, x: np.ndarray) -> np.ndarray:
    return np.sin(x) * (1.0 - 2.0 * t * np.cos(x) + t * t)


def _sigma(t: complex, x: np.ndarray) -> np.ndarray:
    return 1.0 / (_weight(t, x) * (1.0 - 2.0 * t * np.cos(x) + t * t))


def _eta(t: complex, x: np.ndarray) -> np.ndarray:
    return 1.0 / ((1.0 - 2.0 * t * np.cos(x) + t * t)
                  * (t * t + np.sin(x) ** 2 + np.sin(x) ** 4))


def symbol_d(t: complex) -> ScalarSymbol:
    """The off-diagonal entry sin(x)/sqrt(t^2+sin^2 x+sin^4 x); Re(t) > 0."""
    t = complex(t)
    return ScalarSymbol(lambda x: _d(t, x))


def symbol_phi(params: DimerParams) -> MatrixSymbol:
    """The 2x2 symbol [[c, d], [dtilde, ctilde]] whose sections match det M_n.

    Only defined for real 0 < t < 1: the diagonal entry has a pole on the
    unit circle at |t| = 1, and the analytic continuation to general
    parameters lives in :mod:`dimerdet.continuation`.
    """
    if not params.is_real_unit_interval:
        raise ParameterOutOfRange(
            f"symbol_phi requires real t in (0, 1), got {params.t}; "
            "use the continuation module for general parameters")
    t = params.t
    return MatrixSymbol.from_entries([
        [ScalarSymbol(lambda x: _c(t, x)), ScalarSymbol(lambda x: _d(t, x))],
        [ScalarSymbol(lambda x: _d(t, -x)), ScalarSymbol(lambda x: _c(t, -x))],
    ])


def symbol_phi_product(params: DimerParams) -> MatrixSymbol:
    """The dimer symbol in product form, sigma * [[p, q], [qtilde, ptilde]].

    Pointwise this differs from ``symbol_phi`` by the sign of the diagonal
    entries (the two denominator orientations); every determinant-level
    quantity agrees between the two.  The exponential representation
    reconstructs exactly this form.
    """
    if not params.is_real_unit_interval:
        raise ParameterOutOfRange(
            f"symbol_phi_product requires real t in (0, 1), got {params.t}")
    t = params.t

    def entry(fn):
        return ScalarSymbol(lambda x: _sigma(t, x) * fn(t, x))

    return MatrixSymbol.from_entries([
        [entry(_p), entry(_q)],
        [entry(lambda tt, x: _q(tt, -x)), entry(lambda tt, x: _p(tt, -x))],
    ])


def symbol_psi(params: DimerParams) -> MatrixSymbol:
    """The Laurent-polynomial part psi = [[p, q], [qtilde, ptilde]].

    psi equals the dimer symbol with the scalar factor sigma removed; its
    Fourier coefficients vanish beyond |k| = 3, which is what makes the
    banded-symbol determinant identity applicable.  Note the product-form
    diagonal orientation (opposite in sign to ``symbol_phi``'s diagonal);
    all determinant-level quantities agree between the two orientations.
    """
    if not params.is_real_unit_interval:
        raise ParameterOutOfRange(f"symbol_psi requires real t in (0, 1), got {params.t}")
    t = params.t
    return MatrixSymbol.from_entries([
        [ScalarSymbol(lambda x: _p(t, x)), ScalarSymbol(lambda x: _q(t, x))],
        [ScalarSymbol(lambda x: _q(t, -x)), ScalarSymbol(lambda x: _p(t, -x))],
    ])


def symbol_psi_inverse(params: DimerParams) -> MatrixSymbol:
    """psi^{-1} = eta [[ptilde, qtilde], [q, p]] in closed form."""
    if not params.is_real_unit_interval:
        raise ParameterOutOfRange(f"symbol_psi_inverse requires real t in (0, 1), got {params.t}")
    t = params.t
    return MatrixSymbol.from_entries([
        [ScalarSymbol(lambda x: _eta(t, x) * _p(t, -x)),
         ScalarSymbol(lambda x: _eta(t, x) * _q(t, -x))],
        [ScalarSymbol(lambda x: _eta(t, x) * _q(t, x)),
         ScalarSymbol(lambda x: _eta(t, x) * _p(t, x))],
    ])


def symbol_a_b(params: DimerParams) -> tuple[ScalarSymbol, ScalarSymbol]:
    """The scalar entries a = eta*p and b = eta*q of psi^{-1}.

    ``a`` is the lower-right entry of psi^{-1} and ``b`` the lower-left one;
    their Fourier coefficients are the inputs to the finite-determinant
    constant algebra in :mod:`dimerdet.closed_form`.
    """
    if not params.is_real_unit_interval:
        raise ParameterOutOfRange(f"symbol_a_b requires real t in (0, 1), got {params.t}")
    t = params.t
    a = ScalarSymbol(lambda x: _eta(t, x) * _p(t, x))
    b = ScalarSymbol(lambda x: _eta(t, x) * _q(t, x))
    return a, b


def phi_table(params: DimerParams) -> FourierTable:
    """Fourier table of symbol_phi at the configured grid sizes."""
    return fourier_coefficients(symbol_phi(params), params.fourier_m,
                                params.fourier_k, params.tail_tol)


# ---------------------------------------------------------------------------
# the single-integral kernels behind the coefficients
# ---------------------------------------------------------------------------

class KernelSymbols(NamedTuple):
    st_quadrature: ScalarSymbol
    v_quadrature: ScalarSymbol
    st_closed: ScalarSymbol
    v_closed: ScalarSymbol


def kernel_symbols(params: DimerParams) -> KernelSymbols:
    """S+T and V as y-quadratures and as closed forms (V with sign dropped).

    The quadrature evaluators integrate over y by the periodic trapezoid
    rule at ``quad_grid`` points, with a doubled-grid convergence check per
    evaluation.  The closed form of V omits the n-dependent global sign,
    which does not affect any determinant built from it.
    """
    if not params.is_real_unit_interval:
        raise ParameterOutOfRange(f"kernel_symbols requires real t in (0, 1), got {params.t}")
    t = params.t

    def st_sum(x, grid):
        y = (2.0 * np.pi * np.arange(grid) / grid - np.pi)[None, :]
        xc = np.asarray(x, dtype=float)[:, None]
        den = (np.cos(xc - np.pi / 2) ** 2 + np.cos(y) ** 2
               + t * t * np.cos(xc + y - np.pi / 2) ** 2)
        s_num = t * np.cos(xc + y - np.pi / 2) * np.exp(1j * (xc + y - np.pi / 2))
        t_num = -np.cos(y) * np.exp(1j * (xc + y))
        return (2.0 * np.pi / grid) / (4.0 * np.pi) * np.sum((s_num + t_num) / den, axis=1)

    def v_sum(x, grid):
        y = (2.0 * np.pi * np.arange(grid) / grid - np.pi)[None, :]
        xc = np.asarray(x, dtype=float)[:, None]
        den = (np.cos(xc - np.pi / 2) ** 2 + np.cos(y) ** 2
               + t * t * np.cos(xc + y - np.pi / 2) ** 2)
        num = np.cos(xc - np.pi / 2) * np.ones_like(y)
        return (2.0 * np.pi / grid) / (4.0 * np.pi) * np.sum(num / den, axis=1)

    def checked(sum_fn, what):
        def eval_(x):
            fine = sum_fn(x, 2 * params.quad_grid)
            coarse = sum_fn(x, params.quad_grid)
            err = float(np.max(np.abs(fine - coarse)))
            if err > params.quad_tol:
                raise QuadratureUnconverged(f"{what}: doubled-grid change {err:.3e}")
            return fine
        return ScalarSymbol(eval_)

    st_closed = ScalarSymbol(lambda x: (
        -(t * np.cos(x) + np.sin(x) ** 2) / (2.0 * (t - np.exp(-1j * x)) * _weight(t, x))
        + 1.0 / (2.0 * (t - np.exp(-1j * x)))))
    v_closed = ScalarSymbol(lambda x: np.sin(x) / (2.0 * _weight(t, x)))
    return KernelSymbols(checked(st_sum, "S+T"), checked(v_sum, "V"),
                           st_closed, v_closed)


# ---------------------------------------------------------------------------
# determinant-level operations
# ---------------------------------------------------------------------------

def flip_conjugate(mat: np.ndarray, n: int) -> np.ndarray:
    """diag(I_n, W_n) . M . diag(I_n, W_n) with W_n the index reversal.

    Conjugation by the involution W_n turns the sum-index (Hankel-type)
    off-diagonal blocks of the dimer matrix into difference-index
    (Toeplitz-type) blocks without changing the determinant.
    """
    mat = np.asarray(mat)
    if mat.shape != (2 * n, 2 * n):
        raise DimensionMismatch(f"expected shape {(2 * n, 2 * n)}, got {mat.shape}")
    out = mat.copy()
    out[n:, :] = out[n:, :][::-1, :]
    out[:, n:] = out[:, n:][:, ::-1]
    return out
