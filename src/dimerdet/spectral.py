"""Foundational numerics for symbols on the unit circle.

Symbols are complex functions of the angle ``x`` (radians); a matrix symbol
is one evaluator returning (len(x), N, N) arrays.  This module samples symbols, extracts
Fourier coefficients by FFT, assembles finite block Toeplitz/Hankel
sections, and provides log-determinants and geometric means with explicit
branch tracking.  Determinants are carried in log form throughout and only
exponentiated at reporting boundaries.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .errors import (
    NonzeroWinding,
    SampleFailure,
    SingularDeterminant,
    SingularSymbol,
    TailNotResolved,
    TruncationTooShort,
)

_EPS = float(np.finfo(float).eps)

Evaluator = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ScalarSymbol:
    """A complex function of the angle x in [-pi, pi), evaluated vectorized."""

    fn: Evaluator

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.asarray(self.fn(x), dtype=complex)

    @staticmethod
    def constant(value) -> "ScalarSymbol":
        c = complex(value)
        return ScalarSymbol(lambda x: np.full(np.shape(x), c, dtype=complex))


@dataclass(frozen=True)
class MatrixSymbol:
    """An N x N symbol: one evaluator from angles to an array (len(x), N, N)."""

    fn: Evaluator
    block_size: int

    @staticmethod
    def from_entries(rows: Sequence[Sequence[ScalarSymbol]]) -> "MatrixSymbol":
        """Stack scalar entry symbols into one evaluator."""
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("entries must be square")
        return MatrixSymbol(
            lambda x: _stack_entries([[e(x) for e in r] for r in rows], x.size), n)

    @staticmethod
    def from_scalar(sym: ScalarSymbol) -> "MatrixSymbol":
        return MatrixSymbol.from_entries([[sym]])

    def sample(self, x) -> np.ndarray:
        """Evaluate on angles x, returning an array of shape (len(x), N, N)."""
        x = np.asarray(x, dtype=float)
        return np.asarray(self.fn(x), dtype=complex)


def _stack_entries(rows: Sequence[Sequence], size: int) -> np.ndarray:
    """The (size, N, N) array whose entry (i, j) is ``rows[i][j]`` (broadcast)."""
    n = len(rows)
    out = np.empty((size, n, n), dtype=complex)
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            out[:, i, j] = value
    return out


def as_matrix_symbol(sym: ScalarSymbol | MatrixSymbol) -> MatrixSymbol:
    if isinstance(sym, MatrixSymbol):
        return sym
    return MatrixSymbol.from_scalar(sym)


#: the orders the doubling rule of :func:`fourier_coefficients` starts from
#: and stops at; below order 32 (grid 256) a table costs about as much as at
#: 32, since per-call overhead dominates the sampling, so it starts no lower
MIN_ORDER = 32
MAX_ORDER = 4096
#: the magnitude the outermost coefficients of a table must fall below
TAIL_TOL = 1e-13


def grid_for_order(order: int) -> int:
    """The smallest power-of-two grid with ``grid >= 4*order + 4``."""
    return 1 << (4 * order + 3).bit_length()


@dataclass(frozen=True)
class FourierTable:
    """Two-sided table of matrix Fourier coefficients, indices -K..K.

    ``coeffs[k + order]`` holds the N x N coefficient at index k.  Indices
    beyond the order read as zero blocks, which is legitimate once the tail
    invariant (last coefficients below ``tail_tol``) has been certified.
    """

    block_size: int
    order: int
    coeffs: np.ndarray  # shape (2*order+1, N, N)
    tail_tol: float = TAIL_TOL

    def __post_init__(self):  # readers share a table; none may change it
        self.coeffs.setflags(write=False)

    def coeff(self, k: int) -> np.ndarray:
        if abs(k) > self.order:
            return np.zeros((self.block_size, self.block_size), dtype=complex)
        return self.coeffs[k + self.order]

    def scalar(self, k: int) -> complex:
        if self.block_size != 1:
            raise ValueError("scalar() requires a block size of 1")
        return complex(self.coeff(k)[0, 0])

    def tail_magnitude(self) -> float:
        """Largest entry magnitude among the two outermost coefficient pairs."""
        edge = [self.coeffs[0], self.coeffs[1], self.coeffs[-2], self.coeffs[-1]]
        return float(max(np.max(np.abs(c)) for c in edge))

    @staticmethod
    def from_coeff_map(coeffs: dict[int, complex], order: int) -> "FourierTable":
        """Build a scalar table from an explicit {index: value} map."""
        arr = np.zeros((2 * order + 1, 1, 1), dtype=complex)
        for k, v in coeffs.items():
            if abs(k) > order:
                raise ValueError(f"coefficient index {k} beyond order {order}")
            arr[k + order, 0, 0] = v
        return FourierTable(1, order, arr)


@dataclass(frozen=True)
class LogDet:
    """Determinant in polar log form: det = exp(log_modulus + i*phase)."""

    log_modulus: float
    phase: float
    is_singular: bool

    @property
    def value(self) -> complex:
        if self.is_singular:
            raise SingularDeterminant("determinant flagged singular by the LU pivot test")
        return cmath.exp(complex(self.log_modulus, self.phase))


def fourier_coefficients(sym: ScalarSymbol | MatrixSymbol, grid_size: int | None = None,
                         order: int | None = None, tail_tol: float = TAIL_TOL) -> FourierTable:
    """Fourier coefficients of a symbol by FFT on a uniform grid.

    With ``grid_size`` omitted the resolution follows the symbol: ``order``
    is only the floor the caller reads, the grid is ``grid_for_order`` of
    the order, and the order doubles from ``max(order, MIN_ORDER)`` until
    the tail check passes, up to ``max(order, MAX_ORDER)``.  An explicit ``grid_size`` must be a power
    of two with ``grid_size >= 4*order + 4``, so aliasing of the retained
    band is controlled, and is tried once.  The tail check: the two
    outermost coefficient pairs must fall below ``tail_tol``, or
    TailNotResolved is raised.
    """
    msym = as_matrix_symbol(sym)
    if grid_size is None:
        order = max(order or 0, MIN_ORDER)
        cap = max(order, MAX_ORDER)
    else:
        if order is None or grid_size < 4 * order + 4:
            raise ValueError(f"grid_size {grid_size} needs an order with 4*order+4 <= "
                             f"grid_size, got order {order}")
        if grid_size & (grid_size - 1):
            raise ValueError(f"grid_size {grid_size} is not a power of two")
        cap = order
    while True:
        tab, tail = _table(msym, grid_size or grid_for_order(order), order, tail_tol)
        if tail <= tail_tol:
            return tab
        if order >= cap:
            rule = "" if grid_size else f", the doubling rule's cap (MAX_ORDER = {MAX_ORDER})"
            raise TailNotResolved(
                f"tail magnitude {tail:.3e} exceeds {tail_tol:.1e} at order {order}{rule}")
        order = min(2 * order, cap)


def common_order_tables(syms: Sequence[ScalarSymbol | MatrixSymbol],
                        order: int | None = None) -> tuple[FourierTable, ...]:
    """Tables of several symbols at one shared order, each resolved by the
    doubling rule of :func:`fourier_coefficients` from the floor ``order``
    and rebuilt at the highest order any of them reached."""
    tabs = [fourier_coefficients(sym, order=order) for sym in syms]
    top = max(tab.order for tab in tabs)
    return tuple(tab if tab.order == top
                 else fourier_coefficients(sym, grid_for_order(top), top)
                 for sym, tab in zip(syms, tabs))


def _table(msym: MatrixSymbol, grid_size: int, order: int,
           tail_tol: float) -> tuple[FourierTable, float]:
    """The table to ``order`` from ``grid_size`` samples, and its tail magnitude."""
    x = 2.0 * np.pi * np.arange(grid_size) / grid_size
    x = (x + np.pi) % (2.0 * np.pi) - np.pi  # evaluator domain is [-pi, pi)
    samples = msym.sample(x)
    if not np.all(np.isfinite(samples)):
        raise SampleFailure("symbol evaluator returned non-finite values")
    spec = np.fft.fft(samples, axis=0) / grid_size
    ks = np.arange(-order, order + 1)
    tab = FourierTable(msym.block_size, order, spec[ks % grid_size], tail_tol)
    return tab, tab.tail_magnitude()


def series_symbol(tab: FourierTable) -> MatrixSymbol:
    """The truncated Fourier series of a table: one Horner pass in z = e^{ix}."""
    def eval_(x):
        z = np.exp(1j * x)[:, None, None]
        acc = np.zeros((x.size, tab.block_size, tab.block_size), dtype=complex)
        for c in tab.coeffs[::-1]:
            acc *= z
            acc += c
        acc *= np.exp(-1j * tab.order * x)[:, None, None]
        return acc

    return MatrixSymbol(eval_, tab.block_size)


def _lagrange_fill(fn, x: np.ndarray, bad: np.ndarray, step: float) -> np.ndarray:
    """Evaluate fn(x), replacing entries flagged ``bad`` by a 4-point
    polynomial extrapolation from offsets +-step, +-2*step."""
    out = np.empty(x.shape, dtype=complex)
    good = ~bad
    if np.any(good):
        out[good] = fn(x[good])
    if np.any(bad):
        offs = np.array([-2.0 * step, -step, step, 2.0 * step])
        # Lagrange weights for interpolating to offset 0
        weights = np.array([
            np.prod([0.0 - offs[b] for b in range(4) if b != a])
            / np.prod([offs[a] - offs[b] for b in range(4) if b != a])
            for a in range(4)
        ])
        vals = np.stack([fn(x[bad] + o) for o in offs], axis=0)
        out[bad] = weights @ vals
    return out


def toeplitz_matrix(tab: FourierTable, n: int) -> np.ndarray:
    """The nN x nN section with block (j, k) equal to coefficient j - k."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n - 1 > tab.order:
        raise TruncationTooShort(
            f"Toeplitz section n={n} needs coefficients to {n - 1}, table has {tab.order}")
    return _assemble(tab, np.subtract.outer(np.arange(n), np.arange(n)))


def hankel_matrix(tab: FourierTable, m: int) -> np.ndarray:
    """The mN x mN section with block (j, k) equal to coefficient j + k + 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if 2 * m - 1 > tab.order:
        raise TruncationTooShort(
            f"Hankel section m={m} needs coefficients to {2 * m - 1}, table has {tab.order}")
    return _assemble(tab, np.add.outer(np.arange(m), np.arange(m)) + 1)


def toeplitz_section(tab: FourierTable, m: int, reflected: bool = False) -> np.ndarray:
    """Truncation of the semi-infinite T(phi) (or T(phitilde)), zero-padded.

    Unlike :func:`toeplitz_matrix` this reads indices beyond the table order
    as zero blocks; use it for operator truncations where the tail has been
    certified small.
    """
    idx = np.subtract.outer(np.arange(m), np.arange(m))
    if reflected:
        idx = -idx
    return _assemble(tab, idx)


def hankel_section(tab: FourierTable, m: int, shift: int = 0,
                   reflected: bool = False) -> np.ndarray:
    """Truncation of H(z^{-shift} phi) (or with phitilde), zero-padded.

    Block (j, k) is coefficient ``j+k+1+shift`` of phi, or coefficient
    ``-(j+k+1+shift)`` when ``reflected`` (symbol replaced by its tilde).
    """
    idx = np.add.outer(np.arange(m), np.arange(m)) + 1 + shift
    if reflected:
        idx = -idx
    return _assemble(tab, idx)


def _assemble(tab: FourierTable, idx: np.ndarray) -> np.ndarray:
    """The section whose block (j, k) is coefficient ``idx[j, k]`` (zero past
    the table order), gathered 64 block rows at a time into its buffer."""
    n, m = tab.block_size, idx.shape[0]
    out = np.zeros((m * n, m * n), dtype=complex)
    blocks = out.reshape(m, n, m, n).transpose(0, 2, 1, 3)  # a view of out
    for lo in range(0, m, 64):
        rows = idx[lo:lo + 64]
        inside = np.abs(rows) <= tab.order
        blocks[lo:lo + 64][inside] = tab.coeffs[rows[inside] + tab.order]
    if not np.all(np.isfinite(out)):
        raise SampleFailure("matrix section contains non-finite entries")
    return out


def pivoted_lu(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, LogDet]:
    """Partial-pivot LU of a square array, consumed (in place if Fortran-ordered).

    The determinant is U's diagonal times the permutation sign, kept in log
    form so hundreds of pivots cannot overflow; a pivot at or below
    ``n * eps * ||a||_inf`` flags it singular.  LAPACK ``?lange`` gives the
    norm without a temporary and catches non-finite entries.
    """
    lange = scipy.linalg.get_lapack_funcs("lange", (a,))
    # the transpose of a C-ordered array is Fortran-ordered, with 1-norm ||a||_inf
    norm = float(lange("I", a) if a.flags.f_contiguous else lange("1", a.T))
    if not math.isfinite(norm):
        raise SampleFailure("matrix contains non-finite entries")
    lu, piv = scipy.linalg.lu_factor(a, overwrite_a=True, check_finite=False)
    diag = np.diagonal(lu)
    if norm == 0.0 or np.any(np.abs(diag) <= a.shape[0] * _EPS * norm):
        return lu, piv, LogDet(-math.inf, 0.0, True)
    parity = int(np.sum(piv != np.arange(diag.size))) % 2
    log_mod = float(np.sum(np.log(np.abs(diag))))
    phase = float(np.sum(np.angle(diag))) + parity * math.pi
    phase = math.remainder(phase, 2.0 * math.pi)
    if phase <= -math.pi:
        phase += 2.0 * math.pi
    return lu, piv, LogDet(log_mod, phase, False)


def log_determinant(a: np.ndarray) -> LogDet:
    """Log-determinant via pivoted LU of a copy of ``a``; singularity is flagged."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("log_determinant requires a square matrix")
    if a.shape[0] == 0:
        return LogDet(0.0, 0.0, False)
    return pivoted_lu(np.array(a, dtype=complex, order="F"))[2]


def pointwise_inverse(sym: ScalarSymbol | MatrixSymbol) -> MatrixSymbol:
    """The symbol x -> sym(x)^{-1}, via reciprocal (N=1) or 2x2 adjugate."""
    msym = as_matrix_symbol(sym)
    n = msym.block_size
    if n > 2:
        raise ValueError("pointwise_inverse supports block sizes 1 and 2 only")

    def eval_(x):
        v = msym.sample(x)
        d = _pointwise_det(v)
        if np.any(np.abs(d) < 1e-14):
            raise SingularSymbol("det of symbol below 1e-14 on evaluation points")
        if n == 1:
            return 1.0 / v
        # adjugate/det: inv[i][j] = (-1)^{i+j} m[1-j][1-i] / det
        return v[:, ::-1, ::-1].transpose(0, 2, 1) * [[1, -1], [-1, 1]] / d[:, None, None]

    return MatrixSymbol(eval_, n)


def _pointwise_det(v: np.ndarray) -> np.ndarray:
    """det of each N x N sample in a (len(x), N, N) array; closed form for N <= 2."""
    if v.shape[1] == 1:
        return v[:, 0, 0]
    if v.shape[1] == 2:
        return v[:, 0, 0] * v[:, 1, 1] - v[:, 0, 1] * v[:, 1, 0]
    return np.linalg.det(v)


def _unwrapped_logdet_samples(sym: MatrixSymbol, grid_size: int):
    x = 2.0 * np.pi * np.arange(grid_size) / grid_size
    x = (x + np.pi) % (2.0 * np.pi) - np.pi
    d = _pointwise_det(sym.sample(x))
    if not np.all(np.isfinite(d)):
        raise SampleFailure("symbol evaluator returned non-finite values")
    if np.any(np.abs(d) < 1e-14):
        raise SingularSymbol("det of symbol below 1e-14 on the sampling grid")
    # branch-continuous argument along the grid, closed around the circle
    ang = np.unwrap(np.angle(np.concatenate([d, d[:1]])))
    winding_change = ang[-1] - ang[0]
    return d, ang, winding_change


def winding_check(sym: ScalarSymbol | MatrixSymbol, grid_size: int = 4096) -> None:
    """Raise NonzeroWinding unless arg det sym returns to itself."""
    _, _, change = _unwrapped_logdet_samples(as_matrix_symbol(sym), grid_size)
    if abs(change) >= math.pi:
        raise NonzeroWinding(f"accumulated argument change {change:.3f} rad")


def geometric_mean(sym: ScalarSymbol | MatrixSymbol, grid_size: int = 4096) -> complex:
    """G(sym): exp of the circle average of log det sym.

    The argument of det is unwrapped sequentially along the grid, which both
    verifies the zero-winding hypothesis and fixes the log branch; the
    average is the periodic trapezoid rule including the closing point.
    """
    msym = as_matrix_symbol(sym)
    d, ang, change = _unwrapped_logdet_samples(msym, grid_size)
    if abs(change) >= math.pi:
        raise NonzeroWinding(f"accumulated argument change {change:.3f} rad")
    vals = np.log(np.abs(d)) + 1j * ang[:-1]
    closing = np.log(abs(d[0])) + 1j * ang[-1]
    mean = (0.5 * vals[0] + np.sum(vals[1:]) + 0.5 * closing) / grid_size
    return complex(np.exp(mean))
