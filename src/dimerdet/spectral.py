"""Foundational numerics for symbols on the unit circle.

Symbols are complex functions of the angle ``x`` (radians); a matrix symbol
is one evaluator returning (len(x), N, N) arrays.  This module samples symbols, extracts
Fourier coefficients by FFT, assembles finite block Toeplitz/Hankel
sections, and provides log-determinants and geometric means with explicit
branch tracking.  A determinant is assembled in log form from its pivots,
so their product cannot overflow on the way; its callers read its value.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    NonzeroWinding,
    QuadratureUnconverged,
    SampleFailure,
    SingularDeterminant,
    SingularSymbol,
    TailNotResolved,
)

_EPS = float(np.finfo(float).eps)

Evaluator = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ScalarSymbol:
    """A complex function of the angle x in [-pi, pi), evaluated vectorized.

    An evaluator may return several such functions at once, shape
    (len(x), m), when they share work (see :func:`common_order_tables`).
    """

    fn: Evaluator

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.asarray(self.fn(x), dtype=complex)


@dataclass(frozen=True)
class MatrixSymbol:
    """An N x N symbol: one evaluator from angles to an array (len(x), N, N)."""

    fn: Evaluator

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


#: the doubling rules of this module run on grids from MIN_GRID up to
#: MAX_GRID points; below 256 a table costs about as much as at 256, since
#: per-call overhead dominates the sampling, so none starts lower
MIN_GRID = 256
MAX_GRID = 32768
#: the magnitude the coefficients at a table grid's top band must fall below
TAIL_TOL = 1e-13
#: the tolerance of :func:`_doubled` for quadratures: the relative change one
#: more doubling may make to the torus sums of ``dimer`` and to G
QUAD_TOL = 1e-10


def table_grid(order: int) -> int:
    """The grid :func:`common_order_tables` samples first for a table of at
    least ``order``: the smallest power of two whose table order
    ``grid/2 - 2`` covers it, and at least ``MIN_GRID``.

    A table that loop returns has order ``grid/2 - 2`` of the grid it was
    sampled on, so ``table_grid(tab.order)`` is that grid.
    """
    return max(MIN_GRID, 1 << (2 * order + 3).bit_length())


def _doubled(values, size: int, cap: int, tol: float, error: type, what: str,
             cap_name: str):
    """``values(size)`` and its size, doubled from ``size`` until one more
    doubling moves no entry by more than ``tol`` relative to max(1, |entry|).

    Sizes double up to ``max(cap, 2 * size)``, the last step clamped to it:
    a start at or above the cap still gets its one doubled check.  Past it
    ``error`` is raised, naming ``cap_name`` and its value.
    """
    top = max(cap, 2 * size)
    coarse = np.asarray(values(size))
    while size < top:
        size = min(2 * size, top)
        fine = np.asarray(values(size))
        moved = float(np.max(np.abs(fine - coarse) / np.maximum(1.0, np.abs(fine))))
        if moved <= tol:
            return fine, size
        coarse = fine
    raise error(f"{what}: doubling to {size} moved the value by {moved:.3e}, "
                f"at the cap {cap_name} = {cap}")


@dataclass(frozen=True)
class FourierTable:
    """Two-sided table of matrix Fourier coefficients, indices -K..K.

    ``coeffs`` has shape (2K + 1, N, N), and ``coeffs[k + order]`` holds the
    N x N coefficient at index k; the order K and block size N are read off
    it.  Indices beyond the order read as zero blocks, which is legitimate
    once the tail invariant has been certified: on the grid the table was
    sampled on, the coefficients at its top band, indices order + 1 and
    order + 2 on either side (the grid's Nyquist index and its neighbours),
    are below ``TAIL_TOL``.  Those bound the aliasing of every coefficient kept.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        shape = self.coeffs.shape
        if len(shape) != 3 or shape[0] % 2 == 0 or shape[1] != shape[2]:
            raise ValueError(f"a table holds (2K + 1, N, N) coefficients, got shape {shape}")
        self.coeffs.setflags(write=False)  # readers share a table; none may change it

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] // 2

    @property
    def block_size(self) -> int:
        return self.coeffs.shape[1]


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


def fourier_coefficients(sym: MatrixSymbol, order: int | None = None) -> FourierTable:
    """Fourier coefficients of a symbol by FFT, at the resolution the symbol
    needs: ``order`` is only the floor the caller reads (the doubling rule
    of :func:`common_order_tables`, for a family of one)."""
    return common_order_tables(lambda x: sym.sample(x)[:, None], order)[0]


def common_order_tables(sample: Evaluator,
                        order: int | None = None) -> tuple[FourierTable, ...]:
    """Tables of the symbols one evaluator samples together, at one order.

    ``sample(x)`` has shape (len(x), m, N, N): m symbols of block size N.
    The one table loop: FFT the samples on a grid of G points and stop once
    every table has passed the tail check on this rung or an earlier one;
    the tables then hold every coefficient the grid certifies, at order
    G/2 - 2.  The check reads the grid's top band, the coefficients at
    indices G/2 - 1 and G/2 on either side (both parities), which must be
    at most ``TAIL_TOL``: the trapezoid rule's aliasing error in a
    coefficient c_k is c_{k -+ G}, one grid away (Trefethen & Weideman,
    SIAM Review 56, 2014), so for |k| <= G/2 - 2 it lies past that band.
    The grid doubles from :func:`table_grid` of ``order`` up to
    ``max(that, MAX_GRID)``, past which TailNotResolved is raised.  Each
    doubling reuses the samples of the grid before as its even points (see
    :func:`_nested`).
    """
    grid = table_grid(order or 0)
    cap = max(grid, MAX_GRID)
    on_grid = _nested(sample)
    passed = False
    while True:
        spec = np.fft.fft(on_grid(grid), axis=0)
        half = grid // 2
        band = spec[[half - 1, half, half + 1]] / grid  # indices G/2 - 1, -+G/2, 1 - G/2
        tails = np.abs(band).max(axis=(0, 2, 3))
        passed = passed | (tails <= TAIL_TOL)
        if np.all(passed):
            ks = np.arange(2 - half, half - 1) % grid
            # each table owns its coefficients: advanced indexing copies
            return tuple(FourierTable(spec[ks, i] / grid) for i in range(tails.size))
        if grid >= cap:
            raise TailNotResolved(
                f"tail magnitude {tails[np.argmin(passed)]:.3e} exceeds {TAIL_TOL:.1e} "
                f"at order {half - 2} on grid {grid}, the doubling rule's cap "
                f"(MAX_GRID = {MAX_GRID})")
        grid *= 2


@functools.lru_cache(maxsize=16)
def _grid(size: int) -> np.ndarray:
    """The points 2 pi j / size, mapped into [-pi, pi), the evaluator domain.

    Read-only and kept: the mapping costs about as much as an FFT of the
    same size, and the doubling rules ask for a few powers of two only.

    For a power of two the even points of ``_grid(2 * size)`` are bitwise
    ``_grid(size)``: doubling numerator and denominator is exact.
    """
    x = 2.0 * np.pi * np.arange(size) / size
    x = (x + np.pi) % (2.0 * np.pi) - np.pi
    x.setflags(write=False)
    return x


def _nested(sample: Evaluator) -> Callable[[int], np.ndarray]:
    """``sample`` on ``_grid(size)`` for the sizes asked in turn, checked finite.

    When a size doubles the one before, the samples before are its even
    points and only the odd points are evaluated (the periodic trapezoid
    rule refines by midpoints); any other size is sampled fresh.
    """
    held = None

    def on_grid(size: int) -> np.ndarray:
        nonlocal held
        if held is not None and size == 2 * len(held):
            new = sample(np.ascontiguousarray(_grid(size)[1::2]))
            out = np.empty((size,) + new.shape[1:], dtype=new.dtype)
            out[0::2], out[1::2] = held, new
        else:
            new = out = sample(_grid(size))
        if not np.all(np.isfinite(new)):
            raise SampleFailure("symbol evaluator returned non-finite values")
        held = out
        return out

    return on_grid


#: the most entries e^{ikx} :func:`_series` holds at a time: its product runs
#: over blocks of angles, so however long a table is the basis stays 256 KB
#: (at 1 MB blocks the identity suite's peak RSS rose by 1.8 MB, seed 2)
_SERIES_BASIS = 1 << 14


def _series(coeffs: np.ndarray) -> Evaluator:
    """The truncated Fourier series whose coefficient k is ``coeffs[k + K]``,
    k = -K..K, of any block shape ``coeffs.shape[1:]`` (a family of tables
    padded to one order stacks on an axis of it): the basis e^{ikx} times
    the coefficients by :func:`_gemm`, values of shape (len(x),) +
    ``coeffs.shape[1:]``.  The values on the first read-only angles asked (a
    :func:`_grid`: the doubling rules all start on ``MIN_GRID``) are kept,
    read-only, for the next call on that array."""
    block = coeffs.shape[1:]
    ks = np.arange(coeffs.shape[0]) - coeffs.shape[0] // 2
    # transposed, both factors reach ?gemm Fortran-ordered, uncopied
    flat_t = np.ascontiguousarray(coeffs.reshape(ks.size, -1), dtype=complex).T
    rows = max(1, _SERIES_BASIS // ks.size)
    held = []

    def eval_(x):
        if held and x is held[0]:
            return held[1]
        out = np.empty((x.size, flat_t.shape[0]), dtype=complex)
        for i in range(0, x.size, rows):
            out[i:i + rows] = _gemm(flat_t, np.exp(1j * np.multiply.outer(x[i:i + rows], ks)).T).T
        out = out.reshape((x.size,) + block)
        if not (held or x.flags.writeable):
            out.setflags(write=False)
            held[:] = x, out
        return out

    return eval_


def toeplitz_section(tab: FourierTable, m: int, reflected: bool = False) -> np.ndarray:
    """The mN x mN truncation of T(phi), or of T(phitilde) when ``reflected``:
    block (j, k) is coefficient ``j-k`` (or ``k-j``), zero past the table order."""
    return _section(tab, m, -(m - 1), -1 if reflected else 1, toeplitz=True)


def hankel_section(tab: FourierTable, m: int, shift: int = 0,
                   reflected: bool = False) -> np.ndarray:
    """The mN x mN truncation of H(z^{-shift} phi), or with phitilde:
    block (j, k) is coefficient ``j+k+1+shift``, negated when ``reflected``,
    zero past the table order."""
    return _section(tab, m, 1 + shift, -1 if reflected else 1, toeplitz=False)


def _section(tab: FourierTable, m: int, first: int, sign: int, toeplitz: bool,
             rows: int | None = None) -> np.ndarray:
    """The first ``rows`` rows (all mN by default) of the m-block-column
    section whose block (j, k) is ``strip[j + k]`` (Hankel), or
    ``strip[j + m-1-k]`` (Toeplitz), where ``strip[i]`` is coefficient
    ``sign * (first + i)``; a ``rows`` that is not a multiple of N cuts the
    last block row.

    The strip is a view of the table where it lies inside the order and a
    zero-padded copy where it does not; it is copied once, through a
    zero-copy sliding window, into a Fortran-ordered buffer of the table's
    dtype that :func:`pivoted_lu` factors in place.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n, order = tab.block_size, tab.order
    rows = m * n if rows is None else rows
    whole, cut = divmod(rows, n)
    length = whole + (cut > 0) + m - 1  # strip entries the block rows read
    start = sign * first + order  # the row of tab.coeffs strip[0] reads
    if abs(first) <= order and abs(first + length - 1) <= order:
        strip = tab.coeffs[start::sign][:length]
    else:
        idx = start + sign * np.arange(length)
        inside = (0 <= idx) & (idx <= 2 * order)
        strip = np.zeros((length, n, n), dtype=tab.coeffs.dtype)
        strip[inside] = tab.coeffs[idx[inside]]
    if not np.isfinite(strip).all():
        raise SampleFailure("matrix section contains non-finite entries")
    window = sliding_window_view(strip, m, axis=0)  # [j, a, b, k] is strip[j + k]
    if toeplitz:
        window = window[..., ::-1]
    out = np.empty((rows, m * n), dtype=tab.coeffs.dtype, order="F")
    # row jN + a of out is blocks[a, j], one row at a time in a cut block row
    blocks = out[:whole * n].reshape((n, whole, n, m), order="F")
    blocks[...] = window[:whole].transpose(1, 0, 2, 3)
    for a in range(cut):
        out[whole * n + a].reshape((n, m), order="F")[...] = window[whole, a]
    return out


#: the largest stray part a table may hold where a real form of it is
#: taken, relative to its max|c|: the imaginary part left by
#: :func:`_checkerboard_real`, and an e+ coefficient's imaginary part or a d
#: coefficient's real part in ``continuation._conjugate_tables``
STRAY_TOL = 1e-14


def _checkerboard_real(tab: FourierTable) -> FourierTable | None:
    """The table of D sym D^{-1}, D = diag(i^r) over the block rows r, in
    float64, when that is real.  The similarity multiplies entry (r, c) of
    every coefficient by i^{r - c}, so it makes real a table that is real
    where r + c is even and imaginary where it is odd (the ``checkerboard``
    of :func:`folded_log_determinant`; for real t the dimer symbol's and its
    inverse's, with D = diag(1, i)).  None when an imaginary part above
    ``STRAY_TOL`` of the table's max|c| remains; below it the imaginary
    parts are dropped.

    D is block-diagonal on a section, so a product of sections of such
    tables is similar, with the same determinant, to the product of the
    real sections of theirs.
    """
    r = np.arange(tab.block_size)
    similar = tab.coeffs * np.array([1, 1j, -1, -1j])[(r[:, None] - r) % 4]
    if np.max(np.abs(similar.imag)) > STRAY_TOL * np.max(np.abs(similar)):
        return None
    return FourierTable(similar.real.copy())


def _factored(a: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray, LogDet]:
    """LAPACK ``?getrf`` of a square array, in place if it is Fortran-ordered,
    and its determinant: U's diagonal times the permutation sign, kept in
    log form so hundreds of pivots cannot overflow, flagged singular when a
    pivot is at or below ``floor``."""
    getrf, = scipy.linalg.get_lapack_funcs(("getrf",), (a,))
    lu, piv, _ = getrf(a, overwrite_a=True)
    diag = np.diagonal(lu)
    if np.any(np.abs(diag) <= floor):
        return lu, piv, LogDet(-math.inf, 0.0, True)
    parity = int(np.count_nonzero(piv != np.arange(diag.size))) % 2
    return lu, piv, _log_det(float(np.sum(np.log(np.abs(diag)))),
                             float(np.sum(np.angle(diag))) + parity * math.pi)


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b by scipy's BLAS ``?gemm``, whose OpenBLAS thread pool runs :func:`_factored`."""
    return scipy.linalg.get_blas_funcs(("gemm",), (a, b))[0](1.0, a, b)


def _log_det(log_mod: float, phase: float) -> LogDet:
    """A nonsingular LogDet, its phase reduced to (-pi, pi]."""
    phase = math.remainder(phase, 2.0 * math.pi)
    if phase <= -math.pi:
        phase += 2.0 * math.pi
    return LogDet(log_mod, phase, False)


#: the columns :func:`_inf_norm` and the fold read at a time, so that their
#: temporaries stay thin strips however large the matrix is
_NORM_BLOCK = 64


def _inf_norm(a: np.ndarray) -> float:
    """||a||_inf, the largest row sum of |a|, summed over strips of
    ``_NORM_BLOCK`` columns, so no temporary of a's size is made; a
    non-finite entry raises SampleFailure."""
    sums = np.zeros(a.shape[0])
    for j in range(0, a.shape[1], _NORM_BLOCK):
        sums += np.abs(a[:, j:j + _NORM_BLOCK]).sum(axis=1)
    norm = float(sums.max(initial=0.0))
    if not math.isfinite(norm):
        raise SampleFailure("matrix contains non-finite entries")
    return norm


def pivoted_lu(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, LogDet]:
    """Partial-pivot LU of a square array, consumed (in place if Fortran-ordered),
    with pivots and LogDet as :func:`_factored` gives them; a pivot at or
    below ``n * eps * ||a||_inf`` flags it singular."""
    return _factored(a, a.shape[0] * _EPS * _inf_norm(a))


def toeplitz_determinants(coeffs: np.ndarray, sizes) -> np.ndarray:
    """det T_m(phi_i), m = ``sizes[i]`` blocks, for a family of symbols of
    one block size N with coefficient k at ``coeffs[k + K, i]``, shape
    (2K + 1, len(sizes), N, N), K >= max(sizes) - 1.  The sections are built
    as one stack, each padded to the largest with an identity block, which
    LAPACK's ``?getrf`` never pivots on (it picks the first entry of largest
    |Re| + |Im|), and each is factored in place in it: about 1 us a section
    here, where an elimination vectorized over the stack in numpy took 3 to
    6 times the whole pass.  Each section's pivots are tested as
    :func:`pivoted_lu` tests them, against its own ``mN * eps * ||T||_inf``;
    one at or below it raises SingularDeterminant, naming the member."""
    sizes = np.asarray(sizes) * coeffs.shape[2]
    order, n = coeffs.shape[0] // 2, coeffs.shape[2]
    top = int(sizes.max(initial=0))
    if top > (order + 1) * n:
        raise ValueError(f"sections of {top // n} blocks need order {top // n - 1}, got {order}")
    if top == 0:
        return np.ones(sizes.size, dtype=complex)
    r = np.arange(top)
    inside = r < sizes[:, None]
    kept = inside[:, :, None] & inside[:, None, :]
    # at[i, c, r] is entry (r, c) of section i, entry (r mod N, c mod N) of
    # coefficient r div N - c div N, so at[i].T is a Fortran-ordered section
    at = coeffs[order + r // n - r[:, None] // n, :, r % n, (r % n)[:, None]]
    at = np.where(kept, at.transpose(2, 0, 1), np.eye(top))
    norm = np.abs(at).sum(axis=1, where=kept).max(axis=1)
    if not np.all(np.isfinite(norm)):
        raise SampleFailure("matrix section contains non-finite entries")
    getrf, = scipy.linalg.get_lapack_funcs(("getrf",), (at,))
    piv = np.array([getrf(section.T, overwrite_a=True)[1] for section in at])
    diag = np.diagonal(at, axis1=1, axis2=2)
    low = inside & (np.abs(diag) <= (sizes * _EPS * norm)[:, None])
    singular = np.flatnonzero(low.any(axis=1))
    if singular.size:
        raise SingularDeterminant(f"the section of member {singular[0]} of the family is "
                                  f"flagged singular by the LU pivot test")
    parity = np.count_nonzero(piv != r, axis=1) % 2
    return np.where(parity, -1.0, 1.0) * np.prod(diag, axis=1)


def folded_log_determinant(slab: np.ndarray, checkerboard: bool = False) -> LogDet:
    """det of the centrosymmetric 2n x 2n matrix A (E A E = A, E the index
    reversal) whose top n rows are the Fortran-ordered n x 2n ``slab``
    [B | C], consumed: with Q = [[I, I], [E, -E]] / sqrt 2, Q^T A Q =
    diag(B + CE, B - CE), so det A = det(B + CE) det(B - CE) (Cantoni &
    Butler, Linear Algebra Appl. 13, 1976).

    The slab is folded in place, ``_NORM_BLOCK`` columns at a time (no n x n
    temporary), B + CE into its left half and (B - CE) E into its right
    half, and each half is factored by :func:`_factored`, with det E =
    (-1)^floor(n/2).  Both halves' pivots are tested against A's own
    threshold, ``2n * eps * ||A||_inf``, and ||A||_inf is the slab's: the
    rows of A below it are its rows reversed.

    ``checkerboard`` says that A is real where row + column is even and
    imaginary where it is odd.  Column 2n-1-c of A has the parity opposite
    to c, so CE is imaginary where B is real and real where B is imaginary.
    With D = diag(i^{r mod 2}), a similarity that multiplies entry (r, c)
    by i^{(r mod 2) - (c mod 2)}, D (B -+ CE) D^{-1} = B' -+ i C' with B'
    and C' real: the halves are conjugate, det(B - CE) = conj det(B + CE)
    and det A = |det(B + CE)|^2.  Then only B + CE is formed, in the left
    half, and factored; the right half is left as it is.  D is unimodular
    and conjugation keeps moduli, so the pivots (LAPACK picks them by
    |Re| + |Im|) have the moduli of the other half's in exact arithmetic,
    and the one half keeps A's threshold.
    """
    n = slab.shape[0]
    floor = 2 * n * _EPS * _inf_norm(slab)
    b, ce = slab[:, :n], slab[:, n:][:, ::-1]
    if checkerboard:
        b += ce
        plus = _factored(b, floor)[2]
        return plus if plus.is_singular else LogDet(2.0 * plus.log_modulus, 0.0, False)
    for j in range(0, n, _NORM_BLOCK):
        b_j, ce_j = b[:, j:j + _NORM_BLOCK], ce[:, j:j + _NORM_BLOCK]
        b_j[...], ce_j[...] = b_j + ce_j, b_j - ce_j
    plus = _factored(slab[:, :n], floor)[2]
    minus = _factored(slab[:, n:], floor)[2]
    if plus.is_singular or minus.is_singular:
        return LogDet(-math.inf, 0.0, True)
    return _log_det(plus.log_modulus + minus.log_modulus,
                    plus.phase + minus.phase + n // 2 % 2 * math.pi)


def log_determinant(a: np.ndarray) -> LogDet:
    """Log-determinant via pivoted LU of a copy of ``a``; singularity is flagged."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("log_determinant requires a square matrix")
    if a.shape[0] == 0:
        return LogDet(0.0, 0.0, False)
    return pivoted_lu(np.array(a, dtype=complex, order="F"))[2]


def _inverse_samples(v: np.ndarray) -> np.ndarray:
    """The inverse of each N x N sample in a (..., N, N) array, N <= 2:
    the reciprocal, or the adjugate over the determinant."""
    if v.shape[-1] > 2:
        raise ValueError(f"pointwise inverses need block size 1 or 2, got {v.shape[-1]}")
    d = _pointwise_det(v)
    if np.any(np.abs(d) < 1e-14):
        raise SingularSymbol("det of symbol below 1e-14 on evaluation points")
    if v.shape[-1] == 1:
        return 1.0 / v
    # adjugate/det: inv[i][j] = (-1)^{i+j} m[1-j][1-i] / det
    return v[..., ::-1, ::-1].swapaxes(-1, -2) * [[1, -1], [-1, 1]] / d[..., None, None]


def _pointwise_det(v: np.ndarray) -> np.ndarray:
    """det of each N x N sample in a (..., N, N) array; closed form for N <= 2."""
    if v.shape[-1] == 1:
        return v[..., 0, 0]
    if v.shape[-1] == 2:
        return v[..., 0, 0] * v[..., 1, 1] - v[..., 0, 1] * v[..., 1, 0]
    return np.linalg.det(v)


def _log_dets(d: np.ndarray) -> np.ndarray:
    """[log |det|, arg det], shape (len(x), 2, m), of m dets on len(x)
    points, shape (len(x), m); a det below 1e-14 raises SingularSymbol."""
    modulus = np.abs(d)
    if np.any(modulus < 1e-14):
        raise SingularSymbol("det of symbol below 1e-14 on the sampling grid")
    return np.stack([np.log(modulus), np.angle(d)], axis=1)


def _logdet_mean(logs: np.ndarray, grid: int) -> np.ndarray:
    """[mean of log det, change of arg det around the circle], each of
    shape (m,), from :func:`_log_dets` of m dets on ``grid`` points, shape
    (grid, 2, m).  Each argument is unwrapped along the grid, symbol by
    symbol, which measures its winding and fixes its log branch: by
    ``np.unwrap``'s rule, a step of at least pi moves by the whole turns
    that bring it within pi, ``rint(step / 2 pi)`` of them, and each point
    by the turns of the steps before it."""
    # one contiguous row per symbol: its mean is summed as for a family of one
    log_modulus, arg = np.ascontiguousarray(logs.transpose(1, 2, 0))
    turns = np.rint((arg[:, 1:] - arg[:, :-1]) * (0.5 / np.pi))
    closing = np.rint((arg[:, 0] - arg[:, -1]) * (0.5 / np.pi))
    # the turns of step j move the grid - 1 - j points after it: their sum,
    # a whole number, is the grid's sum of the cumulative turns
    moved = (turns * np.arange(grid - 1, 0, -1)).sum(axis=1)
    # the closing point is the first one moved by the change, a whole number of turns
    change = -2.0 * np.pi * (turns.sum(axis=1) + closing)
    # the periodic trapezoid rule, with half the change for its closing point
    mean = log_modulus.mean(axis=1) + 1j * (
        arg.mean(axis=1) + (0.5 * change - 2.0 * np.pi * moved) / grid)
    return np.array([mean, change])


def geometric_mean(sym: MatrixSymbol) -> complex:
    """G(sym): exp of the circle average of log det sym (the family of one
    of :func:`geometric_means`)."""
    return complex(geometric_means(lambda x: sym.sample(x)[:, None])[0])


def geometric_means(sample: Evaluator) -> np.ndarray:
    """G of each symbol one evaluator samples together: ``sample(x)`` has
    shape (len(x), m, N, N), as for :func:`common_order_tables`.

    The grid doubles from ``MIN_GRID`` until one more doubling moves no
    symbol's mean of log det nor its change of arg det (see
    :func:`_doubled`); the trapezoid rule converges exponentially, at a rate
    set by how far the nearest singularity of log det lies from the circle,
    so the symbol whose singularity lies nearest sets the grid of all;
    each doubling samples only the new midpoints (:func:`_nested`).
    A converged change of at least pi raises NonzeroWinding.
    """
    logs = _nested(lambda x: _log_dets(_pointwise_det(sample(x))))
    (mean, change), _ = _doubled(
        lambda grid: _logdet_mean(logs(grid), grid), MIN_GRID, MAX_GRID, QUAD_TOL,
        QuadratureUnconverged, "the geometric mean", "MAX_GRID")
    wound = np.flatnonzero(np.abs(change) >= math.pi)
    if wound.size:
        raise NonzeroWinding(f"accumulated argument change {change[wound[0]].real:.3f} rad")
    return np.exp(mean)
