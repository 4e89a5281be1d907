"""Test-only oracles: helpers the tests check the package against, kept out
of the package because no library route uses them."""

from __future__ import annotations

import numpy as np
import scipy.linalg

from dimerdet import DimerParams, ParameterOutOfRange, SampleFailure, dimer
from dimerdet.continuation import _k_row, _phi_hat_table, _scalar_tables, e_plus_d
from dimerdet.dimer import _weight, k_plus_matrix
from dimerdet.errors import half_plane_t
from dimerdet.spectral import (
    TAIL_TOL,
    FourierTable,
    MatrixSymbol,
    ScalarSymbol,
    _checkerboard_real,
    _grid,
    _inverse_samples,
    _series,
    _stack_entries,
    hankel_section,
    log_determinant,
    pivoted_lu,
    toeplitz_section,
)


def as_1x1(sym: ScalarSymbol) -> MatrixSymbol:
    """A scalar symbol as the 1 x 1 matrix symbol the table, inverse and
    geometric-mean routines of ``spectral`` take."""
    return MatrixSymbol(lambda x: sym(x)[:, None, None])


def constant_symbol(value) -> ScalarSymbol:
    """The symbol x -> value."""
    c = complex(value)
    return ScalarSymbol(lambda x: np.full(np.shape(x), c, dtype=complex))


def from_entries(rows) -> MatrixSymbol:
    """The matrix symbol whose entry (i, j) is the scalar symbol ``rows[i][j]``."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("entries must be square")
    return MatrixSymbol(lambda x: _stack_entries([[e(x) for e in r] for r in rows], x.size))


def planted_symbol(alpha: complex, beta: complex, gamma: complex) -> tuple[MatrixSymbol, complex]:
    """phi = (1 - gamma/z) / ((1 - beta z)(1 - alpha/z)), z = e^{ix}, and its
    exact constant E(phi) = (1 - beta gamma) / (1 - alpha beta): log phi has
    coefficients beta^k/k at k > 0 and (alpha^k - gamma^k)/k at -k, and
    E = exp(sum_k k [log phi]_k [log phi]_{-k}).  Winding number zero for
    |alpha|, |beta|, |gamma| < 1; phi is slow for |beta| or |alpha| near 1,
    phi^{-1} for |gamma| near 1."""
    def phi(x):
        z = np.exp(1j * x)
        return (1.0 - gamma / z) / ((1.0 - beta * z) * (1.0 - alpha / z))
    return as_1x1(ScalarSymbol(phi)), (1.0 - beta * gamma) / (1.0 - alpha * beta)


def series_symbol(tab: FourierTable) -> MatrixSymbol:
    """The truncated Fourier series of a table, by the evaluator
    ``widom_banded_family`` samples its family by."""
    return MatrixSymbol(_series(tab.coeffs))


def horner_series(coeffs: np.ndarray):
    """``spectral._series`` by one Horner pass in z = e^{ix} over the whole
    stack, times e^{-iKx}: its reference."""
    order, block = coeffs.shape[0] // 2, coeffs.shape[1:]
    expand = (slice(None),) + (None,) * len(block)

    def eval_(x):
        z = np.exp(1j * x)[expand]
        acc = np.zeros((x.size,) + block, dtype=complex)
        for c in coeffs[::-1]:
            acc *= z
            acc += c
        return acc * np.exp(-1j * order * x)[expand]

    return eval_


def unwrap_logdet_mean(d: np.ndarray, grid: int) -> np.ndarray:
    """``spectral._logdet_mean`` with its arguments unwrapped by
    ``np.unwrap`` over the grid and its closing point: its reference."""
    d = np.ascontiguousarray(d.T)
    ang = np.unwrap(np.angle(np.concatenate([d, d[:, :1]], axis=1)))
    change = ang[:, -1] - ang[:, 0]
    mean = np.mean(np.log(np.abs(d)) + 1j * ang[:, :-1], axis=1) + 0.5j * change / grid
    return np.array([mean, change])


def section_determinants(coeffs: np.ndarray, sizes) -> list[complex]:
    """det T_m of each member of a coefficient stack (2K + 1, len(sizes), N, N),
    m = ``sizes[i]``, one ``log_determinant(toeplitz_section(...))`` at a
    time, det T_0 = 1: the reference of ``spectral.toeplitz_determinants``."""
    return [log_determinant(toeplitz_section(FourierTable(coeffs[:, i].copy()), int(m))).value
            if m else 1.0 for i, m in enumerate(sizes)]


def pointwise_inverse(sym: MatrixSymbol) -> MatrixSymbol:
    """The symbol x -> sym(x)^{-1}, via reciprocal (N=1) or 2x2 adjugate,
    as the table routes of ``szego`` invert their samples."""
    return MatrixSymbol(lambda x: _inverse_samples(sym.sample(x)))


def getrf_shapes(monkeypatch) -> list[tuple[tuple[int, int], np.dtype]]:
    """Record the shape and dtype of each matrix LAPACK ``getrf`` factors
    from now on: float64 for ``dgetrf``, complex128 for ``zgetrf``."""
    shapes = []
    real = scipy.linalg.get_lapack_funcs

    def counted(names, arrays=()):
        getrf, = real(names, arrays)

        def call(a, **kwargs):
            shapes.append((a.shape, a.dtype))
            return getrf(a, **kwargs)
        return (call,)

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", counted)
    return shapes


def complex_operator_det(tab: FourierTable, tab_inv: FourierTable, m: int) -> complex:
    """det(I - H(sym) H(symtilde^{-1})) on the order-m truncation, formed
    densely in complex arithmetic from the complex tables: the reference of
    ``szego._operator_det``'s float64 route."""
    h1, h2 = hankel_section(tab, m), hankel_section(tab_inv, m, reflected=True)
    return log_determinant(np.eye(h1.shape[0]) - h1 @ h2).value


def numpy_operator_det(tab: FourierTable, tab_inv: FourierTable, m: int) -> complex:
    """``szego._operator_det`` with its two column halves multiplied by
    numpy's ``@`` instead of scipy's ``?gemm``: its reference."""
    real = _checkerboard_real(tab), _checkerboard_real(tab_inv)
    if all(r is not None for r in real):
        tab, tab_inv = real
    h1, a = hankel_section(tab, m), hankel_section(tab_inv, m, reflected=True)
    for half in (slice(None, m), slice(m, None)):
        a[:, half] = h1 @ a[:, half]
    a *= -1.0
    a.flat[::a.shape[0] + 1] += 1.0
    return pivoted_lu(a)[2].value


def numpy_y_means(t: complex, x: np.ndarray, grid: int) -> np.ndarray:
    """``dimer._y_means`` with its 128-row blocks multiplied by numpy's
    ``@`` instead of scipy's ``?gemm``: its reference."""
    tt = t.real * t.real if t.imag == 0 else t * t
    y = 2.0 * np.pi * np.arange(grid // 2) / grid - np.pi
    cy, sy = np.cos(y), np.sin(y)
    weights = np.stack([np.ones_like(cy), cy * cy, cy * sy], axis=1)
    ey = np.stack([cy, sy], axis=1)
    x = np.asarray(x, dtype=float)
    sx, cx = np.sin(x)[:, None], np.cos(x)[:, None]
    out = np.empty((5, x.size), dtype=np.result_type(tt, float))
    for rows in (slice(lo, lo + 128) for lo in range(0, x.size, 128)):
        s = sx[rows] * cy + cx[rows] * sy
        inv = 1.0 / (sx[rows] ** 2 + cy ** 2 + tt * s ** 2)
        out[:3, rows] = (inv @ weights).T
        out[3:, rows] = ((inv * s) @ ey).T
    return out / (grid // 2)


def full_grid_kernel_sums(t: complex, x: np.ndarray, grid: int) -> np.ndarray:
    """[S+T, V] at angles x as full periodic trapezoid sums over ``grid``
    values of y, one sine per point, 128 angles at a time: the reference of
    ``dimer._kernel_sums`` on the y-means of ``dimer._y_means``, which sum
    half a y period and form sin(x+y) from per-axis arrays, and of the torus
    rows ``dimer._torus_hats`` unfolds from x in [0, pi]."""
    tt = t.real * t.real if t.imag == 0 else t * t
    y = 2.0 * np.pi * np.arange(grid) / grid - np.pi
    cy = np.cos(y)
    ey = np.stack([cy, np.sin(y)], axis=1)
    cey = cy[:, None] * ey
    x = np.asarray(x, dtype=float)
    out = np.empty((2, x.size), dtype=complex)
    for rows in (slice(lo, lo + 128) for lo in range(0, x.size, 128)):
        xc = x[rows, None]
        s = np.sin(xc + y)
        inv = 1.0 / (np.sin(xc) ** 2 + cy ** 2 + tt * s ** 2)
        out[1, rows] = inv.sum(axis=1)
        out[0, rows] = (inv @ cey + 1j * t * ((inv * s) @ ey)) @ [1, 1j]
    out[0] *= -np.exp(1j * x)
    out[1] *= np.sin(x)
    return out / (2.0 * grid)


def _full_grid_fft(t: complex, grid: int) -> np.ndarray:
    """The FFT of :func:`full_grid_kernel_sums` on every angle of the torus
    x grid, from x = -pi, over its size."""
    x = 2.0 * np.pi * np.arange(grid) / grid - np.pi
    return np.fft.fft(full_grid_kernel_sums(t, x, grid), axis=1) / grid


def full_grid_hats(t: complex, order: int, grid: int) -> np.ndarray:
    """[(S+T)^_k, V^_k] for k = -order..order from :func:`_full_grid_fft`,
    its phase (-1)^k taken off: the reference of ``dimer._torus_hats``."""
    ks = np.arange(-order, order + 1)
    return (-1.0) ** ks * _full_grid_fft(t, grid)[:, ks % grid]


def full_grid_coefficients(t: complex, ks: np.ndarray, grid: int) -> np.ndarray:
    """[R_k for k in ks] and [Q_k for k in ks] by the paper's relation to the
    kernels on the grid from x = -pi, R_k = (-1)^[k/2] (S+T)^_{1-k} and
    Q_k = -i (-1)^[k/2] V^_k with ^ the FFT of :func:`_full_grid_fft`: the
    reference of :func:`torus_coefficients`."""
    hat = _full_grid_fft(t, grid)
    sign = half_floor_sign(ks)
    return np.array([sign * hat[0, (1 - ks) % grid], -1j * sign * hat[1, ks % grid]])


def half_floor_sign(m: np.ndarray) -> np.ndarray:
    """(-1)**floor(m/2) for integer arrays, floor division semantics: the
    floor signs of the paper's entry formulas."""
    return 1 - 2 * ((m // 2) % 2)


def relabelled_r_q(e_tab: FourierTable, d_tab: FourierTable, ks: np.ndarray) -> np.ndarray:
    """[R_k for k in ks] and [Q_k for k in ks], the paper's torus double
    integrals, relabelled from an e+/d table pair:
    2 R_k = (-1)^[(k-1)/2] e_{1-k} and 2 Q_k = i (-1)^[(k-1)/2] d_k."""
    reach = int(np.max(np.abs(np.concatenate([ks, 1 - ks]))))
    if reach > e_tab.order or reach > d_tab.order:
        raise ValueError(f"R_k, Q_k for these k read order {reach}, past the tables'")
    e, d = e_tab.coeffs[:, 0, 0], d_tab.coeffs[:, 0, 0]
    sign = half_floor_sign(ks - 1)
    return 0.5 * np.array([sign * e[e_tab.order + 1 - ks], 1j * sign * d[d_tab.order + ks]])


def torus_coefficients(t: complex, ks: np.ndarray, grid: int) -> np.ndarray:
    """[R_k for k in ks] and [Q_k for k in ks] on one fixed torus grid:
    ``dimer._torus_hats`` as e+ and d tables, read by :func:`relabelled_r_q`."""
    order = int(np.max(np.abs(np.concatenate([ks, 1 - ks]))))
    st, v = 2.0 * dimer._torus_hats(t, order, grid)
    return relabelled_r_q(FourierTable(st[:, None, None]), FourierTable(v[:, None, None]), ks)


def literal_dimer_matrix(t: complex, n: int, e_tab: FourierTable,
                         d_tab: FourierTable) -> np.ndarray:
    """M_n = [[R, Q], [Q, R]] by the paper's entry formulas, with 1-based
    block indices j, k:
      R_jk = 2 (-1)^[(k-j)/2] R_{k-j+1} + theta(j-k) t^{j-k-1}
      Q_jk = 2i (-1)^[(j+k)/2] Q_{n+1-j-k}
    theta(m) = 1 for m > 0, and R_k, Q_k by :func:`relabelled_r_q` from the
    table pair: the reference ``dimer._m_n`` is pinned against."""
    ks = np.arange(1 - n, n + 1)
    r, q = relabelled_r_q(e_tab, d_tab, ks)  # r[i] is R_{i+1-n}
    j = np.arange(1, n + 1)[:, None]
    k = np.arange(1, n + 1)[None, :]
    rmat = 2.0 * half_floor_sign(k - j) * r[k - j + n] + k_plus_matrix(t, n)
    qmat = 2.0j * half_floor_sign(j + k) * q[2 * n - j - k]
    return np.block([[rmat, qmat], [qmat, rmat]])


def b_hat(t: complex, n: int,
          tables: tuple[FourierTable, FourierTable] | None = None) -> np.ndarray:
    """The continued section [[B, T_n(d)], [T_n(d)^T, B^T]], B = T_n(e+) + K+,
    on the sampled tables (``tables`` defaults to ``_scalar_tables``).  For
    odd d, ``dimer._m_n`` on the same tables is S_n b_hat S_n^T with
    S_n = diag(I, (-1)^[n/2] E), E the index reversal: its reference."""
    t = half_plane_t(t)
    e_tab, d_tab = tables or _scalar_tables(t, n)
    b = toeplitz_section(e_tab, n) + k_plus_matrix(t, n)
    d = toeplitz_section(d_tab, n)
    return np.block([[b, d], [d.T, b.T]])


def coeff(tab: FourierTable, k: int) -> np.ndarray:
    """The N x N coefficient k of a table (a zero block past its order)."""
    if abs(k) > tab.order:
        return np.zeros((tab.block_size, tab.block_size), dtype=complex)
    return tab.coeffs[k + tab.order]


def scalar_coeff(tab: FourierTable, k: int) -> complex:
    """Coefficient k of a scalar table (zero past its order)."""
    if tab.block_size != 1:
        raise ValueError("scalar_coeff requires a block size of 1")
    return complex(coeff(tab, k)[0, 0])


def tail_magnitude(tab: FourierTable) -> float:
    """Largest entry magnitude among the two outermost coefficient pairs."""
    return float(np.abs(tab.coeffs[[0, 1, -2, -1]]).max())


def fft_table(sym: MatrixSymbol, grid: int, order: int) -> FourierTable:
    """The table of ``sym`` to ``order`` from one plain FFT of its samples
    on the ``grid`` points the package samples at, without the tail check:
    the fixed-grid reference the resolved tables of ``fourier_coefficients``
    are checked against."""
    spec = np.fft.fft(sym.sample(_grid(grid)), axis=0)
    return FourierTable(spec[np.arange(-order, order + 1) % grid] / grid)


def edge_rule_grid(sample, order: int | None = None) -> int:
    """The grid the edge rule, the table loop's rule before the top-band
    check, sampled last for a family of tables (``sample`` as in
    ``common_order_tables``): the order K doubles from max(order, 32) on
    the smallest power-of-two grid of at least 4K + 4 points until the two
    outermost coefficient pairs, at +-K and +-(K - 1), of every table have
    been below ``TAIL_TOL`` on some rung; past K = max(order, 4096) it gave
    up there, on the grid of that cap."""
    order = max(order or 0, 32)
    cap = max(order, 4096)
    passed = False
    while True:
        grid = 1 << (4 * order + 3).bit_length()
        spec = np.fft.fft(sample(_grid(grid)), axis=0) / grid
        edge = spec[np.array([-order, 1 - order, order - 1, order]) % grid]
        passed = passed | (np.abs(edge).max(axis=(0, 2, 3)) <= TAIL_TOL)
        if np.all(passed) or order >= cap:
            return grid
        order = min(2 * order, cap)


def table_from_coeff_map(coeffs: dict[int, complex], order: int) -> FourierTable:
    """Build a scalar table from an explicit {index: value} map."""
    arr = np.zeros((2 * order + 1, 1, 1), dtype=complex)
    for k, v in coeffs.items():
        if abs(k) > order:
            raise ValueError(f"coefficient index {k} beyond order {order}")
        arr[k + order, 0, 0] = v
    return FourierTable(arr)


def toeplitz_index(m: int, reflected: bool = False) -> np.ndarray:
    """Block (j, k) of the Toeplitz section reads coefficient j - k (k - j
    when reflected)."""
    idx = np.subtract.outer(np.arange(m), np.arange(m))
    return -idx if reflected else idx


def hankel_index(m: int, shift: int = 0, reflected: bool = False) -> np.ndarray:
    """Block (j, k) of the Hankel section reads coefficient j + k + 1 + shift
    (negated when reflected)."""
    idx = np.add.outer(np.arange(m), np.arange(m)) + 1 + shift
    return -idx if reflected else idx


def assemble(tab: FourierTable, idx: np.ndarray) -> np.ndarray:
    """The section whose block (j, k) is coefficient ``idx[j, k]`` (zero past
    the table order), gathered 64 block rows at a time into its buffer: the
    reference the strided-window builders of ``spectral`` are checked against."""
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


def flip_conjugate(mat: np.ndarray, n: int) -> np.ndarray:
    """diag(I_n, W_n) . M . diag(I_n, W_n) with W_n the index reversal.

    Conjugation by the involution W_n turns the sum-index (Hankel-type)
    off-diagonal blocks of the dimer matrix into difference-index
    (Toeplitz-type) blocks without changing the determinant.
    """
    mat = np.asarray(mat)
    if mat.shape != (2 * n, 2 * n):
        raise ValueError(f"expected shape {(2 * n, 2 * n)}, got {mat.shape}")
    out = mat.copy()
    out[n:, :] = out[n:, :][::-1, :]
    out[:, n:] = out[:, n:][:, ::-1]
    return out


def e_plus_symbol(t: complex) -> ScalarSymbol:
    """The regularized diagonal entry e+ = c - 1/(e^{-ix} - t), the first
    value of ``continuation.e_plus_d``."""
    pair = e_plus_d(t)
    return ScalarSymbol(lambda x: pair(x)[..., 0])


def symbol_d(t: complex) -> ScalarSymbol:
    """The off-diagonal entry sin(x)/sqrt(t^2+sin^2 x+sin^4 x); Re(t) > 0:
    the second value of ``continuation.e_plus_d``, bit for bit."""
    t = complex(t)
    return ScalarSymbol(lambda x: np.sin(x) / _weight(t, np.sin(x) ** 2))


# the entry formulas of the dimer symbol, written out on their own: psi =
# [[p, q], [q(-x), p(-x)]], sigma = 1/(W g) and eta = 1/(g W^2), with
# g = 1 - 2t cos x + t^2 and W^2 = t^2 + sin^2 x + sin^4 x

def _g(t: complex, x: np.ndarray) -> np.ndarray:
    """g = |t - e^{ix}|^2 = (t - cos x)^2 + sin^2 x, a sum of two squares, so
    for real t it does not cancel near x = 0 as t nears 1: there t - cos x
    is exact (Sterbenz), and g is exact for the rounded cos x and sin x."""
    return (t - np.cos(x)) ** 2 + np.sin(x) ** 2


def _p(t: complex, x: np.ndarray) -> np.ndarray:
    return (t * np.cos(x) + np.sin(x) ** 2) * (t - np.exp(1j * x))


def _q(t: complex, x: np.ndarray) -> np.ndarray:
    return np.sin(x) * _g(t, x)


def _sigma(t: complex, x: np.ndarray) -> np.ndarray:
    return 1.0 / (np.sqrt(t * t + np.sin(x) ** 2 + np.sin(x) ** 4 + 0j) * _g(t, x))


def _eta(t: complex, x: np.ndarray) -> np.ndarray:
    return 1.0 / (_g(t, x) * (t * t + np.sin(x) ** 2 + np.sin(x) ** 4))


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


def phi_hat_symbol(t: complex) -> MatrixSymbol:
    """Theta+ * phi, written so every entry is regular on Re(t) > 0.

    Theta+ = diag(1 - t e^{ix}, 1 - t e^{-ix}) and
    (1 - t e^{ix}) / (e^{-ix} - t) = e^{ix} exactly, so the diagonal entries
    are (1 - t e^{+-ix}) e+(+-x) + e^{+-ix} with no near-pole cancellation.
    This sampled form is the reference for ``continuation._phi_hat_table``.
    """
    pair = e_plus_d(t)

    def eval_(x):
        z = np.exp(1j * x)
        zc = z.conj()
        (ep, d), ep_reflected = pair(x).T, pair(-x)[:, 0]  # d(-x) = -d(x)
        return _stack_entries([[(1.0 - t * z) * ep + z, (1.0 - t * z) * d],
                              [-(1.0 - t * zc) * d, (1.0 - t * zc) * ep_reflected + zc]],
                              x.size)

    return MatrixSymbol(eval_)


def theta_section_dense(t: complex, n: int, e_tab: FourierTable,
                        d_tab: FourierTable) -> np.ndarray:
    """The whole 2n x 2n section T_n(phi_hat) + P_n K P_n + W_n L W_n, with
    K in row 0 and W_n L W_n in row 2n-1: the dense reference for the top-n
    slab ``continuation.theta_section`` builds and the fold it is read by."""
    out = toeplitz_section(_phi_hat_table(t, e_tab, d_tab), n)
    k_row = _k_row(t, n, e_tab, d_tab)
    out[0] += k_row
    out[-1] += k_row[::-1]
    return out
