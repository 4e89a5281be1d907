"""Tests for the torus quadrature, the dimer matrix, and its symbol."""

import tracemalloc

import numpy as np
import pytest

from dimerdet import (
    DimerParams,
    InvariantViolation,
    ParameterOutOfRange,
    QuadratureUnconverged,
    correlation_finite,
    correlation_limit,
    dimer_matrix,
    fourier_coefficients,
    log_determinant,
    symbol_phi,
    symbol_psi,
    symbol_psi_inverse,
    toeplitz_section,
)
from dimerdet import dimer
from dimerdet.continuation import _scalar_tables, _section_dets
from dimerdet.dimer import (
    MAX_QUAD_GRID,
    _kernel_sums,
    _y_means,
    kernel_symbols,
    torus_tables,
)
from dimerdet.spectral import QUAD_TOL, _doubled
from dimerdet.szego import MAX_OP_ORDER, MIN_OP_ORDER
from oracles import (
    _eta,
    _p,
    _q,
    _sigma,
    coeff,
    e_plus_symbol,
    flip_conjugate,
    relabelled_r_q,
    symbol_d,
    torus_coefficients,
)


def st_closed(t):
    """S+T in closed form: half the regularized diagonal entry e+."""
    return lambda x: e_plus_symbol(t)(x) / 2


def v_closed(t):
    """V (global sign dropped) in closed form: half the entry d."""
    return lambda x: symbol_d(t)(x) / 2


def fft_coeffs(sym, m=256):
    x = 2 * np.pi * np.arange(m) / m
    return np.fft.fft(sym(x)) / m, m


def test_params_reject_nonpositive_real_part():
    with pytest.raises(ParameterOutOfRange):
        DimerParams(-0.3)
    with pytest.raises(ParameterOutOfRange):
        DimerParams(0.5j)


def test_integrand_denominator_nonzero_spot():
    # direct substitution at t=1, x=y=pi/2
    t, x, y = 1.0, np.pi / 2, np.pi / 2
    den = np.cos(x) ** 2 + np.cos(y) ** 2 + t ** 2 * np.cos(x + y) ** 2
    assert abs(den - 1.0) < 1e-15


def test_q_vanishes_for_even_k():
    rng = np.random.default_rng(3)
    for _ in range(5):
        t = complex(rng.uniform(0.1, 1.4), rng.uniform(-0.4, 0.4))
        for k in (-4, -2, 0, 2, 6):
            assert abs(torus_coefficients(t, np.array([k]), 128)[1, 0]) < 1e-14


def test_q_symmetry_in_k():
    q = relabelled_r_q(*torus_tables(0.8, 6), np.arange(-5, 6))[1]   # q[i] is Q_{i-5}
    for k in (1, 3, 5):
        assert abs(q[k + 5] - q[-k + 5]) < 1e-12


def test_q_parity_check_is_live(monkeypatch):
    # an even harmonic slipped into V must surface as a nonzero even-k Q:
    # the taint goes on the unfolded [S+T, V] samples _torus_hats FFTs
    real = dimer._kernel_sums

    def tainted(t, x, means):
        sums = real(t, x, means)
        sums[1] += 1e-10 * np.cos(2 * np.asarray(x))
        return sums

    monkeypatch.setattr(dimer, "_kernel_sums", tainted)
    with pytest.raises(InvariantViolation, match="should vanish for even k"):
        torus_tables(0.5, 3)


def test_torus_fold_sums_rows_x_and_pi_minus_x_apart(monkeypatch):
    # a taint even in x but odd about x = pi/2 breaks the y-mean of 1/den's
    # I(x) = I(pi - x) and no symmetry the fold uses; only a fold that took
    # the rows past pi/2 from the x pi-shift would hide it from the Q check
    real = dimer._y_means

    def tainted(t, x, grid):
        means = real(t, x, grid)
        means[0] *= 1.0 + 1e-10 * np.cos(x)
        return means

    monkeypatch.setattr(dimer, "_y_means", tainted)
    with pytest.raises(InvariantViolation, match="should vanish for even k"):
        torus_tables(0.5, 3)


def test_quadrature_grid_convergence():
    # fixed grids 256 and 512, as the R_k, Q_k of grid 128 were checked
    # against 256
    ks = np.arange(-8, 9)
    coarse, fine = torus_coefficients(0.45, ks, 256), torus_coefficients(0.45, ks, 512)
    assert np.max(np.abs(coarse[0] - fine[0])) < 1e-10  # R_k
    assert np.max(np.abs(coarse[1] - fine[1])) < 1e-10  # Q_k


def dense_kernel_sums(t, x, grid):
    """S+T and V at angles x as dense len(x) x grid trapezoid sums over y."""
    y = (2.0 * np.pi * np.arange(grid) / grid - np.pi)[None, :]
    xc = np.asarray(x, dtype=float)[:, None]
    den = (np.cos(xc - np.pi / 2) ** 2 + np.cos(y) ** 2
           + t * t * np.cos(xc + y - np.pi / 2) ** 2)
    s_num = t * np.cos(xc + y - np.pi / 2) * np.exp(1j * (xc + y - np.pi / 2))
    t_num = -np.cos(y) * np.exp(1j * (xc + y))
    weight = (2.0 * np.pi / grid) / (4.0 * np.pi)
    return (weight * np.sum((s_num + t_num) / den, axis=1),
            weight * np.sum(np.cos(xc - np.pi / 2) / den, axis=1))


@pytest.mark.parametrize("t", [0.7, 0.7 + 0j, 0.4 + 0.2j, 1.5])
def test_kernel_sums_match_dense_sums(t):
    # 300 angles, so the sums run over three chunks of rows
    x = np.linspace(-np.pi, np.pi, 300, endpoint=False) + 0.01
    sums = _kernel_sums(t, x, _y_means(t, x, 512))
    for got, dense in zip(sums, dense_kernel_sums(t, x, 512)):
        assert np.max(np.abs(got - dense)) <= 1e-14 * np.max(np.abs(dense))


@pytest.mark.parametrize("t", [0.45, 0.4 + 0.2j, 1.5])
@pytest.mark.parametrize("grid", [256, 512])
def test_coefficients_match_dense_double_sums(t, grid):
    # R_k, Q_k from one FFT of the kernels against the grid x grid sums of
    # the double integrals: even k weighs cos(kx+y) cos(y), odd k
    # t cos(kx+y) cos(x+y), and Q_k cos(kx) cos(x), all over 8 pi^2
    ks = np.arange(-12, 14)
    g = 2.0 * np.pi * np.arange(grid) / grid - np.pi
    x, y = g[:, None], g[None, :]
    inv = (2.0 * np.pi / grid) ** 2 / (8.0 * np.pi ** 2) / (
        np.cos(x) ** 2 + np.cos(y) ** 2 + t * t * np.cos(x + y) ** 2)
    dense = np.array([
        [np.sum(np.cos(k * x + y) * (np.cos(y) if k % 2 == 0 else t * np.cos(x + y)) * inv)
         for k in ks],
        [np.sum(np.cos(k * x) * np.cos(x) * inv) for k in ks]])
    assert np.max(np.abs(torus_coefficients(t, ks, grid) - dense)) < 1e-14


def test_doubled_grids_reach_twice_a_start_grid_above_the_cap():
    # sizes double up to max(cap, 2 * start), the last step clamped to it:
    # the torus grids, and bocg's truncations 32 -> 384
    def never_settles(grids):
        return lambda grid: grids.append(grid) or np.array([float(len(grids))])

    for start, cap, tried in [(256, MAX_QUAD_GRID, [256, 512, 1024, 2048, 4096]),
                              (2048, MAX_QUAD_GRID, [2048, 4096]),
                              (MAX_QUAD_GRID, MAX_QUAD_GRID, [MAX_QUAD_GRID, 2 * MAX_QUAD_GRID]),
                              (MIN_OP_ORDER, MAX_OP_ORDER, [32, 64, 128, 256, 384])]:
        grids = []
        with pytest.raises(QuadratureUnconverged, match=f"the cap CAP = {cap}"):
            _doubled(never_settles(grids), start, cap, QUAD_TOL, QuadratureUnconverged,
                     "stub", "CAP")
        assert grids == tried
    grids = []
    assert _doubled(lambda grid: grids.append(grid) or np.zeros(1), 4096, MAX_QUAD_GRID,
                    QUAD_TOL, QuadratureUnconverged, "stub", "CAP")[1] == 8192
    assert grids == [4096, 8192]


def test_dimer_matrix_memory_stays_small():
    # the torus sums run 128 angles at a time, so n = 240 (grid 2048) stays
    # well below the dense grid x grid arrays
    tracemalloc.start()
    try:
        dimer_matrix(DimerParams(0.3), 240)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6


def test_torus_grid_names_its_cap():
    # at Re t = 0.0016 the integrand's peak needs a grid near 32768
    with pytest.raises(QuadratureUnconverged, match=f"MAX_QUAD_GRID = {MAX_QUAD_GRID}"):
        dimer_matrix(DimerParams(0.0016), 8)


@pytest.mark.parametrize("t", [0.5, 0.7])
def test_sum_kernel_coefficients_match_r(t):
    # S_k + T_k = (-1)^[-k/2] R_{-k+1}: the sum-kernel closed form against
    # the 2-D quadrature
    coeffs, m = fft_coeffs(st_closed(t))
    r = relabelled_r_q(*torus_tables(t, 5), np.arange(-3, 6))[0]   # r[i] is R_{i-3}
    for k in range(-4, 5):
        sign = 1.0 if (((-k) // 2) % 2 == 0) else -1.0
        assert abs(coeffs[k % m] - sign * r[-k + 1 + 3]) < 1e-9


def test_antisymmetric_kernel_coefficients_match_q():
    # with the global sign dropped, V_k = i (-1)^{1+floor(k/2)} Q_k (odd k)
    coeffs, m = fft_coeffs(v_closed(0.5))
    q = relabelled_r_q(*torus_tables(0.5, 4), np.arange(-3, 4))[1]   # q[i] is Q_{i-3}
    for k in (-3, -1, 1, 3):
        sign = 1.0 if ((1 + (k // 2)) % 2 == 0) else -1.0
        assert abs(coeffs[k % m] - 1j * sign * q[k + 3]) < 1e-9


def test_kernel_quadrature_vs_closed_forms():
    st, v = st_closed(0.7), v_closed(0.7)
    x = 2 * np.pi * np.arange(32) / 32 - np.pi
    # fixed grid 256, the value the grid-128 check returned
    st_sum, v_sum = _kernel_sums(0.7, x, _y_means(0.7, x, 256))
    assert np.max(np.abs(st_sum - st(x))) < 1e-9
    assert np.max(np.abs(v_sum - v(x))) < 1e-9
    st_quad, v_quad = kernel_symbols(DimerParams(0.7), x)
    assert np.max(np.abs(st_quad - st(x))) < 1e-9
    assert np.max(np.abs(v_quad - v(x))) < 1e-9


def test_kernel_spot_values():
    st = st_closed(0.5)
    assert abs(st(np.array([0.0]))[0]) < 1e-12
    v = v_closed(0.3)
    assert abs(abs(v(np.array([np.pi / 2]))[0]) - 0.34585723193303733) < 1e-12


def test_dimer_matrix_n1_structure():
    params = DimerParams(0.4)
    m1 = dimer_matrix(params, 1)
    r1 = relabelled_r_q(*torus_tables(0.4, 2), np.array([1]))[0, 0]
    # Q index n+1-j-k = 0 at n=1, and Q_0 = 0, so M_1 is 2 R_1 times I_2
    assert np.max(np.abs(m1 - 2.0 * r1 * np.eye(2))) < 1e-13
    # and it matches the symbol side
    tab = fourier_coefficients(symbol_phi(DimerParams(0.4)))
    assert abs(np.linalg.det(m1) - log_determinant(toeplitz_section(tab, 1)).value) < 1e-10


@pytest.mark.parametrize("t", [0.3, 0.7])
@pytest.mark.parametrize("n", [2, 4, 8])
def test_dimer_toeplitz_equivalence_small(t, n):
    params = DimerParams(t)
    det_m = log_determinant(dimer_matrix(params, n)).value
    det_t = log_determinant(toeplitz_section(fourier_coefficients(symbol_phi(params)), n)).value
    assert abs(det_m - det_t) <= 1e-8 * abs(det_t)


@pytest.mark.parametrize("t", [2.0, 3 - 2j, 0.8 + 0.3j, 0.05 + 1j])
def test_theta_section_on_the_torus_tables_matches_the_sampled_pair(t):
    # the Theta step on torus coefficients: the regular section P(n) is
    # taken from, built from the torus e+/d pair, has the determinants of
    # the sampled pair's, where det M_n itself fails past |t| = 1 (at t = 2
    # from n = 32 on); worst 3.8e-14 at 0.05+1i, n = 64, and at most 2e-15
    # for |t| > 1
    n_list = [8, 32, 64]
    torus = _section_dets(t, n_list, *torus_tables(t, 65))
    sampled = _section_dets(t, n_list, *_scalar_tables(t, 64))
    for got, expected in zip(torus, sampled):
        assert abs(got - expected) <= 1e-13 * abs(expected)


def test_flip_conjugate_preserves_determinant():
    rng = np.random.default_rng(5)
    n = 3
    m = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
    flipped = flip_conjugate(m, n)
    assert abs(np.linalg.det(flipped) - np.linalg.det(m)) < 1e-12 * abs(np.linalg.det(m))


def test_flip_conjugate_is_involution():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((8, 8)) + 0j
    assert np.array_equal(flip_conjugate(flip_conjugate(m, 4), 4), m)


def test_flip_conjugate_dimension_check():
    with pytest.raises(ValueError):
        flip_conjugate(np.eye(6), 4)


def test_flip_conjugate_makes_off_diagonal_toeplitz():
    params = DimerParams(0.5)
    n = 4
    flipped = flip_conjugate(dimer_matrix(params, n), n)
    q_block = flipped[:n, n:]
    for j in range(n - 1):
        for k in range(n - 1):
            assert abs(q_block[j, k] - q_block[j + 1, k + 1]) < 1e-12
    q_block2 = flipped[n:, :n]
    for j in range(n - 1):
        for k in range(n - 1):
            assert abs(q_block2[j, k] - q_block2[j + 1, k + 1]) < 1e-12


def test_correlation_triangular_lattice_headline():
    params = DimerParams(1.0)
    assert abs(correlation_finite(params, 16) - 0.1494) < 0.05
    assert abs(correlation_finite(params, 32) - 0.1494) < 0.02


def test_correlation_sequence_contracts():
    params = DimerParams(0.5)
    vals = [correlation_finite(params, n) for n in (4, 8, 16, 32)]
    diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
    assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))


def test_correlation_approaches_limit():
    value = correlation_finite(DimerParams(0.3), 24)
    assert abs(value - correlation_limit(0.3)) < 5e-3
    assert abs(correlation_limit(0.3) - 0.15918115688259285) < 1e-12


def test_dimer_coefficients_bundle(monkeypatch):
    # the torus tables are the e+/d pair to the order asked, and their R_k
    # and Q_k are those of the last torus grid the doubling tried
    grids, real = [], dimer._torus_hats
    monkeypatch.setattr(dimer, "_torus_hats",
                        lambda t, order, grid: grids.append(grid) or real(t, order, grid))
    e_tab, d_tab = torus_tables(0.6, 4)
    grid = grids[-1]
    assert e_tab.order == d_tab.order == 4 and e_tab.block_size == d_tab.block_size == 1
    ks = np.arange(-3, 4)
    assert np.array_equal(relabelled_r_q(e_tab, d_tab, ks), torus_coefficients(0.6, ks, grid))


def test_symbol_phi_domain():
    with pytest.raises(ParameterOutOfRange):
        symbol_phi(DimerParams(1.0))
    with pytest.raises(ParameterOutOfRange):
        symbol_phi(DimerParams(0.5 + 0.2j))


def test_symbol_phi_spot_values():
    params = DimerParams(0.5)
    phi = symbol_phi(params)
    v = phi.sample(np.array([0.0]))[0]
    # det phi(0) = 1/(t^2 - 2t + 1) = 4 at t = 0.5, and d(1) = 0
    assert abs(np.linalg.det(v) - 4.0) < 1e-12
    assert abs(v[0, 1]) < 1e-14


@pytest.mark.parametrize("t", [0.2, 0.6, 0.93])
def test_array_symbols_match_entry_formulas(t):
    params = DimerParams(t)
    x = np.linspace(-np.pi, np.pi, 41)[:-1] + 0.01
    p, q, pt, qt = _p(t, x), _q(t, x), _p(t, -x), _q(t, -x)
    sigma, eta = _sigma(t, x), _eta(t, x)
    cases = [
        (symbol_phi(params), [[sigma * p, sigma * q], [sigma * qt, sigma * pt]]),
        (symbol_psi(params), [[p, q], [qt, pt]]),
        (symbol_psi_inverse(params), [[eta * pt, eta * qt], [eta * q, eta * p]]),
    ]
    for sym, rows in cases:
        expected = np.moveaxis(np.array(rows), -1, 0)
        err = np.abs(sym.sample(x) - expected).max(axis=(1, 2))
        assert np.all(err <= 1e-14 * np.max(np.abs(expected)))


def test_fourier_d_t07_matches_example():
    # d is an odd real function: coefficient at 0 vanishes, c_{-k} = -c_k
    params = DimerParams(0.7)
    tab = fourier_coefficients(symbol_phi(params), order=128)
    assert np.max(np.abs(coeff(tab, 0)[0, 1])) < 1e-14
    for k in (1, 2, 3):
        assert abs(coeff(tab, -k)[0, 1] + coeff(tab, k)[0, 1]) < 1e-13
