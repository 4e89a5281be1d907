"""Tests for symbol sampling, coefficient extraction, sections, and log-dets."""

import numpy as np
import pytest

from dimerdet import (
    DimerParams,
    FourierTable,
    MatrixSymbol,
    NonzeroWinding,
    SampleFailure,
    ScalarSymbol,
    SingularDeterminant,
    SingularSymbol,
    TailNotResolved,
    TruncationTooShort,
    e_plus_symbol,
    fourier_coefficients,
    geometric_mean,
    hankel_matrix,
    log_determinant,
    pointwise_inverse,
    series_symbol,
    spectral_roots,
    symbol_a_b,
    symbol_d,
    symbol_phi,
    toeplitz_matrix,
)
from dimerdet.spectral import MAX_ORDER, TAIL_TOL, grid_for_order, pivoted_lu


def harmonic(k):
    return ScalarSymbol(lambda x: np.exp(1j * k * x))


def test_fourier_single_harmonic():
    tab = fourier_coefficients(harmonic(1), 64, 8)
    for k in range(-8, 9):
        expected = 1.0 if k == 1 else 0.0
        assert abs(tab.scalar(k) - expected) < 1e-14


def test_fourier_constant_matrix():
    c = np.array([[1.5, -2j], [0.25, 3.0 + 1j]])
    sym = MatrixSymbol.from_entries(
        [[ScalarSymbol.constant(c[i, j]) for j in range(2)] for i in range(2)])
    tab = fourier_coefficients(sym, 64, 8)
    assert np.max(np.abs(tab.coeff(0) - c)) < 1e-14
    for k in range(1, 9):
        assert np.max(np.abs(tab.coeff(k))) < 1e-14
        assert np.max(np.abs(tab.coeff(-k))) < 1e-14


def test_fourier_d_is_odd_and_imaginary():
    # d is odd and real on the circle, so its coefficients are purely
    # imaginary and odd in k
    tab = fourier_coefficients(symbol_d(0.7), 4096, 64)
    assert abs(tab.scalar(0)) < 1e-14
    for k in range(1, 65):
        assert abs(tab.scalar(-k) + tab.scalar(k)) < 1e-13
        assert abs(tab.scalar(k).real) < 1e-13


def test_fourier_b_coefficient_closed_form():
    _, b = symbol_a_b(DimerParams(0.3))
    tab = fourier_coefficients(b, 4096, 128)
    roots = spectral_roots(0.3)
    x1, x2 = roots.xi1, roots.xi2
    b1 = -8j * x1 * x2 / ((1 + x1) * (1 + x2) * (1 - x1 * x2))
    assert abs(tab.scalar(2)) < 1e-13
    assert abs(tab.scalar(1) - b1) < 1e-12


def test_fourier_preconditions():
    with pytest.raises(ValueError):
        fourier_coefficients(harmonic(1), 60, 8)   # not a power of two
    with pytest.raises(ValueError):
        fourier_coefficients(harmonic(1), 32, 8)   # below 4K+4


def test_fourier_tail_not_resolved():
    slow = ScalarSymbol(lambda x: 1.0 / (1.0 - 0.99 * np.exp(1j * x)))
    with pytest.raises(TailNotResolved):
        fourier_coefficients(slow, 64, 8)


def test_fourier_sample_failure():
    bad = ScalarSymbol(lambda x: np.where(np.abs(x) < 0.1, np.nan, 1.0) + 0j)
    with pytest.raises(SampleFailure):
        fourier_coefficients(bad, 64, 8)


def test_dft_round_trip():
    params = DimerParams(0.5)
    tab = fourier_coefficients(symbol_phi(params))
    x = 2 * np.pi * np.arange(257) / 257 - np.pi
    direct = symbol_phi(params).sample(x)
    resampled = series_symbol(tab).sample(x)
    assert np.max(np.abs(direct - resampled)) < 10 * TAIL_TOL


def test_table_coefficients_are_read_only():
    # a table shared between readers cannot be changed by one of them
    tab = fourier_coefficients(harmonic(1), 64, 8)
    with pytest.raises(ValueError):
        tab.coeffs[tab.order] = 1.0
    with pytest.raises(ValueError):
        tab.coeff(1)[0, 0] = 2.0


def test_toeplitz_constant():
    tab = fourier_coefficients(ScalarSymbol.constant(5.0), 64, 8)
    assert np.max(np.abs(toeplitz_matrix(tab, 3) - 5.0 * np.eye(3))) < 1e-13


def test_toeplitz_shift():
    tab = fourier_coefficients(harmonic(1), 64, 8)
    expected = np.array([[0, 0], [1, 0]], dtype=complex)
    assert np.max(np.abs(toeplitz_matrix(tab, 2) - expected)) < 1e-13


def test_toeplitz_block_structure():
    tab = fourier_coefficients(symbol_phi(DimerParams(0.5)), 4096, 64)
    mat = toeplitz_matrix(tab, 5)
    blocks = mat.reshape(5, 2, 5, 2).transpose(0, 2, 1, 3)
    for j in range(4):
        for k in range(4):
            assert np.array_equal(blocks[j, k], blocks[j + 1, k + 1])


def test_toeplitz_truncation_too_short():
    tab = fourier_coefficients(harmonic(1), 64, 4)
    with pytest.raises(TruncationTooShort):
        toeplitz_matrix(tab, 6)


def test_hankel_examples():
    const = fourier_coefficients(ScalarSymbol.constant(3.0), 64, 8)
    assert np.max(np.abs(hankel_matrix(const, 3))) < 1e-13
    shift = fourier_coefficients(harmonic(1), 64, 8)
    assert np.max(np.abs(hankel_matrix(shift, 2)
                         - np.array([[1, 0], [0, 0]]))) < 1e-13
    cosine = fourier_coefficients(
        ScalarSymbol(lambda x: 2.0 * np.cos(x) + 0j), 64, 8)
    assert np.max(np.abs(hankel_matrix(cosine, 2)
                         - np.array([[1, 0], [0, 0]]))) < 1e-13
    with pytest.raises(TruncationTooShort):
        hankel_matrix(shift, 5)


def test_logdet_identity():
    ld = log_determinant(np.eye(5, dtype=complex))
    assert not ld.is_singular
    assert abs(ld.log_modulus) < 1e-14
    assert abs(ld.phase) < 1e-14


def test_logdet_diagonal():
    ld = log_determinant(np.diag([2.0, 3.0j]))
    assert abs(ld.log_modulus - np.log(6.0)) < 1e-14
    assert abs(ld.phase - np.pi / 2) < 1e-14
    assert abs(ld.value - 6.0j) < 1e-13


def test_logdet_unit_triangular_200():
    # oracle: a triangular determinant is the product of its diagonal
    rng = np.random.default_rng(7)
    n = 200
    a = np.eye(n, dtype=complex)
    strict = np.tril(rng.uniform(-0.25, 0.25, (n, n))
                     + 1j * rng.uniform(-0.25, 0.25, (n, n)), -1)
    a += strict
    ld = log_determinant(a)
    assert not ld.is_singular
    assert abs(ld.log_modulus) < 1e-9
    assert abs(ld.phase) < 1e-9


def test_logdet_multiplicativity():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.uniform(-1, 1, (10, 10)) + 1j * rng.uniform(-1, 1, (10, 10))
        b = rng.uniform(-1, 1, (10, 10)) + 1j * rng.uniform(-1, 1, (10, 10))
        la, lb, lab = log_determinant(a), log_determinant(b), log_determinant(a @ b)
        assert abs(lab.log_modulus - la.log_modulus - lb.log_modulus) < 1e-10
        phase_diff = (lab.phase - la.phase - lb.phase) % (2 * np.pi)
        assert min(phase_diff, 2 * np.pi - phase_diff) < 1e-10


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_logdet_singular_flag():
    a = np.ones((4, 4), dtype=complex)
    assert log_determinant(a).is_singular


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_logdet_singular_value_raises():
    # a flagged-singular determinant must not read as a plausible 0
    with pytest.raises(SingularDeterminant):
        log_determinant(np.ones((4, 4))).value


def test_logdet_rejects_non_finite_entries():
    a = np.eye(3, dtype=complex)
    a[1, 2] = np.nan
    with pytest.raises(SampleFailure):
        log_determinant(a)


def test_logdet_leaves_argument_intact():
    rng = np.random.default_rng(13)
    for a in (rng.standard_normal((6, 6)) + 0j,
              np.asfortranarray(rng.standard_normal((6, 6)) + 1j)):
        before = a.copy()
        log_determinant(a)
        assert np.array_equal(a, before)


def test_pivoted_lu_factors_fortran_buffer_in_place():
    rng = np.random.default_rng(17)
    a = np.asfortranarray(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    expected = np.linalg.det(a)
    lu, _, det = pivoted_lu(a)
    assert np.shares_memory(lu, a)
    assert abs(det.value - expected) <= 1e-12 * abs(expected)


def test_pointwise_inverse_identity():
    ident = MatrixSymbol.from_entries([
        [ScalarSymbol.constant(1), ScalarSymbol.constant(0)],
        [ScalarSymbol.constant(0), ScalarSymbol.constant(1)]])
    inv = pointwise_inverse(ident)
    x = np.linspace(-3, 3, 11)
    assert np.max(np.abs(inv.sample(x) - np.eye(2))) < 1e-14


def test_pointwise_inverse_geometric_series():
    t = 0.5
    sym = ScalarSymbol(lambda x: 1.0 - t * np.exp(1j * x))
    tab = fourier_coefficients(pointwise_inverse(sym), 256, 48)
    for k in range(0, 49):
        assert abs(tab.coeff(k)[0, 0] - t ** k) < 1e-13
    for k in range(1, 49):
        assert abs(tab.coeff(-k)[0, 0]) < 1e-13


def test_pointwise_inverse_of_phi():
    params = DimerParams(0.6)
    phi = symbol_phi(params)
    inv = pointwise_inverse(phi)
    x = 2 * np.pi * np.arange(64) / 64 - np.pi
    prod = np.einsum("kij,kjl->kil", phi.sample(x), inv.sample(x))
    assert np.max(np.abs(prod - np.eye(2))) < 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_pointwise_inverse_samples_its_argument_once(n):
    calls = []
    base = np.eye(n) * 2.0 + 0.5

    def eval_(x):
        calls.append(x.size)
        return np.broadcast_to(base, (x.size, n, n)) * np.exp(1j * x)[:, None, None]

    inv = pointwise_inverse(MatrixSymbol(eval_, n))
    x = np.linspace(-3, 3, 17)
    vals = inv.sample(x)
    assert calls == [17]
    assert np.max(np.abs(vals - np.linalg.inv(eval_(x)))) < 1e-14


@pytest.mark.parametrize("n", [1, 2])
def test_series_symbol_matches_direct_sum_off_grid(n):
    rng = np.random.default_rng(11)
    order = 24
    ks = np.arange(-order, order + 1)
    coeffs = (rng.normal(size=(ks.size, n, n)) + 1j * rng.normal(size=(ks.size, n, n))) \
        * 0.7 ** np.abs(ks)[:, None, None]
    x = rng.uniform(-np.pi, np.pi, 37)
    direct = np.einsum("xk,kij->xij", np.exp(1j * np.outer(x, ks)), coeffs)
    got = series_symbol(FourierTable(n, order, coeffs)).sample(x)
    assert got.shape == (37, n, n)
    assert np.max(np.abs(got - direct)) < 1e-13


def test_pointwise_inverse_singular():
    sym = ScalarSymbol(lambda x: np.sin(x) + 0j)
    inv = pointwise_inverse(sym)
    with pytest.raises(SingularSymbol):
        inv.sample(np.array([0.0, 1.0]))


def test_geometric_mean_constant():
    g = 2.5 - 0.3j
    assert abs(geometric_mean(ScalarSymbol.constant(g), 256) - g) < 1e-12


def test_geometric_mean_of_phi_is_one():
    assert abs(geometric_mean(symbol_phi(DimerParams(0.4))) - 1.0) < 1e-10


def test_geometric_mean_of_psi():
    from dimerdet import symbol_psi
    g = geometric_mean(symbol_psi(DimerParams(0.3)))
    roots = spectral_roots(0.3)
    assert abs(g - 1.0 / (16.0 * roots.xi1 * roots.xi2)) < 1e-10
    assert abs(g - 0.63065856233277651) < 1e-10


def test_geometric_mean_nonzero_winding():
    with pytest.raises(NonzeroWinding):
        geometric_mean(harmonic(1), 256)


def test_geometric_mean_singular_symbol():
    with pytest.raises(SingularSymbol):
        geometric_mean(ScalarSymbol(lambda x: np.sin(x) + 0j), 256)


def test_geometric_mean_multiplicative():
    f = ScalarSymbol(lambda x: np.exp(0.3 * np.cos(x)) + 0j)
    g = ScalarSymbol(lambda x: 2.0 + np.cos(x) + 0j)
    fg = ScalarSymbol(lambda x: (np.exp(0.3 * np.cos(x))) * (2.0 + np.cos(x)) + 0j)
    lhs = geometric_mean(fg, 1024)
    rhs = geometric_mean(f, 1024) * geometric_mean(g, 1024)
    assert abs(lhs - rhs) < 1e-10


def test_symbol_periodicity():
    params = DimerParams(0.7)
    phi = symbol_phi(params)
    x = np.linspace(-np.pi, np.pi, 17, endpoint=False)
    assert np.max(np.abs(phi.sample(x) - phi.sample(x + 2 * np.pi))) < 1e-12


def test_table_from_coeff_map():
    tab = FourierTable.from_coeff_map({1: 1.0, -1: 1.0}, 4)
    assert abs(tab.scalar(1) - 1.0) < 1e-15
    assert abs(tab.scalar(3)) == 0.0
    assert abs(tab.scalar(9)) == 0.0  # beyond order reads as zero


def geometric(r):
    """1 / (1 - r e^{ix}): coefficient r^k at k >= 0, zero below."""
    return ScalarSymbol(lambda x: 1.0 / (1.0 - r * np.exp(1j * x)))


@pytest.mark.parametrize("floor, order", [(None, 64), (2, 64), (40, 80), (100, 100)])
def test_doubling_rule_returns_first_certified_order(floor, order):
    # the tail check passes once 0.5^(K-1) <= 1e-13, i.e. from K = 45 on; the
    # rule doubles from max(floor, MIN_ORDER = 32) and stops at the first pass
    tab = fourier_coefficients(geometric(0.5), order=floor)
    assert tab.order == order
    assert abs(tab.scalar(40) - 0.5 ** 40) < 1e-15


@pytest.mark.parametrize("sym", [symbol_d(0.7), symbol_d(0.05 + 1j), e_plus_symbol(0.3),
                                 e_plus_symbol(2.0)])
def test_half_the_resolved_order_fails_the_tail_check(sym):
    tab = fourier_coefficients(sym, order=40)
    assert tab.order >= 40 and tab.tail_magnitude() <= 1e-13
    half = tab.order // 2
    if half >= 40:
        with pytest.raises(TailNotResolved):
            fourier_coefficients(sym, grid_for_order(half), half)


@pytest.mark.parametrize("t", [0.3, 0.6, 2.0, 0.8 + 0.3j])
@pytest.mark.parametrize("entry", [e_plus_symbol, symbol_d])
def test_resolved_table_equals_the_fixed_size_table(t, entry):
    resolved = fourier_coefficients(entry(t))
    fixed = fourier_coefficients(entry(t), 4096, 512)
    assert resolved.order <= 512
    padded = np.zeros_like(fixed.coeffs)
    padded[512 - resolved.order:513 + resolved.order] = resolved.coeffs
    assert np.max(np.abs(padded - fixed.coeffs)) <= 1e-13


def test_doubling_rule_names_its_cap():
    # coefficients 0.999^k need an order near 30000, past the cap
    with pytest.raises(TailNotResolved, match=f"order {MAX_ORDER}, .*MAX_ORDER = {MAX_ORDER}"):
        fourier_coefficients(geometric(0.999))
    # a floor above the cap is still honoured, once
    assert fourier_coefficients(harmonic(1), order=MAX_ORDER + 1).order == MAX_ORDER + 1


def test_grid_for_order_is_smallest_admissible_power_of_two():
    assert grid_for_order(512) == 4096
    assert grid_for_order(1023) == 4096
    assert grid_for_order(1024) == 8192
    for order in range(1, 300):
        grid = grid_for_order(order)
        assert grid & (grid - 1) == 0
        assert grid // 2 < 4 * order + 4 <= grid
