"""Tests for symbol sampling, coefficient extraction, sections, and log-dets."""

import numpy as np
import pytest

from dimerdet import (
    DimerdetError,
    DimerParams,
    NonzeroWinding,
    SampleFailure,
    SingularDeterminant,
    SingularSymbol,
    TailNotResolved,
    correlation_finite,
    fourier_coefficients,
    geometric_mean,
    log_determinant,
    symbol_phi,
    toeplitz_section,
)
from dimerdet import dimer
from dimerdet.closed_form import spectral_roots
from dimerdet.spectral import (
    MAX_GRID,
    FourierTable,
    MatrixSymbol,
    ScalarSymbol,
    TAIL_TOL,
    _inf_norm,
    common_order_tables,
    folded_log_determinant,
    hankel_section,
    pivoted_lu,
    table_grid,
)
from oracles import (
    as_1x1,
    coeff,
    constant_symbol,
    e_plus_symbol,
    edge_rule_grid,
    fft_table,
    from_entries,
    pointwise_inverse,
    scalar_coeff,
    series_symbol,
    symbol_a_b,
    symbol_d,
    table_from_coeff_map,
    tail_magnitude,
)


def harmonic(k):
    return as_1x1(ScalarSymbol(lambda x: np.exp(1j * k * x)))


def test_fourier_single_harmonic():
    tab = fourier_coefficients(harmonic(1), order=8)
    for k in range(-8, 9):
        expected = 1.0 if k == 1 else 0.0
        assert abs(scalar_coeff(tab, k) - expected) < 1e-14


def test_fourier_constant_matrix():
    c = np.array([[1.5, -2j], [0.25, 3.0 + 1j]])
    sym = from_entries([[constant_symbol(c[i, j]) for j in range(2)] for i in range(2)])
    tab = fourier_coefficients(sym, order=8)
    assert np.max(np.abs(coeff(tab, 0) - c)) < 1e-14
    for k in range(1, 9):
        assert np.max(np.abs(coeff(tab, k))) < 1e-14
        assert np.max(np.abs(coeff(tab, -k))) < 1e-14


def test_fourier_d_is_odd_and_imaginary():
    # d is odd and real on the circle, so its coefficients are purely
    # imaginary and odd in k
    tab = fourier_coefficients(as_1x1(symbol_d(0.7)), order=64)
    assert abs(scalar_coeff(tab, 0)) < 1e-14
    for k in range(1, 65):
        assert abs(scalar_coeff(tab, -k) + scalar_coeff(tab, k)) < 1e-13
        assert abs(scalar_coeff(tab, k).real) < 1e-13


def test_fourier_b_coefficient_closed_form():
    _, b = symbol_a_b(DimerParams(0.3))
    tab = fourier_coefficients(as_1x1(b), order=128)
    roots = spectral_roots(0.3)
    x1, x2 = roots.xi1, roots.xi2
    b1 = -8j * x1 * x2 / ((1 + x1) * (1 + x2) * (1 - x1 * x2))
    assert abs(scalar_coeff(tab, 2)) < 1e-13
    assert abs(scalar_coeff(tab, 1) - b1) < 1e-12


def test_fourier_tail_not_resolved():
    # coefficients 0.999^k fall below TAIL_TOL only near order 30000
    slow = ScalarSymbol(lambda x: 1.0 / (1.0 - 0.999 * np.exp(1j * x)))
    with pytest.raises(TailNotResolved):
        fourier_coefficients(as_1x1(slow))


def test_fourier_sample_failure():
    bad = ScalarSymbol(lambda x: np.where(np.abs(x) < 0.1, np.nan, 1.0) + 0j)
    with pytest.raises(SampleFailure):
        fourier_coefficients(as_1x1(bad))


def test_dft_round_trip():
    params = DimerParams(0.5)
    tab = fourier_coefficients(symbol_phi(params))
    x = 2 * np.pi * np.arange(257) / 257 - np.pi
    direct = symbol_phi(params).sample(x)
    resampled = series_symbol(tab).sample(x)
    assert np.max(np.abs(direct - resampled)) < 10 * TAIL_TOL


def test_table_coefficients_are_read_only():
    # a table shared between readers cannot be changed by one of them
    tab = fourier_coefficients(harmonic(1), order=8)
    with pytest.raises(ValueError):
        tab.coeffs[tab.order] = 1.0
    with pytest.raises(ValueError):
        coeff(tab, 1)[0, 0] = 2.0


def test_table_reads_its_order_and_block_size_off_its_coefficients():
    tab = FourierTable(np.zeros((7, 2, 2), dtype=complex))
    assert (tab.order, tab.block_size) == (3, 2)


@pytest.mark.parametrize("shape", [(0, 1, 1), (4, 1, 1), (8, 2, 2), (5, 2, 1), (5, 2)])
def test_table_rejects_an_even_length_or_non_square_blocks(shape):
    with pytest.raises(ValueError, match=r"\(2K \+ 1, N, N\)"):
        FourierTable(np.zeros(shape, dtype=complex))


def test_toeplitz_constant():
    tab = fourier_coefficients(as_1x1(constant_symbol(5.0)), order=8)
    assert np.max(np.abs(toeplitz_section(tab, 3) - 5.0 * np.eye(3))) < 1e-13


def test_toeplitz_shift():
    tab = fourier_coefficients(harmonic(1), order=8)
    expected = np.array([[0, 0], [1, 0]], dtype=complex)
    assert np.max(np.abs(toeplitz_section(tab, 2) - expected)) < 1e-13


def test_toeplitz_block_structure():
    tab = fourier_coefficients(symbol_phi(DimerParams(0.5)), order=64)
    mat = toeplitz_section(tab, 5)
    blocks = mat.reshape(5, 2, 5, 2).transpose(0, 2, 1, 3)
    for j in range(4):
        for k in range(4):
            assert np.array_equal(blocks[j, k], blocks[j + 1, k + 1])


def padded(tab, order):
    """The same table at a higher order, padded with explicit zero blocks."""
    coeffs = np.zeros((2 * order + 1,) + tab.coeffs.shape[1:], dtype=complex)
    coeffs[order - tab.order:order + tab.order + 1] = tab.coeffs
    return FourierTable(coeffs)


def test_toeplitz_truncation_too_short():
    # a section read past the table order reads zero blocks there
    tab = fft_table(harmonic(1), 64, 4)
    for reflected in (False, True):
        assert np.array_equal(toeplitz_section(tab, 6, reflected),
                              toeplitz_section(padded(tab, 5), 6, reflected))


def test_hankel_examples():
    const = fourier_coefficients(as_1x1(constant_symbol(3.0)), order=8)
    assert np.max(np.abs(hankel_section(const, 3))) < 1e-13
    shift = fft_table(harmonic(1), 64, 8)
    assert np.max(np.abs(hankel_section(shift, 2)
                         - np.array([[1, 0], [0, 0]]))) < 1e-13
    cosine = fourier_coefficients(
        as_1x1(ScalarSymbol(lambda x: 2.0 * np.cos(x) + 0j)), order=8)
    assert np.max(np.abs(hankel_section(cosine, 2)
                         - np.array([[1, 0], [0, 0]]))) < 1e-13
    assert np.array_equal(hankel_section(shift, 5), hankel_section(padded(shift, 9), 5))


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


def test_logdet_singular_flag():
    a = np.ones((4, 4), dtype=complex)
    assert log_determinant(a).is_singular


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


def _centrosymmetric(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """[[B, C], [E C E, E B E]], E the index reversal: the matrix whose top
    rows are [B | C] and whose other rows are those reversed."""
    return np.block([[b, c], [c[::-1, ::-1], b[::-1, ::-1]]])


@pytest.mark.parametrize("n", [1, 2, 5, 8, 13])
def test_folded_determinant_of_a_centrosymmetric_matrix(n):
    rng = np.random.default_rng(n)
    b, c = (rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n)))
    expected = np.linalg.det(_centrosymmetric(b, c))
    folded = folded_log_determinant(np.asfortranarray(np.hstack([b, c])))
    assert abs(folded.value - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("n", [1, 4, 7])
def test_folded_determinant_with_a_singular_half_raises(n):
    # B = CE makes B - CE = 0: the half is flagged, never read as a number
    c = np.random.default_rng(3).standard_normal((n, n)) + 1j
    slab = np.asfortranarray(np.hstack([c[:, ::-1], c]))
    assert abs(np.linalg.det(_centrosymmetric(c[:, ::-1], c))) <= 1e-12
    det = folded_log_determinant(slab)
    assert det.is_singular
    with pytest.raises(SingularDeterminant):
        det.value


def _checkerboard(rng, shape) -> np.ndarray:
    """A random complex array, real where row + column is even and
    imaginary where it is odd."""
    a = rng.standard_normal(shape) + 0j
    r, c = np.indices(shape[-2:])
    return np.where((r + c) % 2, 1j * a, a)


@pytest.mark.parametrize("n", [1, 2, 5, 8, 13])
def test_folded_determinant_of_a_checkerboard_matrix_takes_one_half(n):
    # D (B -+ CE) D^{-1} = B' -+ i C', so det A = |det(B + CE)|^2 from one LU
    slab = _checkerboard(np.random.default_rng(n), (n, 2 * n))
    expected = np.linalg.det(_centrosymmetric(slab[:, :n], slab[:, n:]))
    assert abs(expected.imag) <= 1e-12 * abs(expected)
    one = folded_log_determinant(slab.copy(order="F"), checkerboard=True)
    two = folded_log_determinant(slab.copy(order="F"))
    assert one.phase == 0.0
    assert abs(one.value - expected) <= 1e-12 * abs(expected)
    assert abs(one.value - two.value) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("n", [1, 4, 7])
def test_folded_checkerboard_determinant_with_a_zero_row_raises(n):
    slab = _checkerboard(np.random.default_rng(5), (n, 2 * n))
    slab[n // 2] = 0.0
    det = folded_log_determinant(np.asfortranarray(slab), checkerboard=True)
    assert det.is_singular
    with pytest.raises(SingularDeterminant):
        det.value


@pytest.mark.parametrize("cols", [1, 63, 64, 65, 1024])
def test_inf_norm_matches_numpy(cols):
    rng = np.random.default_rng(cols)
    real = rng.standard_normal((37, cols))
    for a in (real, real + 1j * rng.standard_normal((37, cols)), np.asfortranarray(real)):
        expected = np.linalg.norm(a, np.inf)
        assert abs(_inf_norm(a) - expected) <= 1e-15 * expected


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(np.inf, np.nan)])
def test_inf_norm_rejects_non_finite_entries(bad):
    a = np.ones((5, 130), dtype=complex)
    a[3, 100] = bad
    with pytest.raises(SampleFailure):
        _inf_norm(a)


def test_folded_determinant_rejects_non_finite_entries():
    slab = np.asfortranarray(np.ones((3, 6), dtype=complex))
    slab[2, 4] = np.inf
    with pytest.raises(SampleFailure):
        folded_log_determinant(slab)


def test_sections_are_fortran_ordered_and_factored_in_place():
    tab = fourier_coefficients(symbol_phi(DimerParams(0.5)), order=64)
    for a in (toeplitz_section(tab, 9), toeplitz_section(tab, 9, reflected=True),
              hankel_section(tab, 9, shift=2), hankel_section(tab, 9, reflected=True)):
        assert a.flags.f_contiguous
        assert np.shares_memory(pivoted_lu(a)[0], a)


def test_sections_reject_non_finite_coefficients_they_read():
    coeffs = np.zeros((9, 1, 1), dtype=complex)
    coeffs[4] = 1.0
    coeffs[8] = np.nan  # coefficient 4
    tab = FourierTable(coeffs)
    with pytest.raises(SampleFailure):
        toeplitz_section(tab, 5)  # reads coefficients -4..4
    with pytest.raises(SampleFailure):
        hankel_section(tab, 2, shift=1)  # reads 2..4
    assert np.array_equal(toeplitz_section(tab, 4), np.eye(4))  # reads -3..3


def test_pointwise_inverse_identity():
    ident = from_entries([
        [constant_symbol(1), constant_symbol(0)],
        [constant_symbol(0), constant_symbol(1)]])
    inv = pointwise_inverse(ident)
    x = np.linspace(-3, 3, 11)
    assert np.max(np.abs(inv.sample(x) - np.eye(2))) < 1e-14


def test_pointwise_inverse_geometric_series():
    t = 0.5
    sym = as_1x1(ScalarSymbol(lambda x: 1.0 - t * np.exp(1j * x)))
    tab = fourier_coefficients(pointwise_inverse(sym), order=48)
    for k in range(0, 49):
        assert abs(coeff(tab, k)[0, 0] - t ** k) < 1e-13
    for k in range(1, 49):
        assert abs(coeff(tab, -k)[0, 0]) < 1e-13


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

    inv = pointwise_inverse(MatrixSymbol(eval_))
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
    got = series_symbol(FourierTable(coeffs)).sample(x)
    assert got.shape == (37, n, n)
    assert np.max(np.abs(got - direct)) < 1e-13


def test_pointwise_inverse_singular():
    sym = as_1x1(ScalarSymbol(lambda x: np.sin(x) + 0j))
    inv = pointwise_inverse(sym)
    with pytest.raises(SingularSymbol):
        inv.sample(np.array([0.0, 1.0]))


def test_geometric_mean_constant():
    g = 2.5 - 0.3j
    assert abs(geometric_mean(as_1x1(constant_symbol(g))) - g) < 1e-12


def test_geometric_mean_of_phi_is_one():
    assert abs(geometric_mean(symbol_phi(DimerParams(0.4))) - 1.0) < 1e-10


def test_geometric_mean_of_psi():
    from dimerdet import symbol_psi
    g = geometric_mean(symbol_psi(DimerParams(0.3)))
    roots = spectral_roots(0.3)
    assert abs(g - 1.0 / (16.0 * roots.xi1 * roots.xi2)) < 1e-10
    assert abs(g - 0.63065856233277651) < 1e-10


@pytest.mark.parametrize("t", [0.003, 0.995])
def test_geometric_mean_of_psi_follows_the_symbol(t):
    # the trapezoid rule converges at a rate set by the distance of the
    # nearest singularity of log det psi from the circle, which shrinks at
    # both ends of (0, 1): a fixed 4096-point grid reads 4.5e-9 relative at
    # t = 0.003; the reference is the rule on 2^17 points
    from dimerdet import symbol_psi
    grid = 1 << 17
    v = symbol_psi(DimerParams(t)).sample(2 * np.pi * np.arange(grid) / grid - np.pi)
    det = v[:, 0, 0] * v[:, 1, 1] - v[:, 0, 1] * v[:, 1, 0]
    ref = np.exp(np.mean(np.log(np.abs(det)) + 1j * np.unwrap(np.angle(det))))
    assert abs(geometric_mean(symbol_psi(DimerParams(t))) - ref) <= 1e-13 * abs(ref)


def test_geometric_mean_nonzero_winding():
    with pytest.raises(NonzeroWinding):
        geometric_mean(harmonic(1))


def test_geometric_mean_singular_symbol():
    with pytest.raises(SingularSymbol):
        geometric_mean(as_1x1(ScalarSymbol(lambda x: np.sin(x) + 0j)))


def test_geometric_mean_multiplicative():
    f = as_1x1(ScalarSymbol(lambda x: np.exp(0.3 * np.cos(x)) + 0j))
    g = as_1x1(ScalarSymbol(lambda x: 2.0 + np.cos(x) + 0j))
    fg = as_1x1(ScalarSymbol(lambda x: (np.exp(0.3 * np.cos(x))) * (2.0 + np.cos(x)) + 0j))
    lhs = geometric_mean(fg)
    rhs = geometric_mean(f) * geometric_mean(g)
    assert abs(lhs - rhs) < 1e-10


def test_symbol_periodicity():
    params = DimerParams(0.7)
    phi = symbol_phi(params)
    x = np.linspace(-np.pi, np.pi, 17, endpoint=False)
    assert np.max(np.abs(phi.sample(x) - phi.sample(x + 2 * np.pi))) < 1e-12


def test_table_from_coeff_map():
    tab = table_from_coeff_map({1: 1.0, -1: 1.0}, 4)
    assert abs(scalar_coeff(tab, 1) - 1.0) < 1e-15
    assert abs(scalar_coeff(tab, 3)) == 0.0
    assert abs(scalar_coeff(tab, 9)) == 0.0  # beyond order reads as zero


def geometric(r):
    """1 / (1 - r e^{ix}): coefficient r^k at k >= 0, zero below."""
    return ScalarSymbol(lambda x: 1.0 / (1.0 - r * np.exp(1j * x)))


def counting(sym):
    """sym as a 1 x 1 matrix symbol, and the list of the number of angles
    each evaluation saw."""
    angles = []
    return as_1x1(ScalarSymbol(lambda x: angles.append(x.size) or sym(x))), angles


def test_table_doubling_samples_only_the_new_midpoints():
    # 0.9^k first passes the top-band check on grid 1024 (order 510): grids
    # 256 -> 512 -> 1024, 1024 angles in all where sampling every grid afresh
    # took 1792
    sym, angles = counting(geometric(0.9))
    assert fourier_coefficients(sym).order == 510
    assert angles == [256, 256, 512]


def test_geometric_mean_doubling_samples_only_the_new_midpoints():
    # log(1 - 0.96 e^{ix}) needs the grid 1024 for G to settle
    sym, angles = counting(geometric(0.96))
    assert abs(geometric_mean(sym) - 1.0) < 1e-12
    assert angles == [256, 256, 512]


@pytest.mark.parametrize("sym", [as_1x1(geometric(0.9)), as_1x1(symbol_d(0.05 + 1j)),
                                 symbol_phi(DimerParams(0.1))])
def test_resolved_table_is_one_fresh_sampling_of_its_grid(sym):
    tab = fourier_coefficients(sym)
    assert table_grid(tab.order) > table_grid(0)  # a doubling reused its samples
    fresh = fft_table(sym, table_grid(tab.order), tab.order)
    assert np.array_equal(tab.coeffs, fresh.coeffs)


def test_common_order_tables_own_read_only_coefficients():
    def both(x):
        return np.stack([geometric(0.5)(x), geometric(0.9)(x)], axis=1)[:, :, None, None]

    tabs = common_order_tables(both)
    # 0.5^k alone passes on grid 256; the family stops where 0.9^k passes,
    # on grid 1024
    assert [tab.order for tab in tabs] == [510, 510]
    for tab in tabs:
        assert tab.coeffs.flags.owndata and tab.coeffs.flags.c_contiguous
        assert not tab.coeffs.flags.writeable


@pytest.mark.parametrize("floor, order", [(None, 510), (2, 510), (300, 510), (600, 1022)])
def test_doubling_rule_returns_first_certified_order(floor, order):
    # the top-band check passes once 0.9^(G/2 - 1) <= 1e-13, i.e. from grid
    # G = 1024 on; the rule doubles from table_grid(floor) (at least 256) and
    # stops at the first pass, with the order G/2 - 2 that grid certifies
    tab = fourier_coefficients(as_1x1(geometric(0.9)), order=floor)
    assert tab.order == order
    assert abs(scalar_coeff(tab, 40) - 0.9 ** 40) < 1e-15


@pytest.mark.parametrize("sym", [symbol_d(0.7), symbol_d(0.05 + 1j), e_plus_symbol(0.3),
                                 e_plus_symbol(2.0)])
def test_half_the_resolved_order_fails_the_tail_check(sym):
    sym = as_1x1(sym)
    # the check reads the grid's top band, the coefficients at indices
    # G/2 - 1 and G/2 on either side: the outermost pairs of its order-G/2 table
    tab = fourier_coefficients(sym, order=40)
    grid = table_grid(tab.order)
    assert tab.order == grid // 2 - 2 >= 40
    assert tail_magnitude(fft_table(sym, grid, grid // 2)) <= TAIL_TOL
    if grid > table_grid(40):
        assert tail_magnitude(fft_table(sym, grid // 2, grid // 4)) > TAIL_TOL


@pytest.mark.parametrize("t", [0.3, 0.6, 2.0, 0.8 + 0.3j])
@pytest.mark.parametrize("entry", [e_plus_symbol, symbol_d])
def test_resolved_table_equals_the_fixed_size_table(t, entry):
    resolved = fourier_coefficients(as_1x1(entry(t)))
    fixed = fft_table(as_1x1(entry(t)), 4096, 512)
    assert resolved.order <= 512
    padded = np.zeros_like(fixed.coeffs)
    padded[512 - resolved.order:513 + resolved.order] = resolved.coeffs
    assert np.max(np.abs(padded - fixed.coeffs)) <= 1e-13


def test_doubling_rule_names_its_cap():
    # coefficients 0.999^k need an order near 30000, past the cap grid 32768
    cap = MAX_GRID
    with pytest.raises(TailNotResolved, match=rf"order {cap // 2 - 2} on grid {cap}, "
                                              rf".*MAX_GRID = {cap}"):
        fourier_coefficients(as_1x1(geometric(0.999)))
    # a floor above the cap's order is still honoured, once, on the next grid
    assert fourier_coefficients(harmonic(1), order=cap // 2 - 1).order == cap - 2


@pytest.mark.parametrize("t", [0.003, 0.006, 0.02, 0.3, 0.6, 0.9, 0.99, 2.0, 0.8 + 0.3j,
                               0.05 + 1j])
def test_no_table_samples_a_finer_grid_than_the_edge_rule(t, monkeypatch):
    # every table family the P(n) route and (for real t in (0, 1)) every
    # verify identity resolves: the top-band check certifies on a grid no
    # finer than the edge rule sampled last
    import dimerdet.continuation
    import dimerdet.spectral
    import dimerdet.szego
    from dimerdet.cli import RunConfig, run_verify

    real, calls = common_order_tables, []

    def recording(sample, order=None):
        tabs = real(sample, order)
        calls.append((sample, order, table_grid(tabs[0].order)))
        return tabs

    for module in (dimerdet.spectral, dimerdet.continuation, dimerdet.szego):
        monkeypatch.setattr(module, "common_order_tables", recording)
    try:
        correlation_finite(DimerParams(t), 32)
    except DimerdetError:
        pass
    if t.imag == 0 and t < 1:
        run_verify(RunConfig(command="verify", t=complex(t), identity="all"))
    assert calls
    for sample, order, grid in calls:
        assert grid <= edge_rule_grid(sample, order)


def test_table_grid_is_smallest_power_of_two_whose_order_covers():
    assert table_grid(0) == table_grid(126) == 256  # the floor
    assert table_grid(127) == 512
    assert table_grid(2046) == 4096
    for order in range(1, 3000, 7):
        grid = table_grid(order)
        assert grid & (grid - 1) == 0
        assert grid // 2 - 2 >= order and (grid == 256 or grid // 4 - 2 < order)


def test_torus_start_grid_is_smallest_admissible_power_of_two(monkeypatch):
    # the torus tables to order K start their doubling on the smallest
    # power of two of at least 4K + 4 points
    class Started(Exception):
        pass

    def first_rung(values, size, *rest):
        raise Started(size)

    monkeypatch.setattr(dimer, "_doubled", first_rung)

    def start(k_max):
        with pytest.raises(Started) as info:
            dimer.torus_tables(0.3, k_max)
        return info.value.args[0]

    assert start(512) == 4096
    assert start(1023) == 4096
    assert start(1024) == 8192
    for order in range(1, 300):
        grid = start(order)
        assert grid & (grid - 1) == 0
        assert grid // 2 < 4 * order + 4 <= grid
