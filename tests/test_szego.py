"""Tests for operator-truncation constants and the identity toolkit."""

import numpy as np
import pytest
import scipy.linalg

from dimerdet import (
    DimerParams,
    NonzeroWinding,
    NotBanded,
    SingularDeterminant,
    TailNotResolved,
    TruncatedOperatorSingular,
    bocg_residual,
    e_phi,
    e_phi_reduction,
    exp_representation,
    fourier_coefficients,
    geometric_mean,
    lambda_value,
    log_determinant,
    psi_table,
    symbol_phi,
    symbol_psi,
    symbol_psi_inverse,
    szego_E_operator,
    toeplitz_section,
    widom_banded_E,
)
from dimerdet.cli import laurent_family
from dimerdet.closed_form import prefactor, spectral_roots
from dimerdet.spectral import (
    FourierTable,
    MatrixSymbol,
    ScalarSymbol,
    geometric_means,
    hankel_section,
    pivoted_lu,
    toeplitz_determinants,
)
from dimerdet.szego import (
    MAX_OP_ORDER,
    _bocg_truncated,
    _operator_det,
    alpha_log_tables,
    correction_factor,
    hankel_trace,
    widom_banded_family,
)
from oracles import (
    as_1x1,
    complex_operator_det,
    constant_symbol,
    from_entries,
    getrf_shapes,
    planted_symbol,
    pointwise_inverse,
    scalar_coeff,
    series_symbol,
    table_from_coeff_map,
)


def geometric_log_table(gammas, deltas, order=256):
    """[log psi]_k for psi = prod (1 - g z) * prod (1 - d/z), in closed form."""
    coeffs = {}
    for k in range(1, order + 1):
        coeffs[k] = -sum(g ** k for g in gammas) / k
        coeffs[-k] = -sum(d ** k for d in deltas) / k
    return table_from_coeff_map(coeffs, order)


def laurent_symbol(gammas, deltas):
    def eval_(x):
        z = np.exp(1j * x)
        out = np.ones_like(z)
        for g in gammas:
            out = out * (1.0 - g * z)
        for d in deltas:
            out = out * (1.0 - d / z)
        return out
    return as_1x1(ScalarSymbol(eval_))


#: (1 - (0.6+0.3i) z)(1 + 0.2i z)(1 - (0.5-0.4i)/z), with complex coefficients
COMPLEX_SYMBOL = laurent_symbol([0.6 + 0.3j, -0.2j], [0.5 - 0.4j])


# ---------------------------------------------------------------------------
# operator-truncation E
# ---------------------------------------------------------------------------

def test_e_operator_identity_symbol():
    ident = as_1x1(constant_symbol(1.0))
    assert abs(szego_E_operator(ident) - 1.0) < 1e-12


def test_e_operator_scalar_product_symbol():
    sym = laurent_symbol([0.5], [0.5])
    e_op = szego_E_operator(sym)
    # oracle: scalar series with [log psi]_k = -0.5^k/k on both sides
    e_series = correction_factor(geometric_log_table([0.5], [0.5]), 1)
    assert abs(e_op - 4.0 / 3.0) < 1e-9
    assert abs(e_series - 4.0 / 3.0) < 1e-12
    assert abs(e_op - e_series) < 1e-9


def test_e_operator_dimer_symbol():
    e_op = szego_E_operator(symbol_phi(DimerParams(0.6)))
    assert abs(e_op - 0.10960277122488374) < 1e-6


def test_e_operator_stable_under_doubling():
    for params in (DimerParams(0.5), DimerParams(0.3)):
        sym = symbol_phi(params)
        tabs = fourier_coefficients(sym), fourier_coefficients(pointwise_inverse(sym))
        assert abs(_operator_det(*tabs, 128) - _operator_det(*tabs, 256)) < 1e-10


def test_operator_truncations_factor_their_sections_in_place(monkeypatch):
    # the operator product in its float64 buffer at real t, in its complex
    # one for a complex symbol, and the two sections of the bocg truncation
    from dimerdet import szego
    seen = []

    def checked(a):
        lu = pivoted_lu(a)
        seen.append((a.flags.f_contiguous and np.shares_memory(lu[0], a), a.dtype))
        return lu

    monkeypatch.setattr(szego, "pivoted_lu", checked)
    for sym in (symbol_phi(DimerParams(0.5)), COMPLEX_SYMBOL):
        _operator_det(fourier_coefficients(sym), fourier_coefficients(pointwise_inverse(sym)), 64)
    _bocg_truncated(psi_table(DimerParams(0.3)), 2, 64)
    assert seen == [(True, np.float64)] + [(True, complex)] * 3


@pytest.mark.parametrize("t", [0.0573, 0.3, 0.6, 0.9327])
def test_e_operator_at_real_t_factors_one_float64_matrix(t, monkeypatch):
    # phi's tables and phi^{-1}'s are real after diag(1, i): the product and
    # its LU are float64, of the determinant the complex product has
    from dimerdet import szego
    calls = []
    real_det = szego._operator_det
    monkeypatch.setattr(szego, "_operator_det",
                        lambda *args: calls.append(args) or real_det(*args))
    shapes = getrf_shapes(monkeypatch)
    e_op = szego_E_operator(symbol_phi(DimerParams(t)))
    (tab, tab_inv, m), = calls
    assert shapes == [((2 * m, 2 * m), np.float64)]
    reference = complex_operator_det(tab, tab_inv, m)
    assert abs(e_op - reference) <= 1e-14 * abs(reference)


def test_operator_det_keeps_the_complex_product_for_a_stray_part(monkeypatch):
    # an imaginary part of 1e-12 max|c| planted in one real-after-diag(1, i)
    # entry of phi's table is above STRAY_TOL: the product stays complex
    sym = symbol_phi(DimerParams(0.5))
    tab, tab_inv = fourier_coefficients(sym), fourier_coefficients(pointwise_inverse(sym))
    coeffs = tab.coeffs.copy()
    coeffs[tab.order + 1, 0, 0] += 1e-12j * np.abs(coeffs).max()
    tab = FourierTable(coeffs)
    shapes = getrf_shapes(monkeypatch)
    value = _operator_det(tab, tab_inv, 64)
    assert shapes == [((128, 128), complex)]
    reference = complex_operator_det(tab, tab_inv, 64)
    assert abs(value - reference) <= 1e-14 * abs(reference)


def test_e_operator_of_a_complex_symbol_keeps_the_complex_route(monkeypatch):
    # its coefficients are not real: zgetrf, and the value bit for bit the
    # dense complex product's at the order the tail estimate picks (m = 2:
    # H(sym) of this Laurent polynomial holds two coefficients)
    from dimerdet import szego
    calls = []
    real_det = szego._operator_det
    monkeypatch.setattr(szego, "_operator_det",
                        lambda *args: calls.append(args) or real_det(*args))
    shapes = getrf_shapes(monkeypatch)
    e_op = szego_E_operator(COMPLEX_SYMBOL)
    (tab, tab_inv, m), = calls
    assert m == 2 and shapes == [((2, 2), complex)]
    assert e_op == complex_operator_det(tab, tab_inv, m)


def test_e_operator_samples_phi_once_per_grid_point():
    # one family run for phi and phi^{-1}, whose tables also give the winding
    # number: at t = 0.8 they resolve at order 254, on 512 points
    phi, angles = symbol_phi(DimerParams(0.8)), []
    counted = MatrixSymbol(lambda x: angles.append(x.size) or phi.sample(x))
    assert abs(szego_E_operator(counted) - szego_E_operator(phi)) == 0.0
    assert angles == [256, 256]


@pytest.mark.parametrize("t", [0.0786, 0.15, 0.6, 0.9327])
def test_e_operator_truncation_follows_the_tail(t):
    # the order is read off the tail curve: 260, 136, 31 and 30 at the
    # default tol, 346, 181, 42 and 39 at tol = 1e-13
    e_op = szego_E_operator(symbol_phi(DimerParams(t)))
    assert abs(e_op - e_phi(t)) <= 1e-10
    e_op = szego_E_operator(symbol_phi(DimerParams(t)), tol=1e-13)
    assert abs(e_op - e_phi(t)) <= 1e-13 * abs(e_phi(t))


@pytest.mark.parametrize("beta, alpha, gamma", [(0.995, 0.3, 0.6), (0.6, 0.3, 0.995)])
def test_e_operator_is_set_by_the_fast_side(beta, alpha, gamma):
    # one Hankel slow (phi's at beta = 0.995, phi^{-1}'s at gamma = 0.995),
    # the other fast: either one-sided term bounds the truncation error, so
    # the fast side sets the order
    sym, e_exact = planted_symbol(alpha, beta, gamma)
    assert abs(szego_E_operator(sym) - e_exact) <= 1e-10


def test_e_operator_refuses_a_3x3_symbol_as_pointwise_inverse_does():
    sym = MatrixSymbol(lambda x: np.broadcast_to(np.eye(3) + 0j, (x.size, 3, 3)))
    for route in (szego_E_operator, lambda s: fourier_coefficients(pointwise_inverse(s))):
        with pytest.raises(ValueError, match="block size 1 or 2, got 3"):
            route(sym)


@pytest.mark.parametrize("k", [-2, -1, 1, 2])
def test_e_operator_rejects_nonzero_winding(k):
    # det diag(e^{ikx}, 1) winds k times around the origin
    one, zero = constant_symbol(1.0), constant_symbol(0.0)
    sym = from_entries([[ScalarSymbol(lambda x: np.exp(1j * k * x)), zero], [zero, one]])
    with pytest.raises(NonzeroWinding, match=f"winds {k:.3f} times"):
        szego_E_operator(sym)


@pytest.mark.parametrize("t", [0.0229, 0.0361])
def test_e_operator_names_its_cap(t):
    # both Hankels slow at small t: m = 898 and 569 would resolve them
    with pytest.raises(TailNotResolved, match=f"MAX_OP_ORDER = {MAX_OP_ORDER}"):
        szego_E_operator(symbol_phi(DimerParams(t)))


# ---------------------------------------------------------------------------
# scalar series and traces
# ---------------------------------------------------------------------------

def test_scalar_series_zeroth_only():
    tab = table_from_coeff_map({0: 3.7}, 8)
    assert abs(correction_factor(tab, 1) - 1.0) < 1e-15


def test_scalar_series_one_sided():
    tab = geometric_log_table([0.5, 0.3], [], order=64)
    assert abs(correction_factor(tab, 1) - 1.0) < 1e-15


def test_scalar_series_tail_failure():
    coeffs = {k: 0.999 ** k / k for k in range(1, 65)}
    coeffs.update({-k: 0.999 ** k / k for k in range(1, 65)})
    tab = table_from_coeff_map(coeffs, 64)
    with pytest.raises(TailNotResolved):
        correction_factor(tab, 1)


def test_hankel_trace_one_sided_is_zero():
    tab = geometric_log_table([], [0.4], order=32)
    assert abs(hankel_trace(tab, tab)) < 1e-15


def test_hankel_trace_geometric_log():
    t = 0.5
    tab = geometric_log_table([t], [t], order=128)
    trace = hankel_trace(tab, tab)
    assert abs(trace - 0.28768207245178093) < 1e-12  # -log(1 - t^2)


def test_hankel_traces_match_closed_forms():
    # the two log-symbol traces behind the scalar-shift reduction
    params = DimerParams(0.3)
    tab1, tab2 = alpha_log_tables(params)
    r = spectral_roots(0.3)
    tr12 = hankel_trace(tab1, tab2)
    expected12 = -np.log((1 - 0.09 * r.xi1) * (1 - 0.09 * r.xi2))
    assert abs(tr12 - expected12) < 1e-9
    tr21 = hankel_trace(tab2, tab1)
    assert abs(tr21 - expected12) < 1e-9
    tr22 = hankel_trace(tab2, tab2)
    expected22 = -2 * np.log((1 - r.xi1 ** 2) * (1 - r.xi2 ** 2) * (1 - r.xi1 * r.xi2) ** 2)
    assert abs(tr22 - expected22) < 1e-9


def random_table(rng, order, decay=0.5):
    """A scalar table with random complex coefficients decaying like decay^|k|."""
    ks = np.abs(np.arange(-order, order + 1))
    vals = (rng.normal(size=ks.size) + 1j * rng.normal(size=ks.size)) * decay ** ks
    return FourierTable(vals.reshape(-1, 1, 1))


def cut(tab, order):
    """The table cut to its coefficients |k| <= order (whole if shorter)."""
    order = min(order, tab.order)
    return FourierTable(tab.coeffs[tab.order - order:tab.order + order + 1])


def test_sliced_sums_equal_per_k_loop():
    rng = np.random.default_rng(7)
    whole_a, whole_b = random_table(rng, 30), random_table(rng, 20)
    for order in (5, 25, 40):
        a, b = cut(whole_a, order), cut(whole_b, order)
        top = min(a.order, b.order)
        terms = np.array([k * scalar_coeff(a, k) * scalar_coeff(b, -k) for k in range(1, top + 1)])
        assert abs(hankel_trace(a, b, tol=1.0) - np.sum(terms)) \
            <= 1e-14 * np.sum(np.abs(terms))
        terms = np.array([k * scalar_coeff(a, k) * scalar_coeff(a, -k)
                          for k in range(1, a.order + 1)])
        expected = np.exp(np.sum(terms))
        assert abs(correction_factor(a, 1, tol=1.0) - expected) <= 1e-14 * abs(expected)


def test_correction_factor_trivial_cases():
    zero = table_from_coeff_map({}, 8)
    assert abs(correction_factor(zero, 2) - 1.0) < 1e-15
    const = table_from_coeff_map({0: 2.0 - 1j}, 8)
    assert abs(correction_factor(const, 5) - 1.0) < 1e-15


def test_correction_factors_reproduce_prefactor():
    params = DimerParams(0.3)
    tab1, tab2 = alpha_log_tables(params)
    a1 = FourierTable(-0.5 * tab1.coeffs)
    a2 = FourierTable(0.5 * (tab1.coeffs + tab2.coeffs))
    ratio = correction_factor(a1, 2) / correction_factor(a2, 2)
    expected = prefactor(0.3)
    assert abs(ratio - expected) <= 1e-8 * abs(expected)


# ---------------------------------------------------------------------------
# banded-symbol determinant formula
# ---------------------------------------------------------------------------

def test_widom_one_sided_scalar():
    tab = fourier_coefficients(laurent_symbol([0.5], []), order=8)
    assert abs(widom_banded_E(tab, 1) - 1.0) < 1e-12


def test_widom_band_zero_convention():
    tab = fourier_coefficients(laurent_symbol([], [0.5]), order=8)
    assert abs(widom_banded_E(tab, 0) - 1.0) < 1e-15


def test_widom_matches_series_simple():
    tab = fourier_coefficients(laurent_symbol([0.5], [0.5]), order=8)
    assert abs(widom_banded_E(tab, 1) - 4.0 / 3.0) < 1e-9


def test_widom_rejects_unbanded():
    sym = ScalarSymbol(lambda x: np.exp(0.5 * np.cos(x)) + 0j)
    tab = fourier_coefficients(as_1x1(sym), order=24)
    with pytest.raises(NotBanded):
        widom_banded_E(tab, 2)


def test_widom_dimer_psi_against_lambda():
    params = DimerParams(0.3)
    psi_tab = psi_table(params)
    e_psi = widom_banded_E(psi_tab, 3)
    g = geometric_mean(symbol_psi(params))
    lam = lambda_value(0.3)
    assert abs(e_psi - g ** 3 * lam ** 2) <= 1e-8 * abs(e_psi)


def test_widom_vs_series_randomized():
    rng = np.random.default_rng(101)
    for _ in range(20):
        n_up = int(rng.integers(1, 4))
        n_dn = int(rng.integers(0, 4))
        gammas = [rng.uniform(0.1, 0.6) * np.exp(2j * np.pi * rng.uniform())
                  for _ in range(n_up)]
        deltas = [rng.uniform(0.1, 0.6) * np.exp(2j * np.pi * rng.uniform())
                  for _ in range(n_dn)]
        tab = fourier_coefficients(laurent_symbol(gammas, deltas), order=16)
        e_w = widom_banded_E(tab, n_up)
        e_s = correction_factor(geometric_log_table(gammas, deltas), 1)
        assert abs(e_w - e_s) < 1e-9


def family_tables(coeffs):
    """Each member of a coefficient stack (2K + 1, m, N, N) as its own table."""
    return [FourierTable(coeffs[:, i]) for i in range(coeffs.shape[1])]


def test_geometric_means_of_a_family_are_its_single_means():
    syms = [series_symbol(tab) for tab in family_tables(laurent_family(5)[0])]
    family = geometric_means(lambda x: np.stack([sym.sample(x) for sym in syms], axis=1))
    assert family.shape == (20,)
    for g, sym in zip(family, syms):
        assert abs(g - geometric_mean(sym)) <= 1e-15


def test_widom_family_samples_its_symbols_once_per_grid_point(monkeypatch):
    # one evaluator for the 20 symbols: G on the grid 256 and the 256 new
    # midpoints of 512; the psi^{-1} tables read the samples on 256 again
    from dimerdet import spectral
    coeffs, bands, _ = laurent_family(1)
    singles = [widom_banded_E(tab, band) for tab, band in zip(family_tables(coeffs), bands)]
    shapes, gemm = [], spectral._gemm

    def counted(coeffs_t, basis_t):
        # one product per evaluation: the 20 symbols against the 7 e^{ikx}
        shapes.append((coeffs_t.shape, basis_t.shape))
        return gemm(coeffs_t, basis_t)

    monkeypatch.setattr(spectral, "_gemm", counted)
    family = widom_banded_family(coeffs, bands)
    assert shapes == [((20, 7), (7, 256))] * 2
    for e, single in zip(family, singles):
        assert abs(e - single) <= 1e-14 * abs(single)


def test_widom_family_names_a_winding_symbol():
    # z (1 - 0.3 z) winds once: its G raises, wherever it sits in the family
    coeffs, bands, _ = laurent_family(2, size=5)
    wound = np.zeros((7, 1, 1, 1), dtype=complex)
    wound[4:6, 0, 0, 0] = 1.0, -0.3  # k = 1, 2
    with pytest.raises(NonzeroWinding, match="accumulated argument change 6.283 rad"):
        widom_banded_family(np.concatenate([coeffs[:, :3], wound, coeffs[:, 3:]], axis=1),
                            np.insert(bands, 3, 2))


def test_widom_family_names_the_first_unbanded_symbol():
    # members 1 and 3 reach past their bands on both sides: the one-pass
    # check names member 1's band and the smaller of its two reaches
    stack = np.zeros((5, 4, 1, 1), dtype=complex)
    stack[2] = 1.0
    stack[[1, 3], 1, 0, 0] = 0.2, 0.3  # k = -1, 1 past band 0
    stack[[0, 4], 3, 0, 0] = 0.05, 0.4  # k = -2, 2 past band 1
    stack[3, 2, 0, 0] = 0.5  # k = 1 past band 0 on one side only: banded
    with pytest.raises(NotBanded, match=r"^coefficients beyond band 0 reach 2\.000e-01 on both"):
        widom_banded_family(stack, [1, 0, 0, 1])


@pytest.mark.parametrize("corner", [1.0, 1.0 + 4 * np.finfo(float).eps])
def test_a_singular_section_in_the_stack_raises(corner):
    # member 1's T_2 is [[1, c], [1, 1]]: exactly singular at c = 1, and at
    # c = 1 + 4 eps its second pivot, -8.9e-16, is below 2 eps ||T||_inf;
    # either way the stack raises, naming it, and returns no 0
    stack = np.zeros((3, 3, 1, 1), dtype=complex)
    stack[1] = 1.0
    stack[:, 1, 0, 0] = corner, 1.0, 1.0  # k = -1, 0, 1
    stack[[0, 2], 2, 0, 0] = 0.5
    assert np.allclose(toeplitz_determinants(stack[:, [0, 2]], [2, 2]), [1.0, 0.75])
    with pytest.raises(SingularDeterminant, match="member 1 of the family"):
        toeplitz_determinants(stack, [2, 2, 2])


# ---------------------------------------------------------------------------
# the one-step residual identity
# ---------------------------------------------------------------------------

def test_bocg_one_sided_residual_is_one():
    tab = fourier_coefficients(laurent_symbol([0.5], []), order=8)
    for n in (1, 2, 4):
        assert abs(bocg_residual(tab, n) - 1.0) < 1e-12


def test_bocg_identity_below_the_band():
    # n smaller than the band exercises a genuinely nontrivial residual
    params = DimerParams(0.4)
    psi_tab = psi_table(params)
    e_psi = widom_banded_E(psi_tab, 3)
    g = geometric_mean(symbol_psi(params))
    inv_tab = fourier_coefficients(symbol_psi_inverse(params), order=256)
    for n in (1, 2):
        res = bocg_residual(psi_tab, n)
        det_n = log_determinant(toeplitz_section(inv_tab, n)).value
        predicted = e_psi / g ** n * res
        assert abs(det_n - predicted) <= 1e-8 * abs(det_n)
    assert abs(bocg_residual(psi_tab, 1) - 1.0) > 0.1  # not trivially 1


def test_bocg_residual_tends_to_one():
    params = DimerParams(0.4)
    psi_tab = psi_table(params)
    assert abs(bocg_residual(psi_tab, 12) - 1.0) < 1e-8


@pytest.mark.parametrize("t", [0.05, 0.4, 0.9])
def test_bocg_residual_past_the_band_is_one_with_nothing_factored(monkeypatch, t):
    # psi's table stops at its band 3, so from n = 3 on both Hankel sections
    # are empty and no truncation of T(psi) is factored
    from dimerdet import szego
    shapes = []
    monkeypatch.setattr(szego, "pivoted_lu", lambda a: shapes.append(a.shape) or pivoted_lu(a))
    psi_tab = psi_table(DimerParams(t))
    assert psi_tab.order == 3
    for n in (3, 4, 12):
        assert bocg_residual(psi_tab, n) == 1.0
    assert shapes == []


def test_bocg_consistent_with_banded_formula_at_band():
    # at n equal to the band, E/G^n times the residual reduces to the
    # banded finite-determinant formula
    params = DimerParams(0.3)
    psi_tab = psi_table(params)
    e_psi = widom_banded_E(psi_tab, 3)
    g = geometric_mean(symbol_psi(params))
    res = bocg_residual(psi_tab, 3)
    inv_tab = fourier_coefficients(symbol_psi_inverse(params), order=256)
    det3 = log_determinant(toeplitz_section(inv_tab, 3)).value
    assert abs(e_psi / g ** 3 * res - det3) <= 1e-8 * abs(det3)


def bocg_dense(psi_tab, n, m):
    """det(I - H(z^{-n} psi) T(psitilde)^{-1} H(psitilde z^{-n}) T(psi)^{-1}), all m x m blocks."""
    t_psi = scipy.linalg.lu_factor(toeplitz_section(psi_tab, m))
    t_psit = scipy.linalg.lu_factor(toeplitz_section(psi_tab, m, reflected=True))
    h1 = hankel_section(psi_tab, m, shift=n)
    h2 = hankel_section(psi_tab, m, shift=n, reflected=True)
    inner = h1 @ scipy.linalg.lu_solve(t_psit, h2)
    prod = scipy.linalg.lu_solve(t_psi, inner.T, trans=1).T
    return log_determinant(np.eye(m * psi_tab.block_size) - prod).value


@pytest.mark.parametrize("t", [0.3, 0.7])
def test_bocg_residual_matches_dense_truncation(t):
    psi_tab = psi_table(DimerParams(t))
    for n in (0, 1, 2, 3, 5, 8, 12):
        dense = bocg_dense(psi_tab, n, 256)
        assert abs(_bocg_truncated(psi_tab, n, 256) - dense) <= 1e-12 * abs(dense)
        # the doubling stops at m = 64 here, where the truncation is already exact
        assert abs(bocg_residual(psi_tab, n) - dense) <= 1e-12 * abs(dense)


def test_bocg_residual_matches_dense_on_a_full_table():
    # every coefficient up to the order is nonzero; at n = 0 and 2 the support
    # order - n exceeds the truncation m = 8 and is clipped to it
    rng = np.random.default_rng(3)
    ks = np.abs(np.arange(-12, 13))
    coeffs = (rng.normal(size=(25, 2, 2)) + 1j * rng.normal(size=(25, 2, 2))) \
        * 0.8 ** ks[:, None, None]
    coeffs[12] += 8.0 * np.eye(2)
    tab = FourierTable(coeffs)
    for n in (0, 2, 6, 11, 12):
        dense = bocg_dense(tab, n, 8)
        assert abs(_bocg_truncated(tab, n, 8) - dense) <= 1e-12 * abs(dense)
    assert abs(bocg_dense(tab, 6, 8) - 1.0) > 1e-3  # not trivially 1


def test_bocg_singular_truncation():
    tab = table_from_coeff_map({1: 1.0}, 4)
    with pytest.raises(TruncatedOperatorSingular):
        _bocg_truncated(tab, 1, 8)
    with pytest.raises(TruncatedOperatorSingular):
        bocg_residual(tab, 1)


# ---------------------------------------------------------------------------
# exponential representation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [0.3, 0.7])
def test_exp_representation_reconstructs_product_form(t):
    # all four entries, the diagonal included
    rep = exp_representation(DimerParams(t))
    x = 2 * np.pi * np.arange(256) / 256 - np.pi
    rec = rep.reconstructed.sample(x)
    phi = symbol_phi(DimerParams(t)).sample(x)
    for i in range(2):
        for j in range(2):
            assert np.max(np.abs(rec[:, i, j] - phi[:, i, j])) < 1e-9


def test_exp_representation_q_is_trace_free():
    rep = exp_representation(DimerParams(0.6))
    x = np.linspace(-3.0, 3.0, 41)
    q = rep.q_part.sample(x)
    assert np.max(np.abs(q[:, 0, 0] + q[:, 1, 1])) < 1e-15


def test_exp_representation_q_squared():
    t = 0.7
    rep = exp_representation(DimerParams(t))
    x = np.array([1.0])
    q = rep.q_part.sample(x)[0]
    inner = (1 - 2 * t * np.cos(x[0]) + t * t) ** 2 + (t * np.cos(x[0]) + np.sin(x[0]) ** 2) ** 2
    delta_sq = (1j * np.sin(x[0])) ** 2 * inner
    assert np.max(np.abs(q @ q - delta_sq * np.eye(2))) < 1e-12


def test_exp_representation_b_finite_at_removable_points():
    rep = exp_representation(DimerParams(0.5))
    vals = rep.b(np.array([0.0, np.pi, 1e-8]))
    assert np.all(np.isfinite(vals))
    assert abs(vals[0] - vals[2]) < 1e-6


def test_exp_representation_needs_real_t():
    # the same check, and error type, as symbol_phi's: BranchFailure names
    # only a failed branch check at a real t in (0, 1)
    from dimerdet import ParameterOutOfRange
    for fn in (exp_representation, alpha_log_tables):
        for t in (0.5 + 0.1j, 1.0, 2.0):
            with pytest.raises(ParameterOutOfRange, match=f"{fn.__name__} requires real t in"):
                fn(DimerParams(t))


# ---------------------------------------------------------------------------
# the full reduction route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [0.4, 0.7])
def test_three_way_agreement_spot(t):
    e_op = szego_E_operator(symbol_phi(DimerParams(t)))
    e_red = e_phi_reduction(DimerParams(t))
    e_cf = e_phi(t)
    assert abs(e_op - e_cf) <= 1e-6 * abs(e_cf)
    assert abs(e_red - e_cf) <= 1e-6 * abs(e_cf)
    assert abs(e_op - e_red) <= 1e-6 * abs(e_cf)


def test_pointwise_inverse_det_product():
    params = DimerParams(0.6)
    phi = symbol_phi(params)
    inv = pointwise_inverse(phi)
    x = 2 * np.pi * np.arange(32) / 32
    d1 = np.linalg.det(phi.sample(x))
    d2 = np.linalg.det(inv.sample(x))
    assert np.max(np.abs(d1 * d2 - 1.0)) < 1e-12
