"""Tests for operator-truncation constants and the identity toolkit."""

import numpy as np
import pytest
import scipy.linalg

from dimerdet import (
    DimerParams,
    FourierTable,
    NotBanded,
    ScalarSymbol,
    TailNotResolved,
    TruncatedOperatorSingular,
    alpha_log_tables,
    bocg_residual,
    combine_tables,
    correction_factor,
    e_phi,
    e_phi_reduction,
    exp_representation,
    fourier_coefficients,
    geometric_mean,
    hankel_section,
    hankel_trace,
    lambda_value,
    log_determinant,
    pointwise_inverse,
    prefactor,
    spectral_roots,
    symbol_phi,
    symbol_phi_product,
    symbol_psi,
    symbol_psi_inverse,
    szego_E_operator,
    toeplitz_matrix,
    toeplitz_section,
    widom_banded_E,
)
from dimerdet.szego import MAX_OP_ORDER, _bocg_truncated, _operator_det


def geometric_log_table(gammas, deltas, order=256):
    """[log psi]_k for psi = prod (1 - g z) * prod (1 - d/z), in closed form."""
    coeffs = {}
    for k in range(1, order + 1):
        coeffs[k] = -sum(g ** k for g in gammas) / k
        coeffs[-k] = -sum(d ** k for d in deltas) / k
    return FourierTable.from_coeff_map(coeffs, order)


def laurent_symbol(gammas, deltas):
    def eval_(x):
        z = np.exp(1j * x)
        out = np.ones_like(z)
        for g in gammas:
            out = out * (1.0 - g * z)
        for d in deltas:
            out = out * (1.0 - d / z)
        return out
    return ScalarSymbol(eval_)


# ---------------------------------------------------------------------------
# operator-truncation E
# ---------------------------------------------------------------------------

def test_e_operator_identity_symbol():
    ident = ScalarSymbol.constant(1.0)
    assert abs(szego_E_operator(ident) - 1.0) < 1e-12


def test_e_operator_scalar_product_symbol():
    sym = laurent_symbol([0.5], [0.5])
    e_op = szego_E_operator(sym)
    # oracle: scalar series with [log psi]_k = -0.5^k/k on both sides
    e_series = correction_factor(geometric_log_table([0.5], [0.5]), 1, 256)
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


@pytest.mark.parametrize("t", [0.0786, 0.15, 0.6, 0.9327])
def test_e_operator_truncation_follows_the_tail(t):
    # the order is read off the tail curve: 269 and 362 at the two ends,
    # where the fixed order 256 missed the tolerance
    e_op = szego_E_operator(symbol_phi(DimerParams(t)))
    assert abs(e_op - e_phi(t)) <= 1e-13 * abs(e_phi(t))


@pytest.mark.parametrize("t", [0.0361, 0.9885])
def test_e_operator_names_its_cap(t):
    with pytest.raises(TailNotResolved, match=f"MAX_OP_ORDER = {MAX_OP_ORDER}"):
        szego_E_operator(symbol_phi(DimerParams(t)))


# ---------------------------------------------------------------------------
# scalar series and traces
# ---------------------------------------------------------------------------

def test_scalar_series_zeroth_only():
    tab = FourierTable.from_coeff_map({0: 3.7}, 8)
    assert abs(correction_factor(tab, 1, 8) - 1.0) < 1e-15


def test_scalar_series_one_sided():
    tab = geometric_log_table([0.5, 0.3], [], order=64)
    assert abs(correction_factor(tab, 1, 64) - 1.0) < 1e-15


def test_scalar_series_tail_failure():
    coeffs = {k: 0.999 ** k / k for k in range(1, 65)}
    coeffs.update({-k: 0.999 ** k / k for k in range(1, 65)})
    tab = FourierTable.from_coeff_map(coeffs, 64)
    with pytest.raises(TailNotResolved):
        correction_factor(tab, 1, 64)


def test_hankel_trace_one_sided_is_zero():
    tab = geometric_log_table([], [0.4], order=32)
    assert abs(hankel_trace(tab, tab, 32)) < 1e-15


def test_hankel_trace_geometric_log():
    t = 0.5
    tab = geometric_log_table([t], [t], order=128)
    trace = hankel_trace(tab, tab, 128)
    assert abs(trace - 0.28768207245178093) < 1e-12  # -log(1 - t^2)


def test_hankel_traces_match_closed_forms():
    # the two log-symbol traces behind the scalar-shift reduction
    params = DimerParams(0.3)
    tab1, tab2 = alpha_log_tables(params)
    r = spectral_roots(0.3)
    tr12 = hankel_trace(tab1, tab2, 2048)
    expected12 = -np.log((1 - 0.09 * r.xi1) * (1 - 0.09 * r.xi2))
    assert abs(tr12 - expected12) < 1e-9
    tr21 = hankel_trace(tab2, tab1, 2048)
    assert abs(tr21 - expected12) < 1e-9
    tr22 = hankel_trace(tab2, tab2, 2048)
    expected22 = -2 * np.log((1 - r.xi1 ** 2) * (1 - r.xi2 ** 2) * (1 - r.xi1 * r.xi2) ** 2)
    assert abs(tr22 - expected22) < 1e-9


def random_table(rng, order, decay=0.5):
    """A scalar table with random complex coefficients decaying like decay^|k|."""
    ks = np.abs(np.arange(-order, order + 1))
    vals = (rng.normal(size=ks.size) + 1j * rng.normal(size=ks.size)) * decay ** ks
    return FourierTable(1, order, vals.reshape(-1, 1, 1))


def test_sliced_sums_equal_per_k_loop():
    rng = np.random.default_rng(7)
    a, b = random_table(rng, 30), random_table(rng, 20)
    for order in (5, 25, 40):
        top = min(order, a.order, b.order)
        terms = np.array([k * a.scalar(k) * b.scalar(-k) for k in range(1, top + 1)])
        assert abs(hankel_trace(a, b, order, tol=1.0) - np.sum(terms)) \
            <= 1e-14 * np.sum(np.abs(terms))
        top = min(order, a.order)
        terms = np.array([k * a.scalar(k) * a.scalar(-k) for k in range(1, top + 1)])
        expected = np.exp(np.sum(terms))
        assert abs(correction_factor(a, 1, order, tol=1.0) - expected) <= 1e-14 * abs(expected)


def test_correction_factor_trivial_cases():
    zero = FourierTable.from_coeff_map({}, 8)
    assert abs(correction_factor(zero, 2, 8) - 1.0) < 1e-15
    const = FourierTable.from_coeff_map({0: 2.0 - 1j}, 8)
    assert abs(correction_factor(const, 5, 8) - 1.0) < 1e-15


def test_correction_factors_reproduce_prefactor():
    params = DimerParams(0.3)
    tab1, tab2 = alpha_log_tables(params)
    a1 = combine_tables([tab1], [-0.5])
    a2 = combine_tables([tab1, tab2], [0.5, 0.5])
    ratio = correction_factor(a1, 2, 2048) / correction_factor(a2, 2, 2048)
    expected = prefactor(0.3)
    assert abs(ratio - expected) <= 1e-8 * abs(expected)


# ---------------------------------------------------------------------------
# banded-symbol determinant formula
# ---------------------------------------------------------------------------

def test_widom_one_sided_scalar():
    tab = fourier_coefficients(laurent_symbol([0.5], []), 64, 8)
    assert abs(widom_banded_E(tab, 1) - 1.0) < 1e-12


def test_widom_band_zero_convention():
    tab = fourier_coefficients(laurent_symbol([], [0.5]), 64, 8)
    assert abs(widom_banded_E(tab, 0) - 1.0) < 1e-15


def test_widom_matches_series_simple():
    tab = fourier_coefficients(laurent_symbol([0.5], [0.5]), 64, 8)
    assert abs(widom_banded_E(tab, 1) - 4.0 / 3.0) < 1e-9


def test_widom_rejects_unbanded():
    sym = ScalarSymbol(lambda x: np.exp(0.5 * np.cos(x)) + 0j)
    tab = fourier_coefficients(sym, 256, 24)
    with pytest.raises(NotBanded):
        widom_banded_E(tab, 2)


def test_widom_dimer_psi_against_lambda():
    params = DimerParams(0.3)
    psi_tab = fourier_coefficients(symbol_psi(params), 64, 8)
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
        tab = fourier_coefficients(laurent_symbol(gammas, deltas), 128, 16)
        e_w = widom_banded_E(tab, n_up, grid_size=1024)
        e_s = correction_factor(geometric_log_table(gammas, deltas), 1, 256)
        assert abs(e_w - e_s) < 1e-9


# ---------------------------------------------------------------------------
# the one-step residual identity
# ---------------------------------------------------------------------------

def test_bocg_one_sided_residual_is_one():
    tab = fourier_coefficients(laurent_symbol([0.5], []), 64, 8)
    for n in (1, 2, 4):
        assert abs(bocg_residual(tab, n) - 1.0) < 1e-12


def test_bocg_identity_below_the_band():
    # n smaller than the band exercises a genuinely nontrivial residual
    params = DimerParams(0.4)
    psi_tab = fourier_coefficients(symbol_psi(params), 64, 8)
    e_psi = widom_banded_E(psi_tab, 3)
    g = geometric_mean(symbol_psi(params))
    inv_tab = fourier_coefficients(symbol_psi_inverse(params), 4096, 256)
    for n in (1, 2):
        res = bocg_residual(psi_tab, n)
        det_n = log_determinant(toeplitz_matrix(inv_tab, n)).value
        predicted = e_psi / g ** n * res
        assert abs(det_n - predicted) <= 1e-8 * abs(det_n)
    assert abs(bocg_residual(psi_tab, 1) - 1.0) > 0.1  # not trivially 1


def test_bocg_residual_tends_to_one():
    params = DimerParams(0.4)
    psi_tab = fourier_coefficients(symbol_psi(params), 64, 8)
    assert abs(bocg_residual(psi_tab, 12) - 1.0) < 1e-8


def test_bocg_consistent_with_banded_formula_at_band():
    # at n equal to the band, E/G^n times the residual reduces to the
    # banded finite-determinant formula
    params = DimerParams(0.3)
    psi_tab = fourier_coefficients(symbol_psi(params), 64, 8)
    e_psi = widom_banded_E(psi_tab, 3)
    g = geometric_mean(symbol_psi(params))
    res = bocg_residual(psi_tab, 3)
    inv_tab = fourier_coefficients(symbol_psi_inverse(params), 4096, 256)
    det3 = log_determinant(toeplitz_matrix(inv_tab, 3)).value
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
    psi_tab = fourier_coefficients(symbol_psi(DimerParams(t)), 64, 8)
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
    tab = FourierTable(2, 12, coeffs)
    for n in (0, 2, 6, 11, 12):
        dense = bocg_dense(tab, n, 8)
        assert abs(_bocg_truncated(tab, n, 8) - dense) <= 1e-12 * abs(dense)
    assert abs(bocg_dense(tab, 6, 8) - 1.0) > 1e-3  # not trivially 1


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_bocg_singular_truncation():
    tab = FourierTable.from_coeff_map({1: 1.0}, 4)
    with pytest.raises(TruncatedOperatorSingular):
        _bocg_truncated(tab, 1, 8)
    with pytest.raises(TruncatedOperatorSingular):
        bocg_residual(tab, 1)


# ---------------------------------------------------------------------------
# exponential representation
# ---------------------------------------------------------------------------

def product_form_samples(t, x):
    return symbol_phi_product(DimerParams(t)).sample(x)


@pytest.mark.parametrize("t", [0.3, 0.7])
def test_exp_representation_reconstructs_product_form(t):
    rep = exp_representation(DimerParams(t))
    x = 2 * np.pi * np.arange(256) / 256 - np.pi
    rec = rep.reconstructed.sample(x)
    assert np.max(np.abs(rec - product_form_samples(t, x))) < 1e-9


def test_exp_representation_vs_phi_orientation():
    # the reconstruction carries the product-form diagonal, which is the
    # negative of symbol_phi's diagonal; off-diagonals agree exactly
    t = 0.5
    rep = exp_representation(DimerParams(t))
    x = 2 * np.pi * np.arange(64) / 64 - np.pi
    rec = rep.reconstructed.sample(x)
    phi = symbol_phi(DimerParams(t)).sample(x)
    assert np.max(np.abs(rec[:, 0, 1] - phi[:, 0, 1])) < 1e-9
    assert np.max(np.abs(rec[:, 1, 0] - phi[:, 1, 0])) < 1e-9
    assert np.max(np.abs(rec[:, 0, 0] + phi[:, 0, 0])) < 1e-9
    assert np.max(np.abs(rec[:, 1, 1] + phi[:, 1, 1])) < 1e-9


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
    from dimerdet import BranchFailure
    with pytest.raises(BranchFailure):
        exp_representation(DimerParams(0.5 + 0.1j))


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
