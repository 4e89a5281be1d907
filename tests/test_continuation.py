"""Tests for the analytic continuation of the sections to Re(t) > 0."""

import numpy as np
import pytest

from dimerdet import (
    DimerParams,
    ParameterOutOfRange,
    TruncationTooShort,
    b_hat,
    correlation_finite,
    correlation_limit,
    dimer_matrix,
    e_phi,
    e_plus_symbol,
    fourier_coefficients,
    k_plus_matrix,
    limit_scan,
    log_determinant,
    phi_table,
    theta_decomposition,
    toeplitz_matrix,
)
from dimerdet.continuation import (
    _phi_hat_symbol,
    _phi_hat_table,
    _scalar_tables,
    theta_section,
)
from dimerdet.dimer import _c


def test_e_plus_is_c_minus_pole_part():
    t = 0.5
    ep = e_plus_symbol(t)
    x = 2 * np.pi * np.arange(32) / 32 - np.pi
    lhs = ep(x) + 1.0 / (np.exp(-1j * x) - t)
    assert np.max(np.abs(lhs - _c(t, x))) < 1e-12


def test_e_plus_finite_on_circle_at_t_one():
    ep = e_plus_symbol(1.0)
    x = 2 * np.pi * np.arange(4096) / 4096 - np.pi
    vals = ep(x)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) < 1e3


def test_e_plus_removable_point_at_t_one():
    ep = e_plus_symbol(1.0)
    val = ep(np.array([0.0]))[0]
    assert np.isfinite(val)
    # the function vanishes cubically at the removable point
    assert abs(val) < 1e-9


def test_e_plus_tail_resolves_at_t_one():
    tab = fourier_coefficients(e_plus_symbol(1.0), 16384, 2048)
    assert tab.tail_magnitude() <= 1e-13


def test_e_plus_rejects_left_half_plane():
    with pytest.raises(ParameterOutOfRange):
        e_plus_symbol(-0.2)


def test_k_plus_examples():
    expected = np.array([[0, 0, 0], [1, 0, 0], [2, 1, 0]], dtype=complex)
    assert np.array_equal(k_plus_matrix(2.0, 3), expected)
    k4 = k_plus_matrix(1.0, 4)
    for j in range(4):
        for k in range(4):
            assert k4[j, k] == (1.0 if j > k else 0.0)


def test_k_plus_matches_pole_symbol_sections():
    # for |t| < 1, K+ is the section of 1/(e^{-ix} - t) (causal coefficients)
    t = 0.5
    from dimerdet import ScalarSymbol
    tab = fourier_coefficients(
        ScalarSymbol(lambda x: 1.0 / (np.exp(-1j * x) - t)), 256, 48)
    direct = toeplitz_matrix(tab, 5)
    assert np.max(np.abs(direct - k_plus_matrix(t, 5))) < 1e-12


@pytest.mark.parametrize("n", [4, 8])
def test_b_hat_continues_the_toeplitz_section(n):
    t = 0.6
    det_b = log_determinant(b_hat(t, n)).value
    det_t = log_determinant(toeplitz_matrix(phi_table(DimerParams(t)), n)).value
    assert abs(det_b - det_t) <= 1e-8 * abs(det_t)


def test_det_theta_section_is_one():
    import dimerdet.spectral as sp
    theta = np.zeros((3, 2, 2), dtype=complex)
    theta[1] = np.eye(2)
    theta[2] = np.diag([-0.7, 0.0])
    theta[0] = np.diag([0.0, -0.7])
    tab = sp.FourierTable(2, 1, theta)
    for n in (1, 4, 9):
        ld = log_determinant(sp.toeplitz_section(tab, n))
        assert abs(ld.value - 1.0) < 1e-12


def test_phi_hat_has_unit_determinant():
    sym = _phi_hat_symbol(0.7)
    v = sym.sample(np.array([1.3]))[0]
    assert abs(np.linalg.det(v) - 1.0) < 1e-12


@pytest.mark.parametrize("t", [0.6, 1.0, 1.2, 0.8 + 0.3j])
@pytest.mark.parametrize("n", [4, 8])
def test_fdm_identity(t, n):
    seq = theta_decomposition(t, n)  # raises DecompositionMismatch beyond 1e-9
    det_lhs = log_determinant(seq.b_hat).value
    assert np.isfinite(abs(det_lhs)) and abs(det_lhs) > 0


def test_perturbation_ranks_at_most_two():
    seq = theta_decomposition(1.0, 12)
    for op in (seq.k_op, seq.l_op):
        sv = np.linalg.svd(op, compute_uv=False)
        assert sv[2] <= 1e-12 * sv[0]


def test_limit_scan_real_t():
    scan = limit_scan(0.6, [4, 8, 16, 32])
    assert scan.errors_decreasing
    assert scan.rows[-1].abs_error <= 1e-6


def test_limit_scan_at_degenerate_closed_form_point():
    # t = 1/2 is harmless here: the limit formula is regular
    scan = limit_scan(0.5, [4, 8, 16])
    assert abs(scan.target - 1.0 / 9.0) < 1e-15
    assert scan.errors_decreasing
    assert scan.rows[-1].abs_error < 1e-5


def test_limit_scan_complex_t():
    t = 0.8 + 0.3j
    scan = limit_scan(t, [4, 8, 16])
    assert scan.errors_decreasing
    assert abs(scan.rows[-1].value - e_phi(t)) < 0.1 * abs(e_phi(t))


def test_limit_scan_triangular_point():
    scan = limit_scan(1.0, [16, 32], grid_size=8192, order=1024)
    assert scan.rows[-1].abs_error <= 1e-2
    # converged to the noise floor already at these sizes
    assert scan.rows[0].abs_error < 1e-10


def test_limit_scan_requires_increasing_n():
    with pytest.raises(ValueError):
        limit_scan(0.6, [8, 4])


def test_convergence_locally_uniform_shadow():
    # across a small parameter disk the n reaching a fixed accuracy should
    # agree within one doubling step
    target_eps = 1e-8
    centers = [0.8 + 0.1j, 0.85 + 0.1j, 0.75 + 0.1j, 0.8 + 0.15j, 0.8 + 0.05j]
    needed = []
    for t in centers:
        scan = limit_scan(t, [4, 8, 16, 32])
        reached = [r.n for r in scan.rows if r.abs_error < target_eps]
        needed.append(reached[0] if reached else 64)
    assert max(needed) <= 2 * min(needed)


@pytest.mark.parametrize("t", [0.3, 0.97, 1.0, 2.0, 0.3 + 2j])
def test_phi_hat_table_matches_sampled_symbol(t):
    e_tab, d_tab = _scalar_tables(complex(t), 4096, 512)
    algebraic = _phi_hat_table(complex(t), e_tab, d_tab)
    sampled = fourier_coefficients(_phi_hat_symbol(complex(t)), 4096, 512)
    assert algebraic.order == 511
    assert np.max(np.abs(algebraic.coeffs - sampled.coeffs[1:-1])) <= 1e-13


@pytest.mark.parametrize("t", [0.6, 1.0, 2.0, 0.8 + 0.3j])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_theta_section_matches_dense_assembly(t, n):
    # the sliding-window section against T_n(phi_hat) + K + W L W assembled
    # densely from the sampled symbol
    t = complex(t)
    section = theta_section(t, n, *_scalar_tables(t, 4096, 512))
    assert section.flags.f_contiguous
    seq = theta_decomposition(t, n)
    # W_n L W_n reverses the order of L's 2 x 2 blocks in both directions
    wlw = seq.l_op.reshape(n, 2, n, 2)[::-1, :, ::-1, :].reshape(2 * n, 2 * n)
    dense = (toeplitz_matrix(fourier_coefficients(_phi_hat_symbol(t), 4096, 512), n)
             + seq.k_op + wlw)
    assert np.max(np.abs(section - dense)) <= 1e-13


def test_theta_section_needs_table_order():
    e_tab, d_tab = _scalar_tables(0.6 + 0j, 512, 64)
    assert theta_section(0.6, 64, e_tab, d_tab).shape == (128, 128)
    with pytest.raises(TruncationTooShort):
        theta_section(0.6, 65, e_tab, d_tab)


@pytest.mark.parametrize("t", [0.3, 0.7])
@pytest.mark.parametrize("n", [2, 6])
def test_correlation_finite_equals_dimer_matrix_route(t, n):
    # the torus quadrature stays an independent check of the section
    params = DimerParams(t)
    det_m = log_determinant(dimer_matrix(params, n)).value
    expected = 0.5 * np.sqrt(det_m.real)
    assert abs(correlation_finite(params, n) - expected) <= 1e-10 * expected


def test_correlation_finite_beyond_quadrature_reach():
    # n >= 240 used to raise QuadratureUnconverged on the torus route
    value = correlation_finite(DimerParams(0.6), 256)
    assert abs(value - correlation_limit(0.6)) <= 1e-12
