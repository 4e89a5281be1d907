"""Tests for the analytic continuation of the sections to Re(t) > 0."""

import contextlib
import io
import json
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from dimerdet import (
    DecompositionMismatch,
    DimerParams,
    ParameterOutOfRange,
    TruncationTooShort,
    InvariantViolation,
    SingularDeterminant,
    correlation_finite,
    correlation_limit,
    correlation_scan,
    dimer_matrix,
    fourier_coefficients,
    log_determinant,
    symbol_phi,
    theta_decomposition,
    toeplitz_section,
)
from dimerdet.continuation import (
    _phi_hat_table,
    _scalar_tables,
    _section_dets,
    errors_decreasing,
    theta_section,
)
from dimerdet.cli import main
from dimerdet.dimer import _m_n, k_plus_matrix
from dimerdet.spectral import (
    FourierTable,
    ScalarSymbol,
    folded_log_determinant,
    hankel_section,
    table_grid,
)
from oracles import (
    as_1x1,
    b_hat,
    e_plus_symbol,
    fft_table,
    getrf_shapes,
    phi_hat_symbol,
    symbol_d,
    tail_magnitude,
    theta_section_dense,
)


def test_e_plus_is_c_minus_pole_part():
    t = 0.5
    ep = e_plus_symbol(t)
    x = 2 * np.pi * np.arange(32) / 32 - np.pi
    lhs = ep(x) + 1.0 / (np.exp(-1j * x) - t)
    c = -symbol_phi(DimerParams(t)).sample(x)[:, 0, 0]
    assert np.max(np.abs(lhs - c)) < 1e-12


def test_e_plus_finite_on_circle_at_t_one():
    ep = e_plus_symbol(1.0)
    x = 2 * np.pi * np.arange(4096) / 4096 - np.pi
    vals = ep(x)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) < 1e3


def test_e_plus_removable_point_at_t_one():
    ep = e_plus_symbol(1.0)
    # e^{-ix} = t at x = 0: the form over A + w has the factor sin^2 x there
    assert ep(np.array([0.0]))[0] == 0.0


def test_e_plus_tail_resolves_at_t_one():
    tab = fourier_coefficients(as_1x1(e_plus_symbol(1.0)), order=2048)
    assert tail_magnitude(tab) <= 1e-13


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
    tab = fourier_coefficients(
        as_1x1(ScalarSymbol(lambda x: 1.0 / (np.exp(-1j * x) - t))), order=48)
    direct = toeplitz_section(tab, 5)
    assert np.max(np.abs(direct - k_plus_matrix(t, 5))) < 1e-12


@pytest.mark.parametrize("n", [4, 8])
def test_b_hat_continues_the_toeplitz_section(n):
    # b_hat and M_n = S_n b_hat S_n^T, both on the same sampled tables
    t = 0.6
    tables = _scalar_tables(t, n)
    tab = fourier_coefficients(symbol_phi(DimerParams(t)))
    det_t = log_determinant(toeplitz_section(tab, n)).value
    for section in (b_hat(t, n, tables), _m_n(t, n, *tables)):
        assert abs(log_determinant(section).value - det_t) <= 1e-8 * abs(det_t)


def theta_plus_table(t: complex) -> FourierTable:
    """Theta+ = diag(1 - t e^{ix}, 1 - t e^{-ix}): coefficients k = -1, 0, 1."""
    theta = np.zeros((3, 2, 2), dtype=complex)
    theta[1] = np.eye(2)
    theta[2] = np.diag([-t, 0.0])
    theta[0] = np.diag([0.0, -t])
    return FourierTable(theta)


def test_det_theta_section_is_one():
    tab = theta_plus_table(0.7)
    for n in (1, 4, 9):
        ld = log_determinant(toeplitz_section(tab, n))
        assert abs(ld.value - 1.0) < 1e-12


def test_phi_hat_has_unit_determinant():
    sym = phi_hat_symbol(0.7)
    v = sym.sample(np.array([1.3]))[0]
    assert abs(np.linalg.det(v) - 1.0) < 1e-12


@pytest.mark.parametrize("t", [0.6, 1.0, 1.2, 0.8 + 0.3j])
@pytest.mark.parametrize("n", [4, 8])
def test_fdm_identity(t, n):
    seq = theta_decomposition(t, n)  # raises DecompositionMismatch beyond 1e-9
    assert seq.identity_residual <= 1e-9
    det_lhs = log_determinant(_m_n(t, n, *_scalar_tables(t, n))).value
    assert np.isfinite(abs(det_lhs)) and abs(det_lhs) > 0


def test_perturbation_ranks_at_most_two():
    # K = -H(Theta+) H(phitilde+) and L = -H(Thetatilde+) H(phi+), built
    # densely with phi+ = [[e+, d], [-d, e+tilde]]: each is one row, row 0 of
    # K the row theta_decomposition carries and row 1 of L it pair-swapped
    t, n = 1.0, 12
    e_tab, d_tab = _scalar_tables(t, n)
    e, d = e_tab.coeffs[:, 0, 0], d_tab.coeffs[:, 0, 0]
    phi_plus = FourierTable(np.stack([np.stack([e, d], -1), np.stack([-d, e[::-1]], -1)], 1))
    theta = theta_plus_table(t)
    k_op = -hankel_section(theta, n) @ hankel_section(phi_plus, n, reflected=True)
    l_op = -hankel_section(theta, n, reflected=True) @ hankel_section(phi_plus, n)
    k_row = theta_decomposition(t, n).k_row
    assert np.max(np.abs(k_op[0] - k_row)) <= 1e-15 * np.max(np.abs(k_row))
    assert np.max(np.abs(l_op[1] - k_row.reshape(n, 2)[:, ::-1].ravel())) \
        <= 1e-15 * np.max(np.abs(k_row))
    for op, row in ((k_op, 0), (l_op, 1)):
        assert not np.delete(op, row, axis=0).any()
        sv = np.linalg.svd(op, compute_uv=False)
        assert sv[2] <= 1e-12 * sv[0]


def _scan(t, ns):
    """P(n) along ``ns`` by :func:`correlation_scan`, the limit, and the errors."""
    values = correlation_scan(DimerParams(t), ns)
    limit = correlation_limit(t)
    return values, limit, [abs(value - limit) for value in values]


# scans of P(n) toward its limit by correlation_scan ("limit scans")

def test_limit_scan_real_t():
    ns = [4, 8, 16, 32]
    values, limit, errors = _scan(0.6, ns)
    assert errors_decreasing(ns, values, limit)
    assert errors[-1] <= 1e-6


def test_limit_scan_at_degenerate_closed_form_point():
    # t = 1/2 is harmless here: the limit formula is regular
    ns = [4, 8, 16]
    values, limit, errors = _scan(0.5, ns)
    assert abs(limit - 1.0 / 6.0) < 1e-15
    assert errors_decreasing(ns, values, limit)
    assert errors[-1] < 1e-5


def test_limit_scan_complex_t():
    t = 0.8 + 0.3j
    ns = [4, 8, 16]
    values, limit, errors = _scan(t, ns)
    assert errors_decreasing(ns, values, limit)
    assert errors[-1] < 0.1 * abs(limit)


def test_limit_scan_triangular_point():
    _, _, errors = _scan(1.0, [16, 32])
    assert errors[-1] <= 1e-2
    # converged to the noise floor already at these sizes
    assert errors[0] < 1e-10


def test_errors_decreasing_rejects_a_growing_error():
    # 1e-2 is far above the rounding level n eps |limit| of n = 16; 2e-17 is
    # below it, where the order of two errors carries no information
    limit = correlation_limit(0.3)
    assert errors_decreasing([8, 16], [limit + 1e-3, limit + 1e-2], limit) is False
    assert errors_decreasing([8, 16], [limit + 1e-17, limit + 2e-17], limit) is True


def test_limit_scan_requires_increasing_n():
    with pytest.raises(ValueError):
        correlation_scan(DimerParams(0.6), [8, 4])


def test_limit_scan_rejects_an_empty_n_list():
    # max() of the empty list raised a ValueError that named no argument
    with pytest.raises(ValueError, match="n_list must be non-empty"):
        correlation_scan(DimerParams(0.6), [])


@pytest.mark.parametrize("t", [-0.5, 0j, float("nan"), 1e160])
@pytest.mark.parametrize("route", [_m_n, theta_decomposition])
def test_given_tables_do_not_skip_the_half_plane_check(route, t):
    # with tables passed, t = -0.5 and 0j returned a residual of about 1e-15,
    # and 1e160 raised a bare OverflowError from k_plus_matrix
    tables = _scalar_tables(0.5, 8)
    with pytest.raises(ParameterOutOfRange):
        route(t, 8, *tables) if route is _m_n else route(t, 8, tables)


def test_convergence_locally_uniform_shadow():
    # across a small parameter disk the n reaching a fixed accuracy should
    # agree within one doubling step
    target_eps = 1e-8
    centers = [0.8 + 0.1j, 0.85 + 0.1j, 0.75 + 0.1j, 0.8 + 0.15j, 0.8 + 0.05j]
    ns = [4, 8, 16, 32]
    needed = []
    for t in centers:
        _, _, errors = _scan(t, ns)
        reached = [n for n, error in zip(ns, errors) if error < target_eps]
        needed.append(reached[0] if reached else 64)
    assert max(needed) <= 2 * min(needed)


def test_real_t_table_check_rejects_a_stray_part(monkeypatch):
    # the one-LU route reads e+ as real and d as imaginary: an imaginary part
    # of 1e-12 max|c| in one e+ coefficient is 100 times the tolerance, and
    # the scan raises instead of dropping it
    import dimerdet.continuation as continuation
    real = continuation._scalar_tables

    def planted(t, order):
        e_tab, d_tab = real(t, order)
        coeffs = e_tab.coeffs.copy()
        coeffs[e_tab.order + 3] += 1e-12j * np.max(np.abs(coeffs))
        return FourierTable(coeffs), d_tab

    assert correlation_finite(DimerParams(20.0), 8).imag == 0.0
    monkeypatch.setattr(continuation, "_scalar_tables", planted)
    with pytest.raises(InvariantViolation, match="stray part"):
        correlation_finite(DimerParams(20.0), 8)


def test_real_t_factors_one_n_by_n_matrix_per_n(monkeypatch):
    # real t: one getrf of B + CE per n; complex t: the two halves of the fold
    shapes = getrf_shapes(monkeypatch)
    correlation_scan(DimerParams(0.6), [8, 16, 33])
    assert shapes == [((8, 8), complex), ((16, 16), complex), ((33, 33), complex)]
    shapes.clear()
    correlation_scan(DimerParams(0.6 + 0.1j), [8, 16])
    assert shapes == [((8, 8), complex)] * 2 + [((16, 16), complex)] * 2


@pytest.mark.parametrize("t, halves", [(0.6, 1), (2.0, 1), (0.6 + 0.1j, 2)])
def test_continuation_identity_factors_the_route_of_p(t, halves, monkeypatch):
    # the identity's right side is the determinant P(n) is taken from: at
    # real t one n x n LU of B + CE, at complex t the fold's two halves; its
    # left side is the one 2n x 2n LU of M_n
    shapes = getrf_shapes(monkeypatch)
    theta_decomposition(t, 12)
    assert shapes == [((24, 24), complex)] + [((12, 12), complex)] * halves


def test_continuation_identity_past_t_one_names_the_growth_of_b_hat():
    # at t = 2 the band of M_n (and of b_hat, S_n^T M_n S_n) reaches 2^31 at
    # n = 33 and its LU loses the identity; the section itself is regular there
    message = r"det M_n = .*; M_n's band reaches \|t\|\^\(n-2\) = 2\.1e\+09"
    with pytest.raises(DecompositionMismatch, match=message):
        theta_decomposition(2.0, 33)
    assert abs(correlation_finite(DimerParams(2.0), 33) - correlation_limit(2.0)) <= 1e-14


def test_continuation_identity_names_b_hat_when_its_lu_is_singular(capsys):
    # at t = 2, n = 64 the band of M_n (and of b_hat) reaches 2^62 and its LU
    # is flagged singular: the error keeps its type and names M_n and that band
    message = r"LU of M_n is flagged singular .*\|t\|\^\(n-2\) = 4\.6e\+18"
    with pytest.raises(SingularDeterminant, match=message):
        theta_decomposition(2.0, 64)
    args = ["verify", "--identity", "continuation", "--t", "2", "--n", "64", "--format", "json"]
    assert main(args) == 3
    row, = json.loads(capsys.readouterr().out)["rows"]
    assert row["error"]["type"] == "SingularDeterminant"
    assert re.search(message, row["error"]["message"])


def test_real_t_one_lu_keeps_the_pivot_test():
    # from |t| of about 1e15 the section's pivots fall below 2n eps ||A||_inf;
    # the one half the real-t route factors is flagged as the fold was
    with pytest.raises(SingularDeterminant):
        correlation_finite(DimerParams(1e15), 8)


@pytest.mark.parametrize("t", [0.3, 0.97, 1.0, 2.0, 0.3 + 2j])
def test_phi_hat_table_matches_sampled_symbol(t):
    e_tab, d_tab = _scalar_tables(complex(t), 510)
    algebraic = _phi_hat_table(complex(t), e_tab, d_tab)
    sampled = fft_table(phi_hat_symbol(complex(t)), 4096, 510)
    assert algebraic.order == 509
    assert np.max(np.abs(algebraic.coeffs - sampled.coeffs[1:-1])) <= 1e-13


@pytest.mark.parametrize("t", [0.6, 1.0, 2.0, 0.8 + 0.3j])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_theta_section_matches_dense_assembly(t, n):
    # the slab is the top n rows of T_n(phi_hat) + K + W L W assembled
    # densely from the sampled symbol, and bit for bit those of the dense
    # reference section from the same tables
    t = complex(t)
    tables = _scalar_tables(t, 512)
    slab = theta_section(t, n, *tables)
    assert slab.flags.f_contiguous and slab.shape == (n, 2 * n)
    dense = toeplitz_section(fft_table(phi_hat_symbol(t), 4096, 512), n)
    # K adds its row to row 0; W_n L W_n adds it reversed to row 2n - 1,
    # below the slab
    dense[0] += theta_decomposition(t, n).k_row
    assert np.max(np.abs(slab - dense[:n])) <= 1e-13
    assert np.array_equal(slab, theta_section_dense(t, n, *tables)[:n])


def test_scalar_tables_share_one_order():
    # at this t and floor, e+ resolves at order 510 (grid 1024) and d already
    # at 254 (grid 512)
    t = 0.1
    assert [fourier_coefficients(as_1x1(sym), order=33).order
            for sym in (e_plus_symbol(t), symbol_d(t))] == [510, 254]
    e_tab, d_tab = _scalar_tables(t, 33)
    assert e_tab.order == d_tab.order == 510
    rebuilt = fft_table(as_1x1(symbol_d(t)), table_grid(510), 510)
    assert np.array_equal(d_tab.coeffs, rebuilt.coeffs)


def test_theta_section_is_factored_in_place():
    # the slab [B | C] becomes the LU factors of B + CE (left half) and of
    # (B - CE) E (right half), E the index reversal
    slab = theta_section(0.6, 8, *_scalar_tables(0.6, 8))
    assert slab.flags.f_contiguous
    b, ce = slab[:, :8].copy(), slab[:, 8:][:, ::-1].copy()
    folded_log_determinant(slab)
    assert np.array_equal(slab[:, :8], scipy.linalg.lu_factor(b + ce)[0])
    assert np.array_equal(slab[:, 8:], scipy.linalg.lu_factor((b - ce)[:, ::-1])[0])


def _traced_peak(t: complex, n: int) -> int:
    """The traced peak of one :func:`correlation_finite`, with imports and
    caches warmed out of the count."""
    correlation_finite(DimerParams(t), n)
    tracemalloc.start()
    try:
        correlation_finite(DimerParams(t), n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_correlation_finite_builds_no_full_section():
    # the slab is 8 MiB at n = 512, and one 2n x 2n complex buffer alone
    # would be 16 MiB; at real t the fold adds its right half into its left
    # in place and makes no n x n temporary
    assert _traced_peak(0.6, 512) < 9 * 2 ** 20


def test_correlation_finite_at_complex_t_builds_no_full_section():
    # the two-LU fold forms B - CE one strip of columns at a time: the slab
    # is 8 MiB, and one n x n complex temporary would add 4 MiB
    assert _traced_peak(0.6 + 0.1j, 512) < 10 * 2 ** 20


def test_theta_section_needs_table_order():
    e_tab, d_tab = _scalar_tables(0.6 + 0j, 64)
    assert e_tab.order == 126  # all that the first grid, 256 points, certifies
    assert theta_section(0.6, 126, e_tab, d_tab).shape == (126, 252)
    with pytest.raises(TruncationTooShort):
        theta_section(0.6, 127, e_tab, d_tab)


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


def _count_pair_angles(monkeypatch):
    """Record the number of angles each evaluation of the e+/d pair sees."""
    import dimerdet.continuation as continuation
    real, angles = continuation.e_plus_d, []

    def counted(t):
        pair = real(t)
        return ScalarSymbol(lambda x: angles.append(np.size(x)) or pair(x))

    monkeypatch.setattr(continuation, "e_plus_d", counted)
    return angles


def test_theta_decomposition_builds_the_tables_once(monkeypatch):
    # M_n reuses the e+ and d tables of the section: one sampling of the
    # order-2046 grid at this t (4096 angles); building them twice takes two
    angles = _count_pair_angles(monkeypatch)
    theta_decomposition(0.02, 8)
    assert sum(angles) == table_grid(2046) == 4096


def test_correlation_finite_samples_the_pair_once_per_angle(monkeypatch):
    # at t = 0.1 the tables climb to order 510, grids 256 -> 512 -> 1024: the
    # e+/d pair sees 1024 angles in all, each doubling only its new midpoints
    angles = _count_pair_angles(monkeypatch)
    correlation_finite(DimerParams(0.1), 32)
    assert angles == [256, 256, 512]


def _single_n_p(t: complex, n: int) -> complex:
    """P(n) from a table pair of its own, resolved to at least order n, and
    its determinant from the route every P(n) takes."""
    t = complex(t)
    det, = _section_dets(t, [n], *_scalar_tables(t, n))
    return complex(0.5 * np.sqrt(det))


def _cli_json(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args + ["--format", "json"])
    assert code == 0
    return out.getvalue()


def test_correlation_n_list_samples_the_pair_once_per_angle(monkeypatch):
    # one table pair for the whole list: at t = 0.02 it reaches order 2046,
    # and each of its 4096 angles is sampled once, not once per n
    order = _scalar_tables(0.02, 64)[0].order
    angles = _count_pair_angles(monkeypatch)
    rows = json.loads(_cli_json(["correlation", "--t", "0.02", "--n-list", "8,16,32,64"]))["rows"]
    assert [row["n"] for row in rows] == [None, 8, 16, 32, 64]
    assert sum(angles) == table_grid(order) == table_grid(2046)


@pytest.mark.parametrize("t", ["0.02", "0.3", "0.6", "0.8+0.3i", "2", "0.05+1i"])
def test_correlation_n_list_rows_match_correlation_finite(t):
    ns = [8, 16, 32, 64]
    tc = complex(t.replace("i", "j"))
    rows = json.loads(_cli_json(["correlation", "--t", t, "--n-list", "8,16,32,64"]))["rows"]
    shared = _scalar_tables(tc, max(ns))[0].order
    for row, n in zip(rows[1:], ns):
        value = complex(row["value_re"], row["value_im"])
        alone = correlation_finite(DimerParams(tc), n)
        assert abs(value - alone) <= 1e-13 * abs(alone)
        if _scalar_tables(tc, n)[0].order == shared:
            assert value == alone


@pytest.mark.parametrize("t, n", [("0.6", 32), ("0.02", 64), ("2", 8), ("0.8+0.3i", 16),
                                  ("0.05+1i", 64), ("1", 64)])
def test_correlation_n_output_is_the_single_n_route_byte_for_byte(t, n):
    from dimerdet.cli import VALUE_COLUMNS, _row, render_json

    tc = complex(t.replace("i", "j"))
    limit = correlation_limit(tc)
    expected = render_json({"command": "correlation", "columns": VALUE_COLUMNS, "rows": [
        _row(tc, None, limit, limit), _row(tc, n, _single_n_p(tc, n), limit)]})
    assert _cli_json(["correlation", "--t", t, "--n", str(n)]) == expected
