"""Acceptance suite: one test per shipped criterion, with pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured residuals.  Every tolerance is pinned here; nothing is
deferred to later calibration.
"""

import time

import numpy as np

from dimerdet import (
    DimerParams,
    alpha_log_tables,
    b_hat,
    bocg_residual,
    correction_factor,
    correlation_limit,
    dimer_matrix,
    e_phi,
    e_phi_reduction,
    exp_representation,
    fourier_coefficients,
    geometric_mean,
    hankel_trace,
    lambda_value,
    log_determinant,
    phi_table,
    spectral_roots,
    symbol_phi,
    symbol_phi_product,
    symbol_psi,
    symbol_psi_inverse,
    szego_E_operator,
    theta_decomposition,
    toeplitz_matrix,
    widom_banded_E,
)
from dimerdet.spectral import FourierTable, ScalarSymbol, pointwise_inverse
from dimerdet.szego import _bocg_truncated, _operator_det

E_T_SET = (0.2, 0.3, 0.4, 0.6, 0.7, 0.8)


def report(num, name, detail):
    print(f"ACCEPTANCE {num} ({name}): PASS [{detail}]")


def test_criterion_01_headline_correlation():
    value = correlation_limit(1.0)
    assert round(abs(value), 4) == 0.1494
    start = time.perf_counter()
    for _ in range(100):
        correlation_limit(1.0)
    per_call = (time.perf_counter() - start) / 100
    assert per_call < 1e-3
    report(1, "headline correlation", f"P = {abs(value):.6f}, {per_call * 1e6:.1f} us/call")


def test_criterion_02_dimer_toeplitz_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for t in (0.3, 0.5, 0.7):
        params = DimerParams(t)
        tab = phi_table(params)
        for n in (2, 4, 8, 16):
            det_m = log_determinant(dimer_matrix(params, n)).value
            det_t = log_determinant(toeplitz_matrix(tab, n)).value
            rel = abs(det_m - det_t) / abs(det_t)
            worst = max(worst, rel)
            assert rel <= 1e-8, (t, n, rel)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, "finite-determinant equivalence", f"worst rel {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_three_way_e_agreement():
    start = time.perf_counter()
    worst = 0.0
    for t in E_T_SET:
        params = DimerParams(t)
        phi = symbol_phi(params)
        # the operator route at the order its tail estimate picks, and at 256
        e_op = szego_E_operator(phi)
        e_256 = _operator_det(fourier_coefficients(phi),
                              fourier_coefficients(pointwise_inverse(phi)), 256)
        e_red = e_phi_reduction(params)
        e_cf = e_phi(t)
        rel = max(abs(e_op - e_red), abs(e_op - e_cf), abs(e_red - e_cf),
                  abs(e_256 - e_cf)) / abs(e_cf)
        worst = max(worst, rel)
        assert rel <= 1e-6, (t, rel)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(3, "three-way E agreement", f"worst rel {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_lambda_identity():
    worst = 0.0
    for t in E_T_SET:
        inv_tab = fourier_coefficients(symbol_psi_inverse(DimerParams(t)), 4096, 256)
        det3 = log_determinant(toeplitz_matrix(inv_tab, 3)).value
        rel = abs(lambda_value(t) ** 2 - det3) / abs(det3)
        worst = max(worst, rel)
        assert rel <= 1e-8, (t, rel)
    report(4, "Lambda^2 = det T_3(psi^{-1})", f"worst rel {worst:.2e}")


def test_criterion_05_hankel_trace_closed_forms():
    params = DimerParams(0.3)
    tab1, tab2 = alpha_log_tables(params)
    r = spectral_roots(0.3)
    t2 = 0.09
    cross = -np.log((1 - t2 * r.xi1) * (1 - t2 * r.xi2))
    square = -2 * np.log((1 - r.xi1 ** 2) * (1 - r.xi2 ** 2) * (1 - r.xi1 * r.xi2) ** 2)
    res1 = abs(hankel_trace(tab1, tab2, 2048) - cross)
    res2 = abs(hankel_trace(tab2, tab1, 2048) - cross)
    res3 = abs(hankel_trace(tab2, tab2, 2048) - square)
    assert max(res1, res2, res3) <= 1e-9
    report(5, "Hankel-trace closed forms", f"worst abs {max(res1, res2, res3):.2e}")


def test_criterion_06_bocg_residual():
    params = DimerParams(0.4)
    psi_tab = fourier_coefficients(symbol_psi(params), 64, 8)
    inv_tab = fourier_coefficients(symbol_psi_inverse(params), 4096, 256)
    e_psi = widom_banded_E(psi_tab, 3)
    g = geometric_mean(symbol_psi(params))
    worst = 0.0
    for n in (3, 5, 8):
        res = _bocg_truncated(psi_tab, n, 256)
        assert abs(bocg_residual(psi_tab, n) - res) <= 1e-12 * abs(res)
        det_n = log_determinant(toeplitz_matrix(inv_tab, n)).value
        rel = abs(det_n - e_psi / g ** n * res) / abs(det_n)
        worst = max(worst, rel)
        assert rel <= 1e-8, (n, rel)
    drift = max(abs(_bocg_truncated(psi_tab, n, 256) - 1.0) for n in (12, 16))
    assert drift <= 1e-8
    report(6, "one-step residual identity", f"worst rel {worst:.2e}, drift {drift:.2e}")


def test_criterion_07_exponential_representation():
    worst = 0.0
    for t in (0.3, 0.7):
        rep = exp_representation(DimerParams(t))
        x = 2 * np.pi * np.arange(256) / 256 - np.pi
        rec = rep.reconstructed.sample(x)
        target = symbol_phi_product(DimerParams(t)).sample(x)
        err = float(np.max(np.abs(rec - target)))
        worst = max(worst, err)
        assert err <= 1e-9, (t, err)
    report(7, "exponential representation", f"worst pointwise {worst:.2e}")


def test_criterion_08_continuation_identity():
    worst = 0.0
    for t in (0.6, 1.0, 1.2, 0.8 + 0.3j):
        for n in (4, 8, 16):
            seq = theta_decomposition(t, n)  # raises beyond 1e-9
            worst = max(worst, seq.identity_residual)
            assert seq.identity_residual <= 1e-9, (t, n, seq.identity_residual)
    report(8, "Toeplitz-plus-perturbation identity", f"worst rel {worst:.2e}")


def test_criterion_09_triangular_lattice_convergence():
    start = time.perf_counter()
    target = correlation_limit(1.0)
    errors = []
    for n in (16, 32, 64, 128, 256):
        det = log_determinant(b_hat(1.0, n)).value
        errors.append(abs(0.5 * np.sqrt(complex(det)) - target))
    assert errors[-1] <= 1e-2
    # strictly decreasing until the floating-point noise floor; at this
    # parameter the sections converge to ~1e-13 by n = 16, so consecutive
    # errors below the floor carry no ordering information
    noise_floor = 1e-12
    for a, b in zip(errors, errors[1:]):
        assert b < a or max(a, b) < noise_floor, errors
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(9, "triangular-lattice convergence",
           f"errors {['%.1e' % e for e in errors]}, {elapsed:.1f}s")


def test_criterion_10_root_invariant_suite():
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    while checked < 50:
        t = complex(rng.uniform(0.05, 1.5), rng.uniform(-0.5, 0.5))
        if abs(t - 0.5) < 1e-3:
            continue
        r = spectral_roots(t)  # validates |xi|<1, sum identities, quartic residual
        assert abs(r.xi1) < 1 and abs(r.xi2) < 1
        assert abs(r.xi1 + 1 / r.xi1 - (4 + 2 * r.mu)) < 1e-12
        assert abs(r.xi2 + 1 / r.xi2 - (4 - 2 * r.mu)) < 1e-12
        prod = (r.xi1 - 1) * (1 / r.xi1 - 1) * (r.xi2 - 1) * (1 / r.xi2 - 1)
        rel = abs(prod - 16 * t * t)
        worst = max(worst, rel / max(1.0, abs(16 * t * t)))
        assert rel <= 1e-10 * max(1.0, abs(16 * t * t))
        checked += 1
    report(10, "root invariant suite", f"50 samples, worst {worst:.2e}")


def test_criterion_11_scalar_widom_randomized():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        n_up = int(rng.integers(1, 4))
        n_dn = int(rng.integers(0, 4))
        gammas = [rng.uniform(0.1, 0.6) * np.exp(2j * np.pi * rng.uniform())
                  for _ in range(n_up)]
        deltas = [rng.uniform(0.1, 0.6) * np.exp(2j * np.pi * rng.uniform())
                  for _ in range(n_dn)]

        def sym_eval(x, gs=gammas, ds=deltas):
            z = np.exp(1j * x)
            out = np.ones_like(z)
            for g in gs:
                out = out * (1.0 - g * z)
            for d in ds:
                out = out * (1.0 - d / z)
            return out

        tab = fourier_coefficients(ScalarSymbol(sym_eval), 128, 16)
        coeffs = {}
        for k in range(1, 257):
            coeffs[k] = -sum(g ** k for g in gammas) / k
            coeffs[-k] = -sum(d ** k for d in deltas) / k
        log_tab = FourierTable.from_coeff_map(coeffs, 256)
        diff = abs(widom_banded_E(tab, n_up, grid_size=1024)
                   - correction_factor(log_tab, 1, 256))
        worst = max(worst, diff)
        assert diff <= 1e-9
    report(11, "randomized banded/series agreement", f"20 symbols, worst {worst:.2e}")
