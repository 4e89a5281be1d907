"""Tests for the root algebra, coefficient bundle, and the limit formulas."""

import cmath
import dataclasses

import numpy as np
import pytest

from dimerdet import (
    DimerParams,
    InvariantViolation,
    ParameterOutOfRange,
    PoleInput,
    correlation_limit,
    e_phi,
    fourier_coefficients,
    lambda_value,
    log_determinant,
    symbol_psi_inverse,
    toeplitz_section,
)
from dimerdet import closed_form
from dimerdet.continuation import e_plus_d
from dimerdet.closed_form import (
    coefficient_bundle,
    kl_helpers,
    lambda_long_form,
    prefactor,
    spectral_roots,
)
from oracles import as_1x1, scalar_coeff, symbol_a_b

T_SET = (0.2, 0.3, 0.4, 0.6, 0.7, 0.8)


def det_t3_psi_inverse(t):
    """Spectral oracle: det T_3(psi^{-1}) from the closed-form inverse symbol."""
    tab = fourier_coefficients(symbol_psi_inverse(DimerParams(t)), order=256)
    return log_determinant(toeplitz_section(tab, 3)).value


def test_roots_at_0p3():
    r = spectral_roots(0.3)
    assert abs(r.mu - 0.8) < 1e-15
    assert abs(r.xi1 - 0.18466063387559587) < 1e-13
    assert abs(r.xi2 - 0.53667504192892003) < 1e-13
    # independent cross-check through the sum identity
    assert abs(r.xi2 + 1 / r.xi2 - 2.4 - (4 - 2 * r.mu - 2.4)) < 1e-12


def test_roots_degenerate_point():
    # the roots collide at t = 1/2: mu = 0 and xi + 1/xi = 4 for both
    r = spectral_roots(0.5)
    assert r.mu == 0
    assert abs(r.xi1 - (2 - np.sqrt(3))) < 1e-15
    assert abs(r.xi2 - (2 - np.sqrt(3))) < 1e-15


def test_roots_reject_left_half_plane():
    with pytest.raises(ParameterOutOfRange):
        spectral_roots(-1.0)


@pytest.mark.parametrize("t", [complex(0.3, float("nan")), complex(0.3, float("inf")),
                               complex(float("inf"), 0.0), complex(float("nan"), 1.0),
                               0.0, -0.3 + 1j, 1e160, 1e160 + 1e160j])
def test_every_half_plane_entry_rejects_a_t_off_it(t):
    # a non-finite part passed: correlation_limit(0.3+nanj) returned nan+nanj;
    # so did a t whose square overflows: correlation_limit(1e160) was nan
    for entry in (DimerParams, e_plus_d, spectral_roots, e_phi, correlation_limit):
        with pytest.raises(ParameterOutOfRange):
            entry(t)


@pytest.mark.parametrize("t", [1e105, 1e130, 1e150 + 1e149j])
def test_roots_stay_finite_at_large_t(t):
    # t^2 (3 - mu) overflowed from |t| of about 6e102 and (mu - t^2)^2 from
    # about 1e127: xi_2 and omega came back nan, and the checks passed them
    r = spectral_roots(t)
    assert all(cmath.isfinite(v) for v in (r.xi1, r.xi2, r.one_minus_xi1, r.one_minus_xi2,
                                           r.one_plus_xi1, r.one_plus_xi2, r.omega))
    assert cmath.isfinite(prefactor(t)) and cmath.isfinite(lambda_value(t))


def test_root_checks_reject_nan():
    roots = dataclasses.replace(spectral_roots(0.3), xi2=complex("nan"))
    with pytest.raises(InvariantViolation):
        closed_form._validate_roots(roots)


def test_roots_product_identity():
    r = spectral_roots(0.3)
    prod = ((r.xi1 - 1) * (1 / r.xi1 - 1) * (r.xi2 - 1) * (1 / r.xi2 - 1))
    assert abs(prod - 16 * 0.3 ** 2) < 1e-10


def test_root_invariants_over_rectangle():
    rng = np.random.default_rng(17)
    count = 0
    while count < 50:
        t = complex(rng.uniform(0.05, 1.5), rng.uniform(-0.5, 0.5))
        r = spectral_roots(t)
        assert abs(r.xi1) < 1.0 and abs(r.xi2) < 1.0
        prod = ((r.xi1 - 1) * (1 / r.xi1 - 1) * (r.xi2 - 1) * (1 / r.xi2 - 1))
        assert abs(prod - 16 * t * t) < 1e-10 * max(1.0, abs(16 * t * t))
        count += 1


def test_roots_inside_the_disk_over_the_wide_box():
    # a root outside the unit disk is swapped for its partner 1/xi; when the
    # swap recomputed the same root, 1342 of these 2460 points raised
    # InvariantViolation ("|xi2| >= 1")
    for re in np.linspace(0.01, 3.0, 60):
        for im in np.linspace(-2.0, 2.0, 41):
            r = spectral_roots(complex(re, im))
            assert abs(r.xi1) < 1.0 and abs(r.xi2) < 1.0


def test_kl_spot_values():
    k, l = kl_helpers(0.3, 0.0, 1.0, 1.0)
    assert abs(k + 1.0) < 1e-15
    assert abs(l - 1.0) < 1e-15


def test_kl_at_xi1():
    r = spectral_roots(0.3)
    k, _ = kl_helpers(0.3, r.xi1, r.one_minus_xi1, r.one_plus_xi1)
    expected = -8 * r.xi1 / ((1 - r.mu * r.xi1) * (1 - r.xi1 ** 2))
    assert abs(k - expected) < 1e-10


def test_kl_forms_agree_on_random_points():
    rng = np.random.default_rng(23)
    for _ in range(10):
        x = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.5, 0.5))
        if min(abs(x - 1), abs(x + 1)) < 0.05:
            continue
        kl_helpers(0.35, x, 1 - x, 1 + x)  # internal 1e-12 identity assertion


@pytest.mark.parametrize("t", [0.3, 0.003, 1e-6])
@pytest.mark.parametrize("which, index", [(0, 1), (1, 0), (1, 2)])
def test_l_check_catches_a_coefficient_slip_of_1e_8(monkeypatch, t, which, index):
    # the check is relative to |k| + |2/(1-x)|, which grows like 1/t as xi_2
    # nears 1; a slip of 1e-8 in a numerator coefficient of k or l still raises
    real = closed_form._kl_polynomials

    def slipped(tt):
        polys = [list(p) for p in real(tt)]
        polys[which][index] += 1e-8
        return tuple(map(tuple, polys))

    lambda_value(t)
    monkeypatch.setattr(closed_form, "_kl_polynomials", slipped)
    with pytest.raises(InvariantViolation, match="l\\(x\\) forms disagree"):
        lambda_value(t)


def test_kl_pole_rejection():
    with pytest.raises(PoleInput):
        kl_helpers(0.3, 1.0, 0.0, 2.0)
    with pytest.raises(PoleInput):
        kl_helpers(0.3, -1.0, 2.0, 0.0)


@pytest.mark.parametrize("t", [0.3, 0.7])
def test_coefficient_bundle_vs_quadrature(t):
    bundle = coefficient_bundle(t)
    a, b = symbol_a_b(DimerParams(t))
    tab_a = fourier_coefficients(as_1x1(a), order=256)
    tab_b = fourier_coefficients(as_1x1(b), order=256)
    assert abs(bundle.a0 - scalar_coeff(tab_a, 0)) < 1e-9
    assert abs(bundle.a1 - scalar_coeff(tab_a, 1)) < 1e-9
    assert abs(bundle.am1 - scalar_coeff(tab_a, -1)) < 1e-9
    assert abs(bundle.a2 - scalar_coeff(tab_a, 2)) < 1e-9
    assert abs(bundle.am2 - scalar_coeff(tab_a, -2)) < 1e-9
    assert abs(bundle.b1 - scalar_coeff(tab_b, 1)) < 1e-9
    assert scalar_coeff(tab_b, 2) == pytest.approx(0, abs=1e-12)


def test_bundle_a0_real_in_conjugate_regime():
    assert abs(coefficient_bundle(0.7).a0.imag) < 1e-12


def test_lambda_forms_agree():
    direct = lambda_value(0.7)
    long = lambda_long_form(0.7)
    assert abs(direct - long) < 1e-9


@pytest.mark.parametrize("t", T_SET)
def test_lambda_squared_is_det_t3(t):
    lam = lambda_value(t)
    det = det_t3_psi_inverse(t)
    assert abs(lam ** 2 - det) <= 1e-8 * abs(det)


def test_lambda_is_regular_at_the_degenerate_point():
    # the two forms agree (asserted inside lambda_value) where the roots collide
    assert abs(lambda_value(0.5) - (-0.51055480693)) < 1e-10
    for t in (0.5, 0.4995):
        det = det_t3_psi_inverse(t)
        assert abs(lambda_value(t) ** 2 - det) <= 1e-8 * abs(det)


@pytest.mark.parametrize("offset", [1, 1j])
def test_lambda_forms_agree_around_the_degenerate_point(offset):
    # both forms divided by xi1 - xi2; they disagreed by 8e-13 at t = 0.4999999
    for d in (*np.linspace(-1e-2, 1e-2, 41), 1e-5, -1e-7, 1e-11):
        t = 0.5 + d * offset
        reduced = lambda_value(t)
        assert abs(lambda_long_form(t) - reduced) <= 1e-12 * abs(reduced)


#: lambda_value and prefactor from the formulas in xi1 - xi2 with the
#: principal root or its reciprocal, before the divided differences
PINNED = {
    0.2: (-1.1843090317654525, 0.4050284432767646),
    0.3: (-0.8795169816891485, 0.5223624582015006),
    0.4: (-0.6653986957177943, 0.598822434731558),
    0.6: (-0.396134818566671, 0.6738800094040526),
    0.7: (-0.3101871809049483, 0.6890277983977852),
    0.8: (-0.24479557912923294, 0.6966568737916855),
    0.3 + 0.2j: (-0.7158083307054911 + 0.45663264266996045j,
                 0.6027647981896509 + 0.17199660994507743j),
    1: (-0.15556077775407012, 0.7020983217992781),
    2: (-0.022138842998814464, 0.78958407744502),
}


@pytest.mark.parametrize("t", PINNED)
def test_lambda_and_prefactor_keep_their_values(t):
    lam, pre = PINNED[t]
    assert abs(lambda_value(t) - lam) <= 1e-13 * abs(lam)
    assert abs(prefactor(t) - pre) <= 1e-13 * abs(pre)


def test_lambda_swap_symmetry():
    # relabeling xi1 <-> xi2 flips mu; the closed form is invariant
    r = spectral_roots(0.3)
    c = coefficient_bundle(0.3)
    x1, x2, mu = r.xi2, r.xi1, -r.mu
    alpha = 4 * x1 * x2 / ((1 - x1 * x2) * (x1 - x2))
    swapped = (8 * mu * alpha ** 3 * (x1 - x2) ** 2
               / (cmath.sqrt(c.roots.omega) * (1 + x1) * (1 + x2)))
    assert abs(swapped - lambda_value(0.3)) < 1e-12


def test_prefactor_positive_and_identity():
    value = prefactor(0.3)
    assert abs(value.imag) < 1e-12
    assert value.real > 0
    r = spectral_roots(0.3)
    lhs = (1 - r.xi1 ** 2) * (1 - r.xi2 ** 2)
    rhs = 16 * cmath.sqrt(0.09 * 2.09) * r.xi1 * r.xi2
    assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("t", T_SET)
def test_product_root_sum_identity(t):
    r = spectral_roots(t)
    prod = r.xi1 * r.xi2
    rhs = 6 + 8 * t ** 2 + 8 * cmath.sqrt(t ** 2 * (2 + t ** 2))
    assert abs(prod + 1 / prod - rhs) < 1e-10


@pytest.mark.parametrize("t", T_SET)
def test_reduction_chain_to_e_phi(t):
    r = spectral_roots(t)
    val = prefactor(t) * lambda_value(t) ** 2 / (16 * r.xi1 * r.xi2) ** 3
    assert abs(val - e_phi(t)) <= 1e-8 * abs(e_phi(t))


def test_e_phi_exact_rational_at_half():
    assert abs(e_phi(0.5) - 1.0 / 9.0) < 1e-15


def test_e_phi_values():
    assert abs(e_phi(1.0) - 1.0 / (6.0 + 3.0 * np.sqrt(3.0))) < 1e-15
    assert abs(e_phi(1.0) - 0.089316397477040902) < 1e-15
    assert abs(e_phi(0.6) - 0.10960277122488374) < 1e-15


def test_e_phi_rejects_left_half_plane():
    with pytest.raises(ParameterOutOfRange):
        e_phi(-2.0)


def test_correlation_limit_values():
    assert abs(correlation_limit(1.0) - 0.14942924536134225) < 1e-15
    assert abs(correlation_limit(0.3) - 0.15918115688259285) < 1e-15
    assert abs(correlation_limit(0.5) - 1.0 / 6.0) < 1e-15


def test_correlation_limit_vanishes_at_origin():
    assert abs(correlation_limit(1e-12)) < 1e-5


def test_bundle_omega_definition():
    r = spectral_roots(0.45)
    c = coefficient_bundle(0.45)
    assert abs(c.roots.omega - (1 - 0.45 ** 2 * r.xi1) * (1 - 0.45 ** 2 * r.xi2)) < 1e-14
    assert c.roots.omega.real > 0


def test_invariant_violation_surface():
    # sanity: the validator rejects a corrupted root bundle
    from dimerdet.closed_form import _validate_roots
    r = spectral_roots(0.3)
    bad = dataclasses.replace(r, xi1=r.xi1 * 1.01, branch_log="corrupted")
    with pytest.raises(InvariantViolation):
        _validate_roots(bad)
