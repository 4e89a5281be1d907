"""Property tests for the finite correlation over the half-plane Re(t) > 0."""

import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dimerdet import (
    DimerdetError,
    DimerParams,
    QuadratureUnconverged,
    SingularDeterminant,
    TailNotResolved,
    correlation_finite,
    correlation_limit,
    dimer_matrix,
    e_phi,
    exp_representation,
    symbol_phi,
    symbol_psi,
    szego_E_operator,
    theta_decomposition,
)
from dimerdet import continuation, dimer, szego
from dimerdet.cli import RunConfig, run_verify
from dimerdet.closed_form import lambda_value, prefactor, spectral_roots
from dimerdet.continuation import _scalar_tables, e_plus_d, theta_section
from dimerdet.dimer import MAX_QUAD_GRID, _m_n, _y_means, kernel_symbols, torus_tables
from dimerdet.spectral import (
    MIN_GRID,
    QUAD_TOL,
    FourierTable,
    _checkerboard_real,
    _doubled,
    _grid,
    _log_dets,
    _logdet_mean,
    _section,
    _series,
    folded_log_determinant,
    fourier_coefficients,
    hankel_section,
    log_determinant,
    table_grid,
    toeplitz_determinants,
    toeplitz_section,
)
from dimerdet.szego import _operator_det, _sinhc
from oracles import (
    _sigma,
    as_1x1,
    assemble,
    b_hat,
    complex_operator_det,
    e_plus_symbol,
    fft_table,
    flip_conjugate,
    full_grid_coefficients,
    full_grid_hats,
    full_grid_kernel_sums,
    hankel_index,
    horner_series,
    literal_dimer_matrix,
    numpy_operator_det,
    numpy_y_means,
    planted_symbol,
    pointwise_inverse,
    relabelled_r_q,
    section_determinants,
    symbol_d,
    theta_section_dense,
    toeplitz_index,
    torus_coefficients,
    unwrap_logdet_mean,
)

SETTINGS = settings(deadline=None, max_examples=50)

SEPARATIONS = st.sampled_from([1, 2, 4, 8, 16, 32])


def box(re_min, re_max, im_max):
    return st.builds(complex, st.floats(re_min, re_max), st.floats(-im_max, im_max))


#: |t| log-uniform in [1e-2, 1e6] and arg t within 1e-9 of the imaginary axis;
#: nearer the axis (Re t below about 1e-12 |t|) a root can round onto the
#: unit circle
HALF_PLANE = st.builds(lambda m, a: 10.0 ** m * cmath.exp(1j * a), st.floats(-2.0, 6.0),
                       st.floats(-math.pi / 2 + 1e-9, math.pi / 2 - 1e-9))


@SETTINGS
@given(HALF_PLANE)
def test_spectral_roots_hold_their_invariants_over_the_half_plane(t):
    # the small root was 2 + mu - 2 sqrt(1 - t^2 + mu), which cancels as |t|
    # grows: real t from 5.75 up raised InvariantViolation
    r = spectral_roots(t)  # raises unless both relative checks pass
    assert abs(r.xi1) < 1.0 and abs(r.xi2) < 1.0
    for xi, two_h in ((r.xi1, 4 + 2 * r.mu), (r.xi2, 4 - 2 * r.mu)):
        assert abs(xi + 1 / xi - two_h) <= 1e-12 * abs(two_h)


@SETTINGS
@given(box(0.3, 3.0, 2.0), SEPARATIONS)
def test_conjugate_parameter_gives_conjugate_correlation(t, n):
    value = correlation_finite(DimerParams(t), n)
    mirrored = correlation_finite(DimerParams(t.conjugate()), n)
    assert abs(mirrored - value.conjugate()) <= 1e-12 * abs(value)


@SETTINGS
@given(st.floats(0.3, 3.0), SEPARATIONS)
def test_correlation_is_real_for_real_parameter(t, n):
    value = correlation_finite(DimerParams(t), n)
    assert value.imag == 0.0
    assert value.real > 0.0


@SETTINGS
@given(box(0.3, 3.0, 2.0))
def test_p32_agrees_with_closed_form_limit(t):
    value = correlation_finite(DimerParams(t), 32)
    limit = correlation_limit(t)
    assert abs(value - limit) <= max(1e-8, math.exp(-64 * t.real)) * abs(limit)


@SETTINGS
@given(box(0.01, 3.0, 2.0), SEPARATIONS)
def test_value_or_typed_error(t, n):
    try:
        value = correlation_finite(DimerParams(t), n)
    except DimerdetError:
        return
    assert np.isfinite(value) and value != 0


@SETTINGS
@given(box(0.01, 3.0, 2.0), SEPARATIONS)
def test_value_without_error_down_to_re_t_one_hundredth(t, n):
    # the doubling rule resolves the e+ and d tables within its cap here
    value = correlation_finite(DimerParams(t), n)
    assert np.isfinite(value) and value != 0


def _p_or_singular(value):
    """``value()``, or None where it raises SingularDeterminant."""
    try:
        return value()
    except SingularDeterminant:
        return None


@SETTINGS
@given(st.floats(0.0015, 3.0), st.integers(1, 96))
@example(0.0015, 512)
@example(0.6, 512)
@example(3.0, 512)
@example(1e15, 8).via("a section the pivot test flags singular")
def test_real_t_one_lu_matches_the_two_lu_fold(t, n):
    # for real t the scan factors B + CE only, from tables projected onto
    # real e+ and imaginary d; the two-LU fold of the unprojected tables
    # agrees, and so does the pivot test
    e_tab, d_tab = _scalar_tables(complex(t), n)
    for stray, coeffs in ((e_tab.coeffs.imag, e_tab.coeffs), (d_tab.coeffs.real, d_tab.coeffs)):
        assert np.max(np.abs(stray)) <= 1e-15 * np.max(np.abs(coeffs))
    one = _p_or_singular(lambda: correlation_finite(DimerParams(t), n))
    two = _p_or_singular(lambda: 0.5 * np.sqrt(
        folded_log_determinant(theta_section(complex(t), n, e_tab, d_tab)).value))
    assert (one is None) == (two is None)
    if one is not None:
        assert one.imag == 0.0
        assert abs(one - two) <= 1e-13 * abs(two)


@SETTINGS
@given(st.floats(0.0015, 1.0), st.integers(1, 96))
@example(0.0015, 96)
@example(1.0, 96)
def test_continuation_identity_checks_the_determinant_p_is_taken_from(t, n):
    # verify's continuation row compares M_n with the section determinant
    # of the route every P(n) takes: at real t one LU of projected tables
    dets, route = [], continuation._section_dets

    def recorded(*args):
        out = route(*args)
        dets.extend(out)
        return out

    with mock.patch.object(continuation, "_section_dets", recorded):
        assert theta_decomposition(t, n).identity_residual <= 1e-9
    det, = dets
    p = correlation_finite(DimerParams(t), n)
    assert abs(det - (2 * p) ** 2) <= 1e-14 * abs(det)


#: the unit disk's right half from Re t = 0.02; near 0.02 + 1i the torus
#: grid of dimer_matrix does not settle by MAX_QUAD_GRID (1.9e-10 moved at
#: 4096), and there it raises QuadratureUnconverged
UNIT_HALF_DISK = box(0.02, 1.0, 1.0).filter(lambda t: abs(t) <= 1.0)


@SETTINGS
@given(UNIT_HALF_DISK, st.integers(1, 32))
def test_m_n_on_the_sampled_tables_is_b_hat_conjugated_by_s_n(t, n):
    # M_n = S_n b_hat S_n^T, S_n = diag(I, (-1)^[n/2] E), exactly where d is
    # odd; the sampled d is odd to rounding, and M_n read 5.6e-16 of
    # max|b_hat| off at most over 49 pairs (t, n), n <= 32
    tables = _scalar_tables(t, n)
    reference = flip_conjugate(b_hat(t, n, tables), n)
    reference[:n, n:] *= (-1) ** (n // 2)
    reference[n:, :n] *= (-1) ** (n // 2)
    got = _m_n(t, n, *tables)
    assert np.max(np.abs(got - reference)) <= 1e-15 * np.max(np.abs(reference))


@SETTINGS
@given(UNIT_HALF_DISK, st.integers(1, 32))
def test_dimer_matrix_is_the_paper_entry_formula(t, n):
    # the one builder against R_k and Q_k placed by the paper's floor signs;
    # they differ where the torus's even d_k, zero up to rounding, meet
    # opposite signs
    tables = _reference_or_error(lambda: torus_tables(t, n + 1))
    if isinstance(tables, QuadratureUnconverged):
        with pytest.raises(QuadratureUnconverged):
            dimer_matrix(DimerParams(t), n)
        return
    got = dimer_matrix(DimerParams(t), n)
    assert np.max(np.abs(got - literal_dimer_matrix(t, n, *tables))) <= 1e-15 * np.max(np.abs(got))


#: below Re t = 0.01, the reach of the top-band check at the cap grid 32768:
#: every real t from 0.0015 (it fails from 0.0014 down), and every
#: |Im t| <= 2 from Re t = 0.002 (near Im t = 0.7 it fails from about 0.0019
#: down; measured on a grid of 81 Im t)
SMALL_RE_T = st.one_of(st.floats(0.0015, 0.01).map(complex), box(0.002, 0.01, 2.0))


@settings(deadline=None, max_examples=25)
@given(SMALL_RE_T, st.sampled_from([8, 16, 32, 64]))
@example(0.00214298 + 0j, 32).via("a seed-1 plane-scan item the edge rule refused")
def test_small_re_t_matches_tables_on_four_times_the_grid(t, n):
    value = correlation_finite(DimerParams(t), n)
    order = _scalar_tables(t, n)[0].order
    tables = [fft_table(as_1x1(sym), 4 * table_grid(order), order)
              for sym in (e_plus_symbol(t), symbol_d(t))]
    det = folded_log_determinant(theta_section(t, n, *tables)).value
    # P(n) is half the square root of det: agreement of P to 1e-12 is
    # agreement of 4 P^2 to 2e-12, whichever root each side took
    assert np.isfinite(value) and abs(4 * value ** 2 - det) <= 2e-12 * abs(det)


def _roots_reference(mp, t: complex) -> tuple[complex, complex, complex]:
    """1 - xi_2, the prefactor and Lambda to 50 digits, from the small roots
    of xi^2 - 2h xi + 1, h = 2 +- sqrt(1 - 4t^2)."""
    with mp.workdps(50):
        t = mp.mpc(t)
        mu = mp.sqrt(1 - 4 * t * t)
        x1, x2 = ((h - mp.sqrt(h * h - 1) if abs(h - mp.sqrt(h * h - 1)) < 1
                   else h + mp.sqrt(h * h - 1)) for h in (2 + mu, 2 - mu))
        omega = (1 - t * t * x1) * (1 - t * t * x2)
        pre = (1 - x1 ** 2) * (1 - x2 ** 2) * (1 - x1 * x2) ** 2 * omega
        beta = 4 * x1 * x2 / (1 - x1 * x2)
        lam = -8 * beta ** 2 / (mp.sqrt(omega) * (1 + x1) * (1 + x2))
        return complex(1 - x2), complex(pre), complex(lam)


@SETTINGS
@given(st.one_of(st.floats(1e-8, 0.05).map(complex), box(1e-6, 0.05, 2.0)))
@example(0.003 + 0j)
@example(1e-8 + 0j)
@example(1e-6 - 2j)
@example(1e-6 + 1.41421356j)
@example(1.1e-5 + 1.41421j)
def test_closed_forms_keep_their_accuracy_as_t_nears_zero(t):
    # 1 - xi_2 nears 2t as t -> 0: formed as a difference it lost 9.7e-12
    # relative at t = 1e-3 and 4.4e-5 at 1e-6, and lambda_value raised
    # InvariantViolation from t = 0.003 down.  Near t = +-i sqrt 2, where
    # xi_2 = -1 meets the circle, 1 + xi_2 comes from 2 + t^2 with an
    # error-free square: with fl(t * t) it lost 7.2e-11 relative at
    # 1e-6 + 1.41421356i and 2.6e-12 at 1.1e-5 + 1.41421i
    mp = pytest.importorskip("mpmath")
    for value, ref in zip((spectral_roots(t).one_minus_xi2, prefactor(t), lambda_value(t)),
                          _roots_reference(mp, t)):
        assert abs(value - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("n", [8, 512])
def test_tail_not_resolved_past_the_reach(n):
    with pytest.raises(TailNotResolved, match="MAX_GRID = 32768"):
        correlation_finite(DimerParams(1e-6), n)


#: |t| = 1 with Re t >= 0.05 puts the removable point e^{-ix} = t of e+ on
#: the circle: at a grid angle for x = -2 pi j / 1024 (t = 1 at x = 0), or
#: between grid angles
ON_UNIT_CIRCLE = st.one_of(
    st.integers(-247, 247).map(lambda j: cmath.exp(2j * math.pi * j / 1024)),
    st.floats(-math.acos(0.05), math.acos(0.05)).map(lambda a: cmath.exp(1j * a)))


@SETTINGS
@given(st.one_of(box(0.05, 3.0, 2.0).filter(lambda t: t.real > 0.05), ON_UNIT_CIRCLE))
def test_joint_tables_match_the_entries_sampled_alone(t):
    # the e+/d pair is sampled by one evaluator; each entry sampled alone on
    # the final grid gives d bit for bit and e+ to 1e-15
    e_tab, d_tab = _scalar_tables(t, 32)
    grid, order = table_grid(e_tab.order), e_tab.order
    alone = [fft_table(as_1x1(sym), grid, order) for sym in (e_plus_symbol(t), symbol_d(t))]
    assert d_tab.order == order
    assert np.array_equal(d_tab.coeffs, alone[1].coeffs)
    assert np.max(np.abs(e_tab.coeffs - alone[0].coeffs)) <= 1e-15


#: angles from -arg t, the removable point e^{-ix} = t where |t| = 1: 1e-9 to
#: 1e-3 away, on either side
NEAR_OFFSETS = st.lists(st.builds(lambda e, side: side * 10.0 ** e, st.floats(-9.0, -3.0),
                                  st.sampled_from([-1.0, 1.0])), min_size=1, max_size=8)


def _e_plus_reference(mp, t: complex, x: float) -> complex:
    """c - 1/(e^{-ix} - t) to 40 digits at the angle x, and its limit 0
    where e^{-ix} = t exactly (t = 1, x = 0)."""
    with mp.workdps(40):
        t, x = mp.mpc(t), mp.mpf(x)
        ez, s = mp.exp(-1j * x), mp.sin(x)
        if ez == t:
            return 0j
        w = mp.sqrt(t * t + s ** 2 + s ** 4)
        return complex((t * mp.cos(x) + s ** 2) / ((ez - t) * w) - 1 / (ez - t))


@SETTINGS
@given(st.one_of(box(0.05, 3.0, 2.0).filter(lambda t: t.real > 0.05), ON_UNIT_CIRCLE),
       NEAR_OFFSETS)
@example(1 + 0j, [1e-9, -1e-3])
@example(2 + 5e-324j, [-1e-3]).via("cmath.phase overflows on a subnormal Im t")
def test_e_plus_matches_a_forty_digit_reference(t, offsets):
    # no cancellation and no vanishing denominator, next to e^{-ix} = t too;
    # the weight is summed in double precision, and d shares it bit for bit:
    # near a zero of t^2 + sin^2 x + sin^4 x its rounding grows by kappa
    # (25 at t = 0.0502 - 1.259i, where it moves e+ by 2.2e-15 of max|e+|)
    mp = pytest.importorskip("mpmath")
    x = np.concatenate([_grid(64), -math.atan2(t.imag, t.real) + np.array(offsets)])
    ref = np.array([_e_plus_reference(mp, t, angle) for angle in x])
    s2 = np.sin(x) ** 2
    kappa = np.max((abs(t) ** 2 + s2 + s2 * s2) / np.abs(t * t + s2 + s2 * s2))
    err = np.max(np.abs(e_plus_d(t)(x)[:, 0] - ref))
    assert err <= 1e-15 * kappa * max(1.0, np.max(np.abs(ref)))


def _b_reference(mp, t: float, x: float) -> tuple[complex, complex, complex]:
    """b = w/Delta, sinh(w)/Delta and Delta of the exponential representation
    to 40 digits at the angle x, straight from their definition
    w = log(alpha / (W sqrt g)); below |x| = 1e-25, where 60 digits do not
    resolve w, and at x = 0, where Delta = 0, at x = 1e-25, as both quotients
    are even and smooth in x."""
    with mp.workdps(60):
        t, x = mp.mpf(t), mp.mpf(x if abs(x) >= 1e-25 else 1e-25)
        s, c = mp.sin(x), mp.cos(x)
        big_a, g = t * c + s ** 2, 1 - 2 * t * c + t * t
        delta = 1j * s * mp.sqrt(g * g + big_a * big_a)
        w = mp.log((-big_a * (t - c) - delta) / (mp.sqrt((t * t + s ** 2 + s ** 4) * g)))
        return complex(w / delta), complex(mp.sinh(w) / delta), complex(delta)


@SETTINGS
@given(st.floats(0.05, 0.999), st.lists(st.floats(-math.pi, math.pi), max_size=8))
@example(0.999, [1e-9])
@example(0.5, [2.2250738585e-313])
def test_exp_representation_b_matches_a_forty_digit_reference(t, angles):
    # b and the sinh(w)/Delta the reconstruction reads, b sinhc(b Delta), in
    # closed form: x = 0 and pi included, where a 4-point extrapolation used
    # to fill both (b was off by 2.5e-2 of max|b| at t = 0.999)
    mp = pytest.importorskip("mpmath")
    x = np.concatenate([_grid(64), [0.0, np.pi], angles])
    b_ref, ratio_ref, delta = np.array([_b_reference(mp, t, angle) for angle in x]).T
    b = exp_representation(DimerParams(t)).b(x)
    ratio = b * _sinhc(b * delta)
    for value, ref in ((b, b_ref), (ratio, ratio_ref)):
        assert np.max(np.abs(value - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))


@SETTINGS
@given(st.floats(0.9, 1.0 - 1e-6))
@example(0.999)
@example(1.0 - 1e-6)
def test_exp_rep_passes_up_to_t_near_one(t):
    # 1 - 2t cos x + t^2 formed by cancellation failed the row from t = 0.999
    # on (residual 1.4e-8 there, 11.1 at 1 - 1e-6)
    report = run_verify(RunConfig(command="verify", t=complex(t), identity="exp-rep"))
    assert report["rows"][0]["status"] == "pass", report["rows"][0]


@SETTINGS
@given(st.one_of(box(0.05, 3.0, 3.0), box(0.05, 1.0, 1.0).filter(lambda t: abs(t) <= 1)),
       st.integers(1, 32))
@example(1 + 0j, 32)
@example(0.05 + 0.9987j, 32)
@example(0.05 + 3j, 1).via("kernel_symbols does not converge at MAX_QUAD_GRID")
def test_torus_rows_hold_on_the_half_plane(t, n):
    # both torus rows once refused every t off (0, 1), though the kernels'
    # closed forms e+/2 and d/2 and det M_n = det theta_section hold on the
    # whole half-plane; for |t| > 1 M_n's band t^(j-k-1) limits n (see
    # test_cli.py's test_dimer_toeplitz_is_limited_by_the_band_of_m_n)
    def row(identity, n=None):
        return run_verify(RunConfig(command="verify", t=t, identity=identity, n=n))["rows"][0]

    closed = row("kernel-closed-forms")
    if closed["status"] == "error":
        assert closed["error"]["type"] == "QuadratureUnconverged", closed
    else:
        assert closed["residual"] <= 1e-12, closed
    if abs(t) <= 1:
        torus = row("dimer-toeplitz", n)
        assert torus["status"] == "pass" and torus["residual"] <= 1e-12, torus


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2 ** 63 - 1))
@example(143117141700)
def test_scalar_widom_matches_the_exact_constant_at_every_seed(seed):
    # Widom's banded formula against prod (1 - g d)^{-1}, 20 symbols a seed,
    # relative: absolute, it read 1.4e-14 at seed 143117141700, where
    # |E| = 4.3 and the pass is off by 3.2e-15 of it
    report = run_verify(RunConfig(command="verify", t=0.3 + 0j, identity="scalar-widom",
                                  seed=seed))
    assert report["rows"][0]["residual"] <= 1e-14, report["rows"][0]


@SETTINGS
@given(st.lists(st.integers(0, 3), min_size=1, max_size=6), st.sampled_from([1, 2]),
       st.integers(0, 2), st.integers(0, 2 ** 32 - 1))
def test_stacked_toeplitz_determinants_are_the_per_matrix_ones(bands, block, extra, seed):
    # random complex coefficients, so the pivots swap rows; over 20000
    # such stacks the two routes differed by at most 4.6e-15 relative
    # (section condition numbers up to about 110)
    rng = np.random.default_rng(seed)
    order = max(bands) - 1 + extra if max(bands) else extra
    shape = (2 * order + 1, len(bands), block, block)
    coeffs = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
    got = toeplitz_determinants(coeffs, bands)
    for value, expected in zip(got, section_determinants(coeffs, bands)):
        assert abs(value - expected) <= 1e-14 * abs(expected)


@SETTINGS
@given(st.integers(0, 400), st.sampled_from([1, 2]), st.integers(1, 4),
       st.sampled_from([256, 512, 1024]), st.integers(0, 2 ** 32 - 1))
def test_series_is_the_horner_pass(order, block, size, grid, seed):
    # the basis product against Horner's rule; past order 31 the angles of
    # grid 256 take more than one block of the basis.  Over 3000 stacks with
    # decaying coefficients the two differed by at most 3.3e-16 (K + 1) of
    # the largest sum of |c_k|
    rng = np.random.default_rng(seed)
    shape = (2 * order + 1, size, block, block)
    coeffs = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
    coeffs *= rng.uniform(0.1, 1.0) ** np.abs(np.arange(-order, order + 1))[:, None, None, None]
    x = _grid(grid)
    scale = np.abs(coeffs).sum(axis=0).max()
    assert np.max(np.abs(_series(coeffs)(x) - horner_series(coeffs)(x))) <= (
        1e-15 * (order + 1) * scale)


@SETTINGS
@given(st.lists(st.tuples(st.integers(-3, 3), st.floats(0.0, 10.0), st.integers(1, 5),
                          st.floats(0.0, 2 * math.pi), st.floats(-2.0, 2.0)),
                min_size=1, max_size=4),
       st.sampled_from([256, 512, 1024, 2048]))
def test_logdet_mean_keeps_np_unwraps_rule(symbols, grid):
    # det = e^{b cos x} e^{i (w x + a sin(k x + p))}, winding w: a step moves
    # by whole turns as np.unwrap moves it, but by exact multiples of 2 pi;
    # over 20000 families the two differed by at most 5.3e-15 of
    # max(1, |value|), the rounding np.unwrap's corrections accumulate
    w, a, k, p, b = map(np.array, zip(*symbols))
    x = _grid(grid)
    d = np.exp(b * np.cos(x)[:, None] + 1j * (np.multiply.outer(x, w)
                                              + a * np.sin(np.multiply.outer(x, k) + p)))
    got, expected = _logdet_mean(_log_dets(d), grid), unwrap_logdet_mean(d, grid)
    assert np.all(got[1] == 2.0 * np.pi * w)
    assert np.all(np.abs(got - expected) <= 2e-14 * np.maximum(1.0, np.abs(expected)))


@SETTINGS
@given(st.floats(0.01, 0.99),
       st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=64))
def test_symbol_phi_is_sigma_times_psi(t, angles):
    # the dimer symbol is sigma psi entry by entry, diagonal included, to
    # 1e-14 relative: both sides form 1 - 2t cos x + t^2 without cancellation
    x = np.array(angles)
    params = DimerParams(t)
    product = _sigma(t, x)[:, None, None] * symbol_psi(params).sample(x)
    err = np.abs(symbol_phi(params).sample(x) - product).max(axis=(1, 2))
    assert np.all(err <= 1e-14 * np.abs(product).max(axis=(1, 2)))


@st.composite
def tables(draw):
    n, order = draw(st.sampled_from([1, 2])), draw(st.integers(0, 40))
    parts = draw(st.lists(st.floats(-1e3, 1e3), min_size=2 * (2 * order + 1) * n * n,
                          max_size=2 * (2 * order + 1) * n * n))
    re, im = np.reshape(parts, (2, 2 * order + 1, n, n))
    return FourierTable(re + 1j * im)


@SETTINGS
@given(tables(), st.integers(1, 100), st.integers(0, 10), st.booleans())
def test_sections_equal_the_block_gather(tab, m, shift, reflected):
    # windows inside the order are views of the table, windows past it on
    # either side are zero-padded; both equal the block-by-block gather
    assert np.array_equal(toeplitz_section(tab, m, reflected),
                          assemble(tab, toeplitz_index(m, reflected)))
    assert np.array_equal(hankel_section(tab, m, shift, reflected),
                          assemble(tab, hankel_index(m, shift, reflected)))


@SETTINGS
@given(tables(), st.integers(1, 100), st.integers(0, 10), st.booleans(), st.data())
def test_cut_sections_are_the_first_rows(tab, m, shift, reflected, data):
    # a window of fewer rows, a block row cut when the count is odd, is the
    # first rows of the square section, in its own Fortran-ordered buffer
    rows = data.draw(st.integers(1, m * tab.block_size))
    sign = -1 if reflected else 1
    for section, square in ((_section(tab, m, -(m - 1), sign, True, rows),
                             toeplitz_section(tab, m, reflected)),
                            (_section(tab, m, 1 + shift, sign, False, rows),
                             hankel_section(tab, m, shift, reflected))):
        assert section.flags.f_contiguous
        assert np.array_equal(section, square[:rows])


@SETTINGS
@given(box(0.05, 3.0, 3.0), st.integers(1, 96))
def test_folded_determinant_matches_the_dense_section(t, n):
    # the whole section is centrosymmetric bit for bit, and the two n x n
    # LUs of the fold give the determinant of its 2n x 2n LU
    tables = _scalar_tables(t, n)
    dense = theta_section_dense(t, n, *tables)
    assert np.array_equal(dense[::-1, ::-1], dense)
    folded = folded_log_determinant(theta_section(t, n, *tables)).value
    full = log_determinant(dense).value
    assert abs(folded - full) <= 1e-12 * abs(full)


@SETTINGS
@given(st.floats(0.01, 0.99), st.integers(1, 48))
def test_operator_det_at_real_t_is_the_complex_products(t, m):
    # phi's and phi^{-1}'s tables are real after diag(1, i) to within
    # STRAY_TOL (at most 6.7e-15 of max|c| at t = 0.99, 1.7e-16 below 0.3), so
    # these t take the float64 route, and it gives the complex determinant
    # (within 7.1e-15 on a grid of 25 t and 7 m, the worst at t = 0.99); phi's
    # stray part grows as t -> 1, 3.4e-14 at t = 0.998, where the product
    # stays complex
    phi = symbol_phi(DimerParams(t))
    tab, tab_inv = fourier_coefficients(phi), fourier_coefficients(pointwise_inverse(phi))
    assert _checkerboard_real(tab) is not None and _checkerboard_real(tab_inv) is not None
    reference = complex_operator_det(tab, tab_inv, m)
    assert abs(_operator_det(tab, tab_inv, m) - reference) <= 1e-13 * abs(reference)


#: |c| <= 0.98 with any phase: winding number zero, tables within MAX_ORDER
PLANTED = st.builds(cmath.rect, st.floats(0.0, 0.98), st.floats(-math.pi, math.pi))


@settings(deadline=None, max_examples=40)
@given(PLANTED, PLANTED, PLANTED)
@example(0.98, 0.98, 0.3)
@example(0.3, 0.3, 0.98)
def test_e_operator_of_a_planted_symbol_is_within_tol(alpha, beta, gamma):
    # wherever the one-sided tail estimate resolves, the truncated determinant
    # is within tol of the exact constant (worst 0.11 tol over 400 draws,
    # which resolved 399 times)
    sym, exact = planted_symbol(alpha, beta, gamma)
    try:
        e_op = szego_E_operator(sym)
    except TailNotResolved:
        return
    assert abs(e_op - exact) <= 1e-10


@settings(deadline=None, max_examples=25)
@given(st.floats(0.06, 0.998))
@example(0.06)
@example(0.998)
def test_e_operator_of_phi_resolves_up_to_near_one(t):
    # phi's 1/g is slow as t -> 1 but phi^{-1} stays smooth, so the order
    # stays near 30 there (33 at t = 0.998); below about t = 0.053 both sides
    # are slow and MAX_OP_ORDER is reached
    e_op = szego_E_operator(symbol_phi(DimerParams(t)))
    assert abs(e_op - e_phi(t)) <= 1e-10


@SETTINGS
@given(st.floats(0.06, 0.99), st.integers(1, 96))
def test_operator_det_at_real_t_is_numpys_product_bit_for_bit(t, m):
    # scipy's dgemm on the float64 route gives the bits numpy's @ gives
    phi = symbol_phi(DimerParams(t))
    tab, tab_inv = fourier_coefficients(phi), fourier_coefficients(pointwise_inverse(phi))
    assert _operator_det(tab, tab_inv, m) == numpy_operator_det(tab, tab_inv, m)


@settings(deadline=None, max_examples=40)
@given(PLANTED, PLANTED, PLANTED)
def test_operator_det_of_a_planted_symbol_is_numpys_product(alpha, beta, gamma):
    # the complex route, at the order szego_E_operator picks: zgemm against
    # numpy's @ (bit for bit over 150 draws, m up to 304).  At fixed
    # orders up to about 21 the two zgemms can round apart, and the LU of a
    # slow symbol's section amplified that to 3.5e-15 relative at m = 7
    calls = []
    with mock.patch.object(szego, "_operator_det",
                           lambda *args: calls.append(args) or _operator_det(*args)):
        try:
            e_op = szego_E_operator(planted_symbol(alpha, beta, gamma)[0])
        except TailNotResolved:
            return
    reference = numpy_operator_det(*calls[0])
    assert abs(e_op - reference) <= 1e-15 * abs(reference)


@SETTINGS
@given(st.one_of(st.floats(0.02, 0.98).map(complex), box(0.05, 3.0, 2.0)),
       st.sampled_from([64, 128, 256, 512, 1024, 2048]))
def test_y_means_are_numpys_products(t, grid):
    # the grid/2 + 1 rows x in [0, pi] the torus sums take; from grid 256 up
    # the last 128-row block holds one row, where numpy's @ takes its gemv
    # path: that row's means moved by up to 2.7e-15 of the largest mean over
    # 1500 draws (at grid 2048), every other row not at all
    x = 2.0 * np.pi * np.arange(grid // 2 + 1) / grid
    t = t.real if t.imag == 0 else t
    reference = numpy_y_means(t, x, grid)
    assert np.max(np.abs(_y_means(t, x, grid) - reference)) <= 4e-15 * np.max(np.abs(reference))


def _reference_or_error(run):
    """run()'s value, or the QuadratureUnconverged it raises."""
    try:
        return run()
    except QuadratureUnconverged as exc:
        return exc


@settings(deadline=None, max_examples=25)
@given(st.one_of(st.floats(0.02, 0.98).map(complex), box(0.05, 3.0, 2.0)),
       st.sampled_from([64, 128, 256, 512, 1024, 2048]), st.integers(1, 16),
       st.floats(0.01, 0.19))
@example(0.05078125 + 1.5625j, 64, 13, 0.1).via("R_k 1.23e-15 off, 8.4e-16 of the sums' scale")
def test_folded_torus_matches_the_full_grid_sums(t, grid, n, shift):
    # the torus rows x in [0, pi] over half a y period, unfolded, against
    # the full grid x grid sums with one sine per point
    seen = []
    real = dimer._kernel_sums
    ks = np.arange(-n, n + 2)
    with mock.patch.object(dimer, "_kernel_sums", lambda *a: seen.append(real(*a)) or seen[-1]):
        coefficients = torus_coefficients(t, ks, grid)
    reference = full_grid_kernel_sums(t, 2.0 * np.pi * np.arange(grid) / grid - np.pi, grid)
    # sin(x+y) from per-axis arrays rounds to about 2 ulp against the
    # sine's half ulp; near the zeros of den (Re t = 0.05, |Im t| about
    # 1.8, grids 64 and 128) that moves the kernels by up to 1.9e-14 of
    # their largest value, where the full-grid sums are 4e-15 off long
    # double sums and the folded ones 1.7e-14; on the real axis 1.3e-15
    tol = 1e-14 if t.imag == 0 else 3e-14
    scale = np.abs(reference).max(axis=1, keepdims=True)
    assert np.all(np.abs(seen[0] - reference) <= tol * scale)
    # R_k and Q_k are means of the two kernels over the grid, so off the axis
    # their bound is the kernels': at 0.05078125+1.5625i, grid 64, R_k read
    # 1.23e-15 off, 8.4e-16 of the kernel scale 1.46 (over 1500 other draws
    # off the axis at most 4e-16 of it); on the real axis 1e-15 holds
    coef_tol = 1e-15 if t.imag == 0 else tol * scale
    assert np.all(np.abs(coefficients - full_grid_coefficients(t, ks, grid)) <= coef_tol)
    # dimer_matrix's tables: the same torus grid, the same R_k and Q_k
    start = 1 << (4 * (n + 1) + 3).bit_length()
    expected = _reference_or_error(lambda: _doubled(
        lambda g: full_grid_hats(t, n + 1, g), start, MAX_QUAD_GRID, QUAD_TOL,
        QuadratureUnconverged, "S+T and V", "MAX_QUAD_GRID"))
    grids, hats = [], dimer._torus_hats
    with mock.patch.object(dimer, "_torus_hats", lambda *a: grids.append(a[2]) or hats(*a)):
        got = _reference_or_error(lambda: torus_tables(t, n + 1))
    if isinstance(expected, QuadratureUnconverged):
        assert isinstance(got, QuadratureUnconverged)
    else:
        expected_grid = expected[1]
        assert grids[-1] == expected_grid
        assert np.all(np.abs(relabelled_r_q(*got, ks) - full_grid_coefficients(t, ks, expected_grid))
                      <= coef_tol)
    # kernel_symbols at 32 angles off every torus grid, on the whole half-plane
    x = np.linspace(-np.pi, np.pi, 32, endpoint=False) + shift
    expected = _reference_or_error(lambda: _doubled(
        lambda g: full_grid_kernel_sums(t, x, g), MIN_GRID, MAX_QUAD_GRID, QUAD_TOL,
        QuadratureUnconverged, "S+T and V", "MAX_QUAD_GRID")[0])
    got = _reference_or_error(lambda: kernel_symbols(DimerParams(t), x))
    if isinstance(expected, QuadratureUnconverged):
        assert isinstance(got, QuadratureUnconverged)
    else:
        assert np.all(np.abs(got - expected) <= 1e-14 * np.abs(expected).max(axis=1, keepdims=True))
