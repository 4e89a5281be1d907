"""Exact-formula engine: spectral roots, coefficient algebra, and the limit.

Everything here is closed-form arithmetic in the two roots xi_1, xi_2 of the
quartic factorization of ``t^2 + sin^2 x + sin^4 x``.  One formula holds on
the whole half-plane Re(t) > 0: each root is the small root of
``xi^2 - 2 h xi + 1``, taken as ``1/(h + r)`` without cancellation, and each
coefficient is a divided difference that never divides by ``xi_1 - xi_2``, so
the constants stay regular where the roots collide, at t = 1/2.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, PoleInput, half_plane_t


@dataclass(frozen=True)
class SpectralRoots:
    """The bundle (mu, xi1, xi2) with a record of branch choices, and the
    differences the closed forms read, each formed without cancellation:
    1 - xi_i, 1 + xi_i and omega = (1 - t^2 xi1)(1 - t^2 xi2)."""

    t: complex
    mu: complex
    xi1: complex
    xi2: complex
    one_minus_xi1: complex
    one_minus_xi2: complex
    one_plus_xi1: complex
    one_plus_xi2: complex
    omega: complex
    branch_log: str


@dataclass(frozen=True)
class CoefficientBundle:
    """Fourier coefficients of the inverse-symbol entries, in closed form,
    with the roots they come from and the factor beta of Lambda."""

    roots: SpectralRoots
    a0: complex
    a1: complex
    am1: complex
    a2: complex
    am2: complex
    b1: complex
    beta: complex


def _two_product(a: float, b: float) -> tuple[float, float]:
    """(p, e) with p = fl(a b) and p + e = a b exactly, by Veltkamp's split
    of each factor into halves of 26 bits (Dekker, Numer. Math. 18, 1971)."""
    def split(x):
        c = 134217729.0 * x  # 2^27 + 1
        hi = c - (c - x)
        return hi, x - hi
    p = a * b
    (ah, al), (bh, bl) = split(a), split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _two_plus_square(t: complex) -> complex:
    """2 + t^2 with its real part 2 + x^2 - y^2 (t = x + iy) summed from the
    error-free squares of :func:`_two_product`, so it keeps its relative
    accuracy where it nears 0, at t = +-i sqrt 2: there 2 - fl(y^2) is exact
    and the rounding of y^2 is added back."""
    x, y = t.real, t.imag
    px, ex = _two_product(x, x)
    py, ey = _two_product(y, y)
    return complex(((2.0 - py) + px) + (ex - ey), 2.0 * x * y)


def spectral_roots(t: complex) -> SpectralRoots:
    """Roots xi_i with |xi_i| < 1 from the quartic factorization.

    mu = sqrt(1 - 4 t^2), and xi_1, xi_2 are the small roots of
    xi + 1/xi = 2h with h = 2 + mu and h = 2 - mu: xi = 1/(h + r) with
    r = +/- 2 sqrt(1 - t^2 +/- mu), the sign of r the one that makes
    |h + r| larger (recorded in ``branch_log``), all square roots principal;
    no difference cancels (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sec. 1.8).  For xi_2, as Re mu >= 0, 1 - t^2 - mu is
    t^2 (3 - mu) / (1 + mu) and 1 - mu is 4t^2 / (1 + mu), so
    1 - xi = (h - 1 + r) / (h + r) keeps its relative accuracy where xi_2
    nears 1, as t -> 0; and 3 - mu is 4(2 + t^2) / (3 + mu), 2 + t^2 from
    :func:`_two_plus_square`, so 1 + xi_2 = (3 - mu + r) / (h + r) keeps it
    where xi_2 nears -1, as t nears +-i sqrt 2 (for xi_1, h + 1 = 3 + mu).
    Likewise 1 - t^2 xi = (a + r) / (h + r) with a = h - t^2, and where
    a + r is the smaller of a -+ r it is read off (a + r)(a - r) =
    (mu -+ t^2)^2: 1 - t^2 xi_2 nears 0 as t nears +-i sqrt(2 + sqrt 5).
    The defining invariants (xi_i + 1/xi_i = 4 +/- 2 mu, the factorization
    residual on the circle) are validated, relative to their size, before
    returning.
    """
    t = half_plane_t(t)
    tt = t * t
    mu = cmath.sqrt(1.0 - 4.0 * tt)
    log = [f"mu principal sqrt -> {mu!r}"]
    three_minus_mu = 4.0 * _two_plus_square(t) / (3.0 + mu)
    xis, one_minus, one_plus, omega = [], [], [], 1.0
    # each root's sign, h - 1, h + 1 and r^2 / 4, none formed by a difference
    for name, sign, h_minus_one, h_plus_one, radicand in (
            ("xi1", 1.0, 1.0 + mu, 3.0 + mu, 1.0 - tt + mu),
            ("xi2", -1.0, 4.0 * tt / (1.0 + mu), three_minus_mu,
             tt * (three_minus_mu / (1.0 + mu)))):
        h, r = 2.0 + sign * mu, 2.0 * cmath.sqrt(radicand)
        plus = abs(h + r) >= abs(h - r)
        r = r if plus else -r
        a = h - tt
        # (mu -+ t^2) / (a - r) first: its square overflows from |t| of about 1e127
        a_plus_r = (a + r if abs(a + r) >= abs(a - r)
                    else (mu - sign * tt) / (a - r) * (mu - sign * tt))
        xis.append(1.0 / (h + r))
        one_minus.append((h_minus_one + r) / (h + r))
        one_plus.append((h_plus_one + r) / (h + r))
        omega *= a_plus_r / (h + r)
        log.append(f"{name} = 1/(h {'+' if plus else '-'} r)")
    roots = SpectralRoots(t, mu, *xis, *one_minus, *one_plus, omega, "; ".join(log))
    _validate_roots(roots)
    return roots


def _validate_roots(r: SpectralRoots) -> None:
    # each test is written so that a NaN fails it
    for name, xi, sign in (("xi1", r.xi1, 1.0), ("xi2", r.xi2, -1.0)):
        if not abs(xi) < 1.0:
            raise InvariantViolation(f"|{name}| = {abs(xi)} >= 1 at t={r.t}")
        two_h = 4.0 + 2.0 * sign * r.mu
        res = abs(xi + 1.0 / xi - two_h) / abs(two_h)
        if not res <= 1e-12:
            raise InvariantViolation(f"{name} relative sum residual {res:.2e} at t={r.t}")
    y = np.exp(2j * np.pi * np.arange(16) / 16)
    lhs = y ** 2 - 8 * y + (14 + 16 * r.t ** 2) - 8 / y + y ** -2
    rhs = ((1 - r.xi1 * y) * (1 - r.xi2 * y) * (1 - r.xi1 / y) * (1 - r.xi2 / y)
           / (r.xi1 * r.xi2))
    res = float(np.max(np.abs(lhs - rhs))) / max(1.0, abs(16 * r.t ** 2))
    if not res <= 1e-10:
        raise InvariantViolation(f"relative factorization residual {res:.2e} at t={r.t}")


def _kl_polynomials(tt: complex) -> tuple[tuple, tuple, tuple]:
    """Power-basis coefficients, at t^2 = ``tt``, of the numerators of k and
    l and of their denominator (1 - t^2 x)(1 - x^2)."""
    return (-1.0, -4.0, 1.0), (1.0, -2.0 - 2.0 * tt, 1.0 - 2.0 * tt), (1.0, -tt, -1.0, tt)


def _power_sum(coeffs, x: complex) -> complex:
    return sum(c * x ** m for m, c in enumerate(coeffs))


def kl_helpers(t: complex, x: complex, one_minus_x: complex,
               one_plus_x: complex) -> tuple[complex, complex]:
    """The rational helpers k(x) and l(x) = k(x) + 2/(1-x), with 1 - x and
    1 + x given, so a root near 1 (xi_2 as t -> 0) or near -1 (xi_2 as t
    nears +-i sqrt 2) keeps its relative accuracy.

    l is evaluated both ways (single rational form and k + 2/(1-x)) and the
    identity asserted to 1e-12 relative to |k| + |2/(1-x)|, the scale of the
    rounding in the sum, which guards against transcription slips in the
    coefficient algebra.
    """
    t, x = complex(t), complex(x)
    one_minus_x, one_plus_x = complex(one_minus_x), complex(one_plus_x)
    for pole, gap in ((1.0, one_minus_x), (-1.0, one_plus_x)):
        if abs(gap) < 1e-12:
            raise PoleInput(f"x={x} at pole {pole}")
    if abs(1.0 - t * t * x) < 1e-12:
        raise PoleInput(f"x={x} at pole 1/t^2")
    k_num, l_num, _ = _kl_polynomials(t * t)
    den = (1.0 - t * t * x) * one_minus_x * one_plus_x
    k = _power_sum(k_num, x) / den
    pole_term = 2.0 / one_minus_x
    l = k + pole_term
    l_rational = _power_sum(l_num, x) / den
    if abs(l - l_rational) > 1e-12 * (abs(k) + abs(pole_term)):
        raise InvariantViolation(f"l(x) forms disagree by {abs(l - l_rational):.2e}")
    return k, l


def _divided_difference(num, den, x1: complex, x2: complex, f2: complex) -> complex:
    """(f(x1) - f(x2)) / (x1 - x2) for f = N/D, from the power-basis
    coefficients of N and D and f2 = f(x2): ([N] - f2 [D]) / D(x1), where
    [x^m] = sum_i x1^i x2^(m-1-i), so nothing divides by x1 - x2."""
    def dd(coeffs):
        return sum(c * sum(x1 ** i * x2 ** (m - 1 - i) for i in range(m))
                   for m, c in enumerate(coeffs))
    return (dd(num) - f2 * dd(den)) / _power_sum(den, x1)


def coefficient_bundle(t: complex) -> CoefficientBundle:
    """Closed-form Fourier coefficients a_0, a_{+-1}, a_{+-2}, b_1.

    Each a is beta = 4 xi1 xi2 / (1 - xi1 xi2) times the divided difference
    at the roots of x^j k(x) or x^j l(x), and b_1 = -2i beta / ((1+xi1)(1+xi2)).
    """
    r = spectral_roots(t)
    t = r.t
    x1, x2 = r.xi1, r.xi2
    tt = t * t
    beta = 4.0 * x1 * x2 / (1.0 - x1 * x2)
    k2, l2 = kl_helpers(t, x2, r.one_minus_xi2, r.one_plus_xi2)
    k_num, l_num, den = _kl_polynomials(tt)

    def dd(j, num, f2):  # beta [xi1, xi2] x^j N/D, with f2 = N/D at xi2
        return beta * _divided_difference((0.0,) * j + num, den, x1, x2, x2 ** j * f2)

    return CoefficientBundle(
        roots=r, a0=t * dd(1, k_num, k2), a1=dd(0, l_num, l2), am1=dd(1, l_num, l2),
        a2=t * dd(0, k_num, k2), am2=t * dd(2, k_num, k2),
        b1=-2j * beta / (r.one_plus_xi1 * r.one_plus_xi2), beta=beta)


def lambda_long_form(t: complex, bundle: CoefficientBundle | None = None) -> complex:
    """The constant as the explicit polynomial in the coefficient bundle
    (of ``t``, unless ``bundle`` is given)."""
    c = bundle or coefficient_bundle(t)
    a0, a1, am1, a2, am2, b1 = c.a0, c.a1, c.am1, c.a2, c.am2, c.b1
    return (a0 ** 3 - 2.0 * (a1 * am1 + b1 * b1) * a0 - a2 * am2 * a0
            + am2 * (a1 ** 2 - b1 ** 2) + a2 * (am1 ** 2 - b1 ** 2))


def lambda_value(t: complex) -> complex:
    """The 3x3-section constant Lambda; Lambda^2 = det T_3(psi^{-1}).

    Computed from the reduced closed form
    8 mu alpha^3 (xi1-xi2)^2 / (sqrt(omega) (1+xi1)(1+xi2)), with
    alpha = beta / (xi1 - xi2).  The sum identities give
    mu / (xi1 - xi2) = -1/beta, so the form is
    -8 beta^2 / (sqrt(omega) (1+xi1)(1+xi2)), regular at t = 1/2; sqrt(omega)
    is the principal branch (omega > 0 for real t in (0,1)).  Agreement with
    the long polynomial form is asserted to 1e-9.
    """
    t = complex(t)
    c = coefficient_bundle(t)
    r = c.roots
    value = -8.0 * c.beta ** 2 / (cmath.sqrt(r.omega) * r.one_plus_xi1 * r.one_plus_xi2)
    long = lambda_long_form(t, c)
    if abs(value - long) > 1e-9 * max(1.0, abs(value)):
        raise InvariantViolation(
            f"Lambda forms disagree by {abs(value - long):.2e} at t={t}")
    return value


def prefactor(t: complex) -> complex:
    """(1-xi1^2)(1-xi2^2)(1-xi1 xi2)^2 (1-t^2 xi1)(1-t^2 xi2), with each
    1 - xi_i^2 = (1 - xi_i)(1 + xi_i) and the last two factors, omega, from
    the sums and differences :func:`spectral_roots` forms without
    cancellation."""
    r = spectral_roots(t)
    return (r.one_minus_xi1 * r.one_plus_xi1 * r.one_minus_xi2 * r.one_plus_xi2
            * (1.0 - r.xi1 * r.xi2) ** 2 * r.omega)


def _inverted_limit(t: complex) -> tuple[complex, complex]:
    """(u, S) with u = 1/t and e_phi(t) = u^2 / S, for |t| > 1: the terms of
    e_phi divided by t^4, S = 2(1 + 2u^2) + (2 + u^2) sqrt(1 + 2u^2), where
    t^3 would overflow from |t| of about 6e102.  1 + 2u^2 is (2 + t^2) u^2,
    2 + t^2 from :func:`_two_plus_square`, so S keeps its accuracy near
    t = +-i sqrt 2.  For |t| > 1, u / sqrt(S) is the principal root of e_phi
    (at some |t| < 1 it is the other one)."""
    u = 1.0 / t
    w = _two_plus_square(t) * u * u
    return u, 2.0 * w + (2.0 + u * u) * cmath.sqrt(w)


def e_phi(t: complex) -> complex:
    """The determinant limit t / (2t(2+t^2) + (1+2t^2) sqrt(2+t^2)).

    Regular on the whole half-plane Re(t) > 0, including t = 1/2 and t = 1;
    sqrt is the principal branch (positive for real t).  For |t| > 1 it is
    taken in u = 1/t (:func:`_inverted_limit`).
    """
    t = half_plane_t(t)
    if abs(t) > 1.0:
        u, big_s = _inverted_limit(t)
        return u / big_s * u
    s = cmath.sqrt(2.0 + t * t)
    return t / (2.0 * t * (2.0 + t * t) + (1.0 + 2.0 * t * t) * s)


def correlation_limit(t: complex) -> complex:
    """The monomer-monomer correlation limit, (1/2) sqrt(e_phi(t)); for
    |t| > 1, (1/2) u / sqrt(S) of :func:`_inverted_limit`, which squares no
    u."""
    t = half_plane_t(t)
    if abs(t) > 1.0:
        u, big_s = _inverted_limit(t)
        return 0.5 * u / cmath.sqrt(big_s)
    return 0.5 * cmath.sqrt(e_phi(t))
