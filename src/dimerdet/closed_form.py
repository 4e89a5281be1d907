"""Exact-formula engine: spectral roots, coefficient algebra, and the limit.

Everything here is closed-form arithmetic in the two roots xi_1, xi_2 of the
quartic factorization of ``t^2 + sin^2 x + sin^4 x``.  The final constant and
the correlation limit have forms that stay regular at the root-degenerate
point t = 1/2, so they are computed directly; the intermediate root-based
quantities refuse a small disk around that point instead of limping through
an ill-conditioned cancellation.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRoots, InvariantViolation, ParameterOutOfRange, PoleInput

#: half-width of the refusal disk around the degenerate point t = 1/2
DEGENERATE_RADIUS = 1e-3


@dataclass(frozen=True)
class SpectralRoots:
    """The bundle (mu, xi1, xi2) with a record of branch choices."""

    t: complex
    mu: complex
    xi1: complex
    xi2: complex
    branch_log: str

    @property
    def product(self) -> complex:
        return self.xi1 * self.xi2


@dataclass(frozen=True)
class CoefficientBundle:
    """Fourier coefficients of the inverse-symbol entries, in closed form."""

    a0: complex
    a1: complex
    am1: complex
    a2: complex
    am2: complex
    b1: complex
    b2: complex
    alpha: complex
    omega: complex


def spectral_roots(t: complex) -> SpectralRoots:
    """Roots xi_i with |xi_i| < 1 from the quartic factorization.

    mu = sqrt(1 - 4 t^2) and xi_1 = 2 + mu - 2 sqrt(1 - t^2 + mu),
    xi_2 = 2 - mu - 2 sqrt(1 - t^2 - mu), all principal square roots; if a
    principal choice lands outside the unit disk its reciprocal, the partner
    root, is taken instead and the swap recorded.  The defining invariants
    (xi_i + 1/xi_i = 4 +/- 2 mu, the factorization residual on the circle)
    are validated before returning.
    """
    t = complex(t)
    if not t.real > 0:
        raise ParameterOutOfRange(f"Re(t) must be positive, got {t}")
    mu = cmath.sqrt(1.0 - 4.0 * t * t)
    log = [f"mu principal sqrt -> {mu!r}"]
    xi1 = 2.0 + mu - 2.0 * cmath.sqrt(1.0 - t * t + mu)
    xi2 = 2.0 - mu - 2.0 * cmath.sqrt(1.0 - t * t - mu)
    if abs(xi1) >= 1.0:
        xi1 = 1.0 / xi1
        log.append("xi1 swapped to reciprocal root")
    if abs(xi2) >= 1.0:
        xi2 = 1.0 / xi2
        log.append("xi2 swapped to reciprocal root")
    roots = SpectralRoots(t, mu, xi1, xi2, "; ".join(log))
    if abs(xi1 - xi2) < 1e-8:
        raise DegenerateRoots(f"|xi1 - xi2| = {abs(xi1 - xi2):.2e} at t={t}")
    _validate_roots(roots)
    return roots


def _validate_roots(r: SpectralRoots) -> None:
    for name, xi, sign in (("xi1", r.xi1, 1.0), ("xi2", r.xi2, -1.0)):
        if abs(xi) >= 1.0:
            raise InvariantViolation(f"|{name}| = {abs(xi)} >= 1 at t={r.t}")
        res = abs(xi + 1.0 / xi - (4.0 + 2.0 * sign * r.mu))
        if res > 1e-12:
            raise InvariantViolation(f"{name} sum identity residual {res:.2e} at t={r.t}")
    y = np.exp(2j * np.pi * np.arange(16) / 16)
    lhs = y ** 2 - 8 * y + (14 + 16 * r.t ** 2) - 8 / y + y ** -2
    rhs = ((1 - r.xi1 * y) * (1 - r.xi2 * y) * (1 - r.xi1 / y) * (1 - r.xi2 / y)
           / (r.xi1 * r.xi2))
    res = float(np.max(np.abs(lhs - rhs)))
    if res > 1e-10:
        raise InvariantViolation(f"factorization residual {res:.2e} at t={r.t}")


def _refuse_degenerate(t: complex) -> None:
    if abs(t - 0.5) < DEGENERATE_RADIUS:
        raise DegenerateRoots(
            f"t={t} within {DEGENERATE_RADIUS} of the degenerate point 1/2; "
            "use e_phi/correlation_limit, which are regular there")


def kl_helpers(t: complex, x: complex) -> tuple[complex, complex]:
    """The rational helpers k(x) and l(x) = k(x) + 2/(1-x).

    l is evaluated both ways (single rational form and k + 2/(1-x)) and the
    identity asserted to 1e-12, which guards against transcription slips in
    the coefficient algebra.
    """
    t = complex(t)
    x = complex(x)
    for pole in (1.0, -1.0):
        if abs(x - pole) < 1e-12:
            raise PoleInput(f"x={x} at pole {pole}")
    if abs(1.0 - t * t * x) < 1e-12:
        raise PoleInput(f"x={x} at pole 1/t^2")
    k = (x * x - 4.0 * x - 1.0) / ((1.0 - t * t * x) * (1.0 - x * x))
    l_rational = (((1.0 - 2.0 * t * t) * x * x + (-2.0 - 2.0 * t * t) * x + 1.0)
                  / ((1.0 - t * t * x) * (1.0 - x * x)))
    l = k + 2.0 / (1.0 - x)
    if abs(l - l_rational) > 1e-12 * max(1.0, abs(l)):
        raise InvariantViolation(f"l(x) forms disagree by {abs(l - l_rational):.2e}")
    return k, l


def coefficient_bundle(t: complex) -> CoefficientBundle:
    """Closed-form Fourier coefficients a_0, a_{+-1}, a_{+-2}, b_1, b_2."""
    r = spectral_roots(t)
    t = r.t
    x1, x2 = r.xi1, r.xi2
    alpha = 4.0 * x1 * x2 / ((1.0 - x1 * x2) * (x1 - x2))
    omega = (1.0 - t * t * x1) * (1.0 - t * t * x2)
    k1, l1 = kl_helpers(t, x1)
    k2, l2 = kl_helpers(t, x2)
    return CoefficientBundle(
        a0=t * alpha * (x1 * k1 - x2 * k2),
        a1=alpha * (l1 - l2),
        am1=alpha * (x1 * l1 - x2 * l2),
        a2=t * alpha * (k1 - k2),
        am2=t * alpha * (x1 * x1 * k1 - x2 * x2 * k2),
        b1=-8j * x1 * x2 / ((1.0 + x1) * (1.0 + x2) * (1.0 - x1 * x2)),
        b2=0.0j,
        alpha=alpha,
        omega=omega,
    )


def lambda_long_form(t: complex) -> complex:
    """The constant as the explicit polynomial in the coefficient bundle."""
    _refuse_degenerate(complex(t))
    c = coefficient_bundle(t)
    a0, a1, am1, a2, am2, b1 = c.a0, c.a1, c.am1, c.a2, c.am2, c.b1
    return (a0 ** 3 - 2.0 * (a1 * am1 + b1 * b1) * a0 - a2 * am2 * a0
            + am2 * (a1 ** 2 - b1 ** 2) + a2 * (am1 ** 2 - b1 ** 2))


def lambda_value(t: complex) -> complex:
    """The 3x3-section constant Lambda; Lambda^2 = det T_3(psi^{-1}).

    Computed from the reduced closed form
    8 mu alpha^3 (xi1-xi2)^2 / (sqrt(omega) (1+xi1)(1+xi2)), with sqrt(omega)
    the principal branch (omega > 0 for real t in (0,1)); agreement with the
    long polynomial form is asserted to 1e-9.
    """
    t = complex(t)
    _refuse_degenerate(t)
    r = spectral_roots(t)
    c = coefficient_bundle(t)
    value = (8.0 * r.mu * c.alpha ** 3 * (r.xi1 - r.xi2) ** 2
             / (cmath.sqrt(c.omega) * (1.0 + r.xi1) * (1.0 + r.xi2)))
    long = lambda_long_form(t)
    if abs(value - long) > 1e-9 * max(1.0, abs(value)):
        raise InvariantViolation(
            f"Lambda forms disagree by {abs(value - long):.2e} at t={t}")
    return value


def prefactor(t: complex) -> complex:
    """(1-xi1^2)(1-xi2^2)(1-xi1 xi2)^2 (1-t^2 xi1)(1-t^2 xi2)."""
    r = spectral_roots(t)
    t = r.t
    return ((1.0 - r.xi1 ** 2) * (1.0 - r.xi2 ** 2) * (1.0 - r.xi1 * r.xi2) ** 2
            * (1.0 - t * t * r.xi1) * (1.0 - t * t * r.xi2))


def e_phi(t: complex) -> complex:
    """The determinant limit t / (2t(2+t^2) + (1+2t^2) sqrt(2+t^2)).

    Regular on the whole half-plane Re(t) > 0, including t = 1/2 and t = 1;
    sqrt is the principal branch (positive for real t).
    """
    t = complex(t)
    if not t.real > 0:
        raise ParameterOutOfRange(f"Re(t) must be positive, got {t}")
    s = cmath.sqrt(2.0 + t * t)
    return t / (2.0 * t * (2.0 + t * t) + (1.0 + 2.0 * t * t) * s)


def correlation_limit(t: complex) -> complex:
    """The monomer-monomer correlation limit, (1/2) sqrt(e_phi(t))."""
    return 0.5 * cmath.sqrt(e_phi(t))
