"""Exception types raised by the numerical routines.

Everything derives from :class:`DimerdetError` so callers can trap the
library's numerical failures separately from programming errors
(``ValueError``/``TypeError`` are reserved for misuse of the API).  The
check of the model parameter lives here too, below every module that reads it.
"""

import cmath


class DimerdetError(Exception):
    """Base class for numerical failures in this package."""


class ParameterOutOfRange(DimerdetError):
    """A model parameter lies outside its admissible region."""


def half_plane_t(t) -> complex:
    """``t`` as a complex number, if Re(t) > 0 and t^2 is finite (so is t);
    else ParameterOutOfRange.  Every closed form reads t^2, and from
    |t| of about 1.3e154 it overflows."""
    t = complex(t)
    if not (t.real > 0 and cmath.isfinite(t * t)):
        raise ParameterOutOfRange(f"t must have Re(t) > 0 and a finite t^2, got {t}")
    return t


class SampleFailure(DimerdetError):
    """A symbol evaluator returned non-finite values."""


class TailNotResolved(DimerdetError):
    """Fourier/series tail exceeds the configured tolerance."""


class TruncationTooShort(DimerdetError):
    """A matrix section asks for coefficients beyond the table order."""


class SingularSymbol(DimerdetError):
    """det of a symbol vanishes (numerically) on the sampling grid."""


class NonzeroWinding(DimerdetError):
    """arg det of a symbol winds around the origin."""


class QuadratureUnconverged(DimerdetError):
    """Doubling the quadrature grid moved the result too much."""


class SingularDeterminant(DimerdetError):
    """A determinant needed downstream was flagged singular."""


class NotBanded(DimerdetError):
    """A symbol required to be one-sided banded is not."""


class TruncatedOperatorSingular(DimerdetError):
    """LU of a truncated semi-infinite operator hit the pivot threshold."""


class InvariantViolation(DimerdetError):
    """A self-check identity failed beyond its tolerance."""


class PoleInput(DimerdetError):
    """An argument coincides with a pole of a rational helper."""


class BranchFailure(DimerdetError):
    """A required branch normalization could not be established."""


class DecompositionMismatch(DimerdetError):
    """Two independent constructions of the same determinant disagree."""
