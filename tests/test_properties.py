"""Property tests for the finite correlation over the half-plane Re(t) > 0."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from dimerdet import DimerdetError, DimerParams, correlation_finite, correlation_limit

SETTINGS = settings(deadline=None, max_examples=50)

SEPARATIONS = st.sampled_from([1, 2, 4, 8, 16, 32])


def box(re_min, re_max, im_max):
    return st.builds(complex, st.floats(re_min, re_max), st.floats(-im_max, im_max))


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
