"""Test-only oracles: helpers the tests check the package against, kept out
of the package because no library route uses them."""

from __future__ import annotations

import numpy as np

from dimerdet import DimerParams, ParameterOutOfRange, ScalarSymbol
from dimerdet.dimer import _eta, _p, _q


def flip_conjugate(mat: np.ndarray, n: int) -> np.ndarray:
    """diag(I_n, W_n) . M . diag(I_n, W_n) with W_n the index reversal.

    Conjugation by the involution W_n turns the sum-index (Hankel-type)
    off-diagonal blocks of the dimer matrix into difference-index
    (Toeplitz-type) blocks without changing the determinant.
    """
    mat = np.asarray(mat)
    if mat.shape != (2 * n, 2 * n):
        raise ValueError(f"expected shape {(2 * n, 2 * n)}, got {mat.shape}")
    out = mat.copy()
    out[n:, :] = out[n:, :][::-1, :]
    out[:, n:] = out[:, n:][:, ::-1]
    return out


def symbol_a_b(params: DimerParams) -> tuple[ScalarSymbol, ScalarSymbol]:
    """The scalar entries a = eta*p and b = eta*q of psi^{-1}.

    ``a`` is the lower-right entry of psi^{-1} and ``b`` the lower-left one;
    their Fourier coefficients are the inputs to the finite-determinant
    constant algebra in :mod:`dimerdet.closed_form`.
    """
    if not params.is_real_unit_interval:
        raise ParameterOutOfRange(f"symbol_a_b requires real t in (0, 1), got {params.t}")
    t = params.t
    a = ScalarSymbol(lambda x: _eta(t, x) * _p(t, x))
    b = ScalarSymbol(lambda x: _eta(t, x) * _q(t, x))
    return a, b
