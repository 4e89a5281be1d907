#!/usr/bin/env python3
"""A tour of the determinant identities the limit computation rests on.

1. The dimer matrix and the block Toeplitz section have equal determinants.
2. The banded part of the symbol reduces its limit constant to a single
   3x3-block determinant, which collapses to the square of one scalar.
3. The one-step residual identity relates every finite section to the limit
   constant, with a correction factor that is exactly 1 once the section
   size passes the coefficient band.
"""

from dimerdet import (
    DimerParams,
    bocg_residual,
    dimer_matrix,
    fourier_coefficients,
    geometric_mean,
    lambda_value,
    log_determinant,
    psi_table,
    symbol_phi,
    symbol_psi,
    symbol_psi_inverse,
    toeplitz_section,
    widom_banded_E,
)

print("1. Dimer matrix vs block Toeplitz section (t = 0.5):")
params = DimerParams(0.5)
tab = fourier_coefficients(symbol_phi(params))
for n in (2, 4, 8):
    det_m = log_determinant(dimer_matrix(params, n)).value
    det_t = log_determinant(toeplitz_section(tab, n)).value
    print(f"   n = {n}:  det M_n = {det_m.real:.12f}   det T_n = {det_t.real:.12f}"
          f"   rel diff = {abs(det_m - det_t) / abs(det_t):.1e}")

print()
print("2. Banded-symbol reduction at t = 0.3:")
params = DimerParams(0.3)
psi_tab = psi_table(params)
inv_tab = fourier_coefficients(symbol_psi_inverse(params), order=256)
e_psi = widom_banded_E(psi_tab, 3)
g = geometric_mean(symbol_psi(params))
lam = lambda_value(0.3)
det3 = log_determinant(toeplitz_section(inv_tab, 3)).value
print(f"   E(psi)                 = {e_psi.real:.12f}")
print(f"   G(psi)^3 * det T_3     = {(g ** 3 * det3).real:.12f}")
print(f"   det T_3(psi^{{-1}})      = {det3.real:.12f}")
print(f"   Lambda^2               = {(lam ** 2).real:.12f}")

print()
print("3. One-step residual identity at t = 0.4 (band is 3):")
params = DimerParams(0.4)
psi_tab = psi_table(params)
inv_tab = fourier_coefficients(symbol_psi_inverse(params), order=256)
e_psi = widom_banded_E(psi_tab, 3)
g = geometric_mean(symbol_psi(params))
for n in (1, 2, 3, 5, 8):
    res = bocg_residual(psi_tab, n)
    det_n = log_determinant(toeplitz_section(inv_tab, n)).value
    predicted = e_psi / g ** n * res
    print(f"   n = {n}: residual = {res.real:.9f}   det T_n = {det_n.real:.9f}"
          f"   E/G^n * residual = {predicted.real:.9f}")
print("   (the residual is exactly 1 once n reaches the band)")
