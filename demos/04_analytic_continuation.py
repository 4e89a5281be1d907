#!/usr/bin/env python3
"""Continuing the determinant sequence beyond the unit interval.

The raw symbol develops a circle pole at |t| = 1, but splitting off a
geometric-series part leaves a smooth remainder; the resulting sections are
entrywise analytic on the whole half-plane Re(t) > 0 and their determinants
still converge to the closed-form limit.  A triangular pre-multiplication
rewrites each section as a regular Toeplitz section plus two rank-one
corrections, which is the structural reason the convergence survives.
"""

import numpy as np

from dimerdet import DimerParams, correlation_limit, correlation_scan, theta_decomposition
from dimerdet.continuation import errors_decreasing

ns = [4, 8, 16, 32]
for t in (0.6, 1.0, 1.2, 0.8 + 0.3j):
    limit = correlation_limit(t)
    values = correlation_scan(DimerParams(t), ns)
    print(f"t = {t}:   limit P = {limit:.10f}")
    for n, value in zip(ns, values):
        print(f"   n = {n:3d}   P(n) = {value:.12f}   error = {abs(value - limit):.2e}")
    print(f"   errors decreasing: {errors_decreasing(ns, values, limit)}")
    print()

print("Toeplitz-plus-perturbation form (t = 1, n = 8):")
seq = theta_decomposition(1.0, 8)
# K holds its one row at row 0; L holds it at row 1, each block's pair swapped
k_op = np.zeros((16, 16), dtype=complex)
l_op = np.zeros((16, 16), dtype=complex)
k_op[0], l_op[1] = seq.k_row, seq.k_row.reshape(8, 2)[:, ::-1].ravel()
sv_k = np.linalg.svd(k_op, compute_uv=False)
sv_l = np.linalg.svd(l_op, compute_uv=False)
print(f"   identity residual between the two determinant forms: "
      f"{seq.identity_residual:.2e}")
print(f"   singular values of K: {sv_k[0]:.3e}, {sv_k[1]:.1e}, {sv_k[2]:.1e}  (rank one)")
print(f"   singular values of L: {sv_l[0]:.3e}, {sv_l[1]:.1e}, {sv_l[2]:.1e}  (rank one)")
