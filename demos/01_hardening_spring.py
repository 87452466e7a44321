"""Hardening quartic spring: one period, four independent routes.

The well U(x) = x^2/2 + lam x^4/4 oscillating with amplitude A depends on the
single combination rho = lam A^2.  This script computes the period at rho = 1
by exact quadrature, by the balanced binomial series, by the complete
elliptic integral, and by direct integration of the equation of motion, then
follows the scaled period sqrt(rho) T to its large-anharmonicity limit.

CLI equivalent of the first block:
    periodlab period --preset duffing --lambda 1 --amplitude 1 --method all
"""

import math

import numpy as np

import periodlab as pl

U = pl.duffing_potential(1.0)
energy = float(U(1.0))  # amplitude 1 -> E = 1/2 + 1/4
shell = pl.turning_points(U, energy)
frame = pl.balanced_frame(shell)

print(f"rho = {shell.rho}, turning points = ({shell.x_minus}, {shell.x_plus})")
print(f"balanced reference: omega_b^2 = {frame.omega**2:.12f}, xi = {frame.xi:.12f}")
print()

quad = pl.period_quadrature(frame)
ell = pl.duffing_elliptic(shell.rho)
oracle = pl.measure_period(U, energy)
print(f"{'route':<22}{'T':>22}")
print(f"{'quadrature':<22}{quad.T:>22.15f}")
print(f"{'elliptic integral':<22}{ell.T:>22.15f}")
for n in (0, 1, 2, 5, 10):
    s = pl.duffing_series_balanced(shell.rho, n)
    print(f"{f'series N={n}':<22}{math.sqrt(2) * s.partial_sums[-1]:>22.15f}")
print(f"{'equation of motion':<22}{oracle.period:>22.15f}"
      f"   (error estimate {oracle.err_estimate:.1e}, energy drift {oracle.energy_drift:.1e})")
print()

# The first two truncations are already global: their scaled large-rho limits
# bracket the exact constant 4 K(1/2) = 4 * int dtheta/sqrt(3 + cos 2theta).
exact = pl.duffing_large_rho_constant()
print("scaled period sqrt(rho) T as rho grows:")
print(f"{'rho':>12}  {'quadrature':>12}  {'series N=1':>12}")
for rho in [1e1, 1e2, 1e4, 1e6]:
    Ur = pl.duffing_potential(rho)
    fr = pl.balanced_frame(pl.turning_points(Ur, float(Ur(1.0))))
    t_quad = pl.period_quadrature(fr).T
    t_n1 = math.sqrt(2) * pl.duffing_series_balanced(rho, 1).partial_sums[-1]
    print(f"{rho:>12.0e}  {math.sqrt(rho) * t_quad:>12.7f}  "
          f"{math.sqrt(rho) * t_n1:>12.7f}")
print(f"{'limit':>12}  {exact:>12.7f}  "
      f"{pl.duffing_balanced_large_rho_limit(1):>12.7f}")
