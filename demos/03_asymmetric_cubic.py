"""Asymmetric cubic well: the exact elliptic period, balanced series, separatrix.

U(x) = x^2/2 + lam x^3/3 confines only below the barrier 1/(6 lam^2).  Between
the turning points E - U = (x_plus - x)(x - x_minus) R(x) with a linear
residual R, and Carlson's reduction gives the exact period as one
arithmetic-geometric mean, T = pi sqrt(2) / M(sqrt R(x_minus), sqrt R(x_plus)).
The balanced deviation is the pure harmonic xi cos(theta), so the series
converges for every sub-barrier energy; xi -> 1 and
min(R(x_minus), R(x_plus)) / max(R(x_minus), R(x_plus)) -> 0 only at the
barrier itself, where the period diverges.

CLI equivalent:
    periodlab sweep --preset cubic --lambda 1 --param energy \
        --from 0.01 --to 0.16 --steps 7
"""

import math

import periodlab as pl


U = pl.cubic_potential(1.0)
barrier = pl.barrier_info(U)
print(f"barrier: height {barrier.barrier_energy:.12f} at x = {barrier.barrier_x}")
print()

energy = 0.15
shell = pl.turning_points(U, energy)
b0, b1 = shell.residual
y, z = shell.residual_at(shell.x_minus), shell.residual_at(shell.x_plus)
# The third zero of E - U is the zero of the linear residual.
print(f"E = {energy}: x- = {shell.x_minus:.10f}, x+ = {shell.x_plus:.10f}, "
      f"x3 = {-b0 / b1:.10f}")
print(f"residual R(x) = {b0:.10f} + {b1:.10f} x,  R(x-) = {y:.10f}, R(x+) = {z:.10f}")
print()

t_ell = pl.elliptic_period(shell).T
t_quad = pl.period_quadrature(pl.balanced_frame(shell)).T
t_oracle = pl.measure_period(U, energy).period
print(f"elliptic period : {t_ell:.15f}")
print(f"quadrature      : {t_quad:.15f}")
print(f"motion oracle   : {t_oracle:.15f}")
series = pl.cubic_series_balanced(shell, 20)
print(f"series, 21 terms: {math.sqrt(2) * series.partial_sums[-1]:.15f} "
      f"(xi = {series.xi:.6f})")
print()

print("approach to the separatrix (period grows without bound):")
print(f"{'E':>14}  {'xi':>12}  {'R(x-)/R(x+)':>12}  {'T':>14}")
for n in range(2, 7):
    e = 1.0 / 6.0 - 10.0 ** (-n)
    sh = pl.turning_points(U, e)
    fr = pl.balanced_frame(sh)
    # min(y, z)/max(y, z): R(x-) is the smaller for lam > 0
    ratio = sh.residual_at(sh.x_minus) / sh.residual_at(sh.x_plus)
    t = pl.elliptic_period(sh).T
    print(f"{e:>14.8f}  {fr.xi:>12.9f}  {ratio:>12.9f}  {t:>14.8f}")
print("at E = 1/6 every closed-form route rejects (xi = 1, R(x-) = 0):")
try:
    pl.turning_points(U, 1.0 / 6.0)
except pl.SeparatrixError as exc:
    print(f"  SeparatrixError: {exc}")
