"""A general polynomial well, from physical coefficients to a verified period.

Wells without a recognized closed form follow the same path: scale out
(m, omega_0), locate the reference minimum, factor the turning points, build
the balanced frame, and sum the generic binomial series whose angle moments
are evaluated exactly.  The equation-of-motion oracle closes the loop.

CLI equivalent:
    periodlab verify --preset poly --coeffs 0 0 0.8 -0.6 0.4 0.1 0.02 \
        --mass 2 --energy 0.3 --format json
"""

import math

import periodlab as pl

# physical coefficients v_k of V(x) = sum v_k x^k, for a particle of mass 2
v_coeffs = [0.0, 0.0, 0.8, -0.6, 0.4, 0.1, 0.02]
U = pl.from_physical(v_coeffs, mass=2.0, omega0=1.0)
print("dimensionless coefficients:", [round(float(c), 12) for c in U.coeffs])
print(f"reference minimum at x = {U.minimum_x}")

energy = 0.3
shell = pl.turning_points(U, energy)
frame = pl.balanced_frame(shell)
print(f"E = {energy}: turning points ({shell.x_minus:.10f}, {shell.x_plus:.10f})")
print(f"residual degree {len(shell.residual) - 1}, "
      f"R range [{frame.R_min:.8f}, {frame.R_max:.8f}]")
print(f"balanced omega = {frame.omega:.10f}, sup|Delta| = {frame.sup_abs_delta:.8f}")
print()

series = pl.period_series_generic(frame, 40)
t_series = math.sqrt(2) * series.partial_sums[-1]
t_quad = pl.period_quadrature(frame).T
report = pl.measure_period(U, energy)
print(f"{'generic series':<18} T = {t_series:.14f} "
      f"({len(series.terms)} terms, regime {series.regime})")
print(f"{'quadrature':<18} T = {t_quad:.14f}")
print(f"{'motion oracle':<18} T = {report.period:.14f} "
      f"(error estimate {report.err_estimate:.1e}, drift {report.energy_drift:.1e})")
spread = max(t_series, t_quad, report.period) - min(t_series, t_quad, report.period)
print(f"max spread: {spread:.2e}")
