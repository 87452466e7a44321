"""Independent ground truth: direct integration of the equation of motion.

The dimensionless dynamics ``x'' = -U'(x)`` (prime = d/dtau, tau = omega0 t)
is advanced with the classic fourth-order one-step scheme.  The period is
measured from velocity zero crossings: starting from rest at the right
turning point, the first two crossings with the same sign pattern bracket a
full cycle.  Crossing times are refined with a cubic Hermite interpolant of
the velocity, consistent with the fourth-order accuracy of the stepper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import DomainError
from .frame import balanced_frame
from .potential import EnergyShell, PolynomialPotential, turning_points

DRIFT_TOL = 1e-10
PERIOD_CAP = 1e6
_MAX_HALVINGS = 14
# Practical bound alongside the time cap: sub-separatrix periods diverge only
# logarithmically, so a run needing this many steps is a separatrix case.
_MAX_STEPS = 2_000_000


@dataclass(frozen=True)
class TrajectoryState:
    """One phase-space sample along a trajectory (dimensionless time)."""

    tau: float
    x: float
    v: float


@dataclass(frozen=True)
class OracleReport:
    """A measured period with its quality metadata.

    ``energy_drift`` is the maximum relative excursion of the instantaneous
    energy over the integrated window; a report is only ``reliable`` when the
    drift met the requested bound and the period cap was not hit.
    """

    period: float
    energy_drift: float
    steps: int
    method_order: int
    half_period: float
    reliable: bool


def _force_closure(U: PolynomialPotential):
    # Horner on a plain tuple: called four times per step, so keep it cheap.
    rev = tuple(float(c) for c in U.slope_coeffs[::-1])

    def force(x: float) -> float:
        acc = 0.0
        for c in rev:
            acc = acc * x + c
        return -acc

    return force


def _rk4_step(force, x: float, v: float, h: float) -> tuple[float, float]:
    k1x = v
    k1v = force(x)
    k2x = v + 0.5 * h * k1v
    k2v = force(x + 0.5 * h * k1x)
    k3x = v + 0.5 * h * k2v
    k3v = force(x + 0.5 * h * k2x)
    k4x = v + h * k3v
    k4v = force(x + h * k3x)
    x_new = x + h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    v_new = v + h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return x_new, v_new


def integrate(U: PolynomialPotential, state0: TrajectoryState, dtau: float,
              n: int) -> list[TrajectoryState]:
    """Advance ``n`` fixed steps of size ``dtau``; returns the n+1 states."""
    if dtau <= 0.0:
        raise DomainError(f"dtau must be positive, got {dtau}")
    if n < 0:
        raise DomainError(f"step count must be >= 0, got {n}")
    _, xs, vs, _, _ = _run(U, state0.x, state0.v, dtau, n, crossings_wanted=math.inf)
    return [state0] + [TrajectoryState(tau=state0.tau + k * dtau, x=xs[k], v=vs[k])
                       for k in range(1, n + 1)]


def _hermite_crossing(v0: float, a0: float, v1: float, a1: float, h: float) -> float:
    """Root of the cubic Hermite interpolant of v on a step where v changes sign."""
    def interp(s: float) -> float:
        s2 = s * s
        s3 = s2 * s
        return ((2.0 * s3 - 3.0 * s2 + 1.0) * v0
                + (s3 - 2.0 * s2 + s) * h * a0
                + (-2.0 * s3 + 3.0 * s2) * v1
                + (s3 - s2) * h * a1)

    lo, hi = 0.0, 1.0
    f_lo = v0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        f_mid = interp(mid)
        if f_mid == 0.0:
            return mid * h
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi) * h


def _run(U: PolynomialPotential, x: float, v: float, h: float, max_steps: int,
         tau_cap: float = math.inf, crossings_wanted: float = 3):
    """The RK4 loop: step from ``(x, v)`` until ``crossings_wanted`` velocity zero
    crossings are seen, or stop after ``max_steps`` steps or past ``tau_cap``.

    Returns (crossing_times, xs, vs, steps, capped) with the visited states in
    the lists ``xs`` and ``vs``.
    """
    force = _force_closure(U)
    tau = 0.0
    xs = [x]
    vs = [v]
    crossings: list[float] = []
    steps = 0
    capped = False
    while len(crossings) < crossings_wanted:
        if tau > tau_cap or steps >= max_steps:
            capped = True
            break
        x_new, v_new = _rk4_step(force, x, v, h)
        tau_new = tau + h
        if v != 0.0 and (v < 0.0) != (v_new < 0.0) and v_new != 0.0:
            dt = _hermite_crossing(v, force(x), v_new, force(x_new), h)
            crossings.append(tau + dt)
        x, v, tau = x_new, v_new, tau_new
        xs.append(x)
        vs.append(v)
        steps += 1
    return crossings, xs, vs, steps, capped


def measure_period(U: PolynomialPotential, energy: float | EnergyShell, *,
                   dtau: float | None = None,
                   period_cap: float = PERIOD_CAP) -> OracleReport:
    """Measure the oscillation period dynamically at the given energy.

    ``energy`` is a number, or the :class:`EnergyShell` of ``U`` at that
    energy, whose turning points are then used as they are instead of being
    solved again.  The trajectory starts at rest on the right turning point.  With
    ``dtau=None`` the step starts at a thousandth of the zeroth-order period
    estimate and is halved until the energy drift is below ``DRIFT_TOL``;
    passing an explicit ``dtau`` disables the adaptation (useful for
    convergence studies).  Periods beyond ``period_cap`` time units (or runs
    exceeding the internal step bound) mark the report unreliable instead of
    raising.
    """
    shell = energy if isinstance(energy, EnergyShell) else turning_points(U, energy)
    energy = shell.energy
    t_estimate = 2.0 * math.pi / balanced_frame(shell).omega
    h = (t_estimate / 1000.0) if dtau is None else float(dtau)
    if h <= 0.0:
        raise DomainError(f"dtau must be positive, got {h}")
    tau_cap = 1.6 * period_cap * U.omega0

    u_coeffs = U.coeffs
    attempts = _MAX_HALVINGS if dtau is None else 1
    drift = math.inf
    for _ in range(attempts):
        crossings, xs, vs, steps, capped = _run(U, shell.x_plus, 0.0, h, _MAX_STEPS, tau_cap)
        xs, vs = np.array(xs), np.array(vs)
        energies = 0.5 * vs * vs + npoly.polyval(xs, u_coeffs)
        drift = float(np.max(np.abs(energies - energy)) / energy)
        if capped:
            return OracleReport(
                period=math.inf, energy_drift=drift, steps=steps,
                method_order=4, half_period=math.inf, reliable=False,
            )
        if drift <= DRIFT_TOL or dtau is not None:
            break
        h *= 0.5

    period_tau = crossings[2] - crossings[0]
    half_tau = crossings[0]
    reliable = drift <= DRIFT_TOL
    return OracleReport(
        period=period_tau / U.omega0,
        energy_drift=drift,
        steps=steps,
        method_order=4,
        half_period=half_tau / U.omega0,
        reliable=bool(reliable),
    )
