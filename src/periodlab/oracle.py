"""Independent ground truth: direct integration of the equation of motion.

The dimensionless dynamics ``x'' = -U'(x)`` (prime = d/dtau, tau = omega0 t)
is advanced with the classic fourth-order one-step scheme.  The motion starts
at rest on the right turning point and is time-reversible, so its first
velocity zero, on the left turning point, falls at exactly half the period;
each run stops there.  The crossing time is refined with a cubic Hermite
interpolant of the velocity, consistent with the fourth-order accuracy of the
stepper.  Two runs, at steps h and h/2, give the period and a Richardson
estimate of its error (Hairer, Norsett & Wanner, *Solving ODEs I*, II.4).
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
# A measured period is reliable when its error estimate is within this
# fraction of it.
ERR_RTOL = 1e-9
PERIOD_CAP = 1e6
# The coarse step of the first pair, as a fraction of the period estimate.
_FIRST_STEP = 1.0 / 500.0
_MAX_PAIRS = 10
# Practical bound alongside the time cap: sub-separatrix periods diverge only
# logarithmically, so a run needing this many steps is a separatrix case.
_MAX_STEPS = 2_000_000
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class TrajectoryState:
    """One phase-space sample along a trajectory (dimensionless time)."""

    tau: float
    x: float
    v: float


@dataclass(frozen=True)
class OracleReport:
    """A measured period with its quality metadata.

    ``err_estimate`` is meant to bound ``|period - T|``: twice the Richardson
    estimate ``|T_h - T_{h/2}| / 15`` of the pair of runs, plus the
    shell-conditioning term ``eps * E_b / (E_b - E) * period`` (``eps *
    period`` without a barrier), the error that rounding of the start point
    causes near a barrier and that no smaller step removes.
    ``energy_drift`` is the maximum relative excursion of the instantaneous
    energy over the fine run.  A report is ``reliable`` when the drift is
    within ``DRIFT_TOL``, ``err_estimate`` within ``ERR_RTOL * period``, and
    the period cap was not hit.  ``steps`` counts every step taken, over all
    runs.
    """

    period: float
    err_estimate: float
    energy_drift: float
    steps: int
    method_order: int
    half_period: float
    reliable: bool


def _force(U: PolynomialPotential):
    """``-U'(x)`` as one unrolled Horner expression, compiled once and shared by
    every run of a measurement.

    The expression takes the same steps as the loop ``acc = acc * x + c``
    from ``acc = 0.0`` over the coefficients of U', highest first, so its
    bits are those of that loop.
    """
    expr = "0.0"
    for c in U.slope_coeffs[::-1].tolist():
        expr = f"({expr}) * x + {c!r}"
    return eval(f"lambda x: -({expr})")


def integrate(U: PolynomialPotential, state0: TrajectoryState, dtau: float,
              n: int) -> list[TrajectoryState]:
    """Advance ``n`` fixed steps of size ``dtau``; returns the n+1 states."""
    if dtau <= 0.0:
        raise DomainError(f"dtau must be positive, got {dtau}")
    if n < 0:
        raise DomainError(f"step count must be >= 0, got {n}")
    _, xs, vs, _, _ = _run(_force(U), state0.x, state0.v, dtau, n, crossings_wanted=math.inf)
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


def _run(force, x: float, v: float, h: float, max_steps: int,
         tau_cap: float = math.inf, crossings_wanted: float = 1):
    """The RK4 loop under ``force``, from :func:`_force`: step from ``(x, v)``
    until ``crossings_wanted`` velocity zero crossings are seen, or stop after
    ``max_steps`` steps or past ``tau_cap``.

    Returns (crossing_times, xs, vs, steps, capped) with the visited states in
    the lists ``xs`` and ``vs``.
    """
    half_h, sixth_h = 0.5 * h, h / 6.0
    tau = 0.0
    xs = [x]
    vs = [v]
    crossings: list[float] = []
    steps = 0
    capped = False
    # The classic RK4 step; the force at each step's end is the next step's
    # first stage and the slope of v at a crossing.
    a = force(x)
    while len(crossings) < crossings_wanted:
        if tau > tau_cap or steps >= max_steps:
            capped = True
            break
        k2x = v + half_h * a
        k2v = force(x + half_h * v)
        k3x = v + half_h * k2v
        k3v = force(x + half_h * k2x)
        k4x = v + h * k3v
        k4v = force(x + h * k3x)
        x_new = x + sixth_h * (v + 2.0 * k2x + 2.0 * k3x + k4x)
        v_new = v + sixth_h * (a + 2.0 * k2v + 2.0 * k3v + k4v)
        a_new = force(x_new)
        if v != 0.0 and (v < 0.0) != (v_new < 0.0) and v_new != 0.0:
            crossings.append(tau + _hermite_crossing(v, a, v_new, a_new, h))
        x, v, a, tau = x_new, v_new, a_new, tau + h
        xs.append(x)
        vs.append(v)
        steps += 1
    return crossings, xs, vs, steps, capped


def _half_run(U: PolynomialPotential, force, shell: EnergyShell, h: float, tau_cap: float):
    """One run from rest on ``shell.x_plus`` to the first velocity zero.

    Returns (half_tau, drift, steps), with ``half_tau`` None when the run hit
    the cap.
    """
    crossings, xs, vs, steps, capped = _run(force, shell.x_plus, 0.0, h, _MAX_STEPS, tau_cap)
    xs, vs = np.array(xs), np.array(vs)
    energies = 0.5 * vs * vs + npoly.polyval(xs, U.coeffs)
    drift = float(np.max(np.abs(energies - shell.energy)) / shell.energy)
    return (None if capped else crossings[0]), drift, steps


def measure_period(U: PolynomialPotential, energy: float | EnergyShell, *,
                   dtau: float | None = None,
                   period_cap: float = PERIOD_CAP) -> OracleReport:
    """Measure the oscillation period dynamically at the given energy.

    ``energy`` is a number, or the :class:`EnergyShell` of ``U`` at that
    energy, whose turning points are then used as they are instead of being
    solved again.  Each run starts at rest on the right turning point and
    stops at the first velocity zero, half a period later.  With
    ``dtau=None`` a pair of runs, at ``h`` = 1/500 of the zeroth-order period
    estimate and at ``h/2``, gives the fine run's period and its error
    estimate.  While the fine run's energy drift exceeds ``DRIFT_TOL`` or the
    estimate exceeds ``ERR_RTOL`` of the period, a new pair runs at a step
    predicted by the fourth-order error law; refinement stops once the
    Richardson part is below the conditioning term or fails to shrink
    eightfold.  Passing an explicit ``dtau`` makes one run at that step, with
    an infinite error estimate and so ``reliable=False`` (useful for
    convergence studies).  Periods beyond ``period_cap`` time units (or runs
    exceeding the internal step bound) mark the report unreliable instead of
    raising.
    """
    shell = energy if isinstance(energy, EnergyShell) else turning_points(U, energy)
    energy = shell.energy
    tau_cap = 0.55 * period_cap * U.omega0
    force = _force(U)
    if dtau is not None:
        if not dtau > 0.0:
            raise DomainError(f"dtau must be positive, got {dtau}")
        half, drift, steps = _half_run(U, force, shell, float(dtau), tau_cap)
        return _report(U, half, math.inf, drift, steps, reliable=False)

    h = 2.0 * math.pi / balanced_frame(shell).omega * _FIRST_STEP
    conditioning = _EPS / (1.0 - energy / U.barrier.barrier_energy)
    steps = 0
    last = math.inf
    for _ in range(_MAX_PAIRS):
        coarse, drift, n = _half_run(U, force, shell, h, tau_cap)
        steps += n
        if coarse is None:
            return _report(U, None, math.inf, drift, steps, reliable=False)
        # The drift gate applies to the fine run, whose period is reported.
        fine, drift, n = _half_run(U, force, shell, 0.5 * h, tau_cap)
        steps += n
        if fine is None:
            return _report(U, None, math.inf, drift, steps, reliable=False)
        period = 2.0 * fine
        richardson = 2.0 * abs(2.0 * coarse - period) / 15.0
        err = richardson + conditioning * period
        reliable = drift <= DRIFT_TOL and err <= ERR_RTOL * period
        # Below the conditioning term, or where a refinement stops shrinking
        # the estimate, a smaller step buys nothing.
        if reliable or richardson <= conditioning * period or richardson > last / 8.0:
            break
        last = richardson
        # Drift and error both scale as h^4: aim the failing one at half its bound.
        excess = max(drift / DRIFT_TOL, richardson / (ERR_RTOL * period))
        h *= min(0.5, max(0.1, (0.5 / excess) ** 0.25))
    return _report(U, fine, err / U.omega0, drift, steps, reliable)


def _report(U, half_tau, err, drift, steps, reliable) -> OracleReport:
    half = math.inf if half_tau is None else half_tau / U.omega0
    return OracleReport(
        period=2.0 * half, err_estimate=err, energy_drift=drift, steps=steps,
        method_order=4, half_period=half, reliable=reliable,
    )
