"""Independent ground truth: direct integration of the equation of motion.

The dimensionless dynamics ``x'' = -U'(x)`` (prime = d/dtau, tau = omega0 t)
is advanced by Gragg-Bulirsch-Stoer extrapolation of Stormer's rule (Hairer,
Norsett & Wanner, *Solving ODEs I*, II.14; Bulirsch & Stoer 1966).  A macro
step of length H runs Stormer's rule in its summed form with n = 2, 4, ...,
2k substeps and extrapolates the k results to zero substep by Neville's
scheme in (H/n)^2; the last two diagonal entries of the tableau give the
step's error estimate and choose the next H.

The motion starts at the well's minimum with all its energy kinetic, so no
turning point, shell or frame is read.  The motion is time-reversible, so the
time between its first two velocity zeros, on the two turning points, is
exactly half the period.  Each zero is found by Newton's method on the length
of a partial macro step from the last step's start, where v' = -U'(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._poly import _polynomial
from .errors import DomainError
from .frame import balanced_frame  # noqa: F401  (a name layer tracers bind)
from .potential import (  # noqa: F401  (turning_points: a name layer tracers bind)
    EnergyShell,
    PolynomialPotential,
    _check_energy,
    turning_points,
)

DRIFT_TOL = 1e-10
# A measured period is reliable when its error estimate is within this
# fraction of it.
ERR_RTOL = 1e-9
PERIOD_CAP = 1e6
# Tableau columns: a macro step runs Stormer's rule with 2, 4, ..., 2k substeps.
_K = 6
_SUBSTEPS = tuple(2 * j for j in range(1, _K + 1))
# Neville's weights in h^2: row j, column l extrapolates by (T - T') m^2 /
# (n^2 - m^2), n and m the substeps of rows j and j - l, kept as integers so
# that the step runs in any precision its inputs have.
_NEVILLE = tuple(tuple((m * m, n * n - m * m) for m in reversed(_SUBSTEPS[:j]))
                 for j, n in enumerate(_SUBSTEPS))
# Force evaluations of a macro step: one per substep of each column, and one
# at the extrapolated end.
_EVALS = _K * (_K + 1) + 1
# The estimate, that of a step of order 2k - 2, shrinks as H^(2k - 1).
_ORDER_ROOT = 1.0 / (2 * _K - 1)
_EPS = 2.0 ** -52
# Per-step tolerance on the tableau's estimate, relative to the orbit's size,
# in a well without a barrier.  Next to a barrier it tightens as 1 - E/E_b,
# down to the rounding floor.
_TOL = 1e-13
_TOL_FLOOR = 16.0 * _EPS
# The first macro step, as a fraction of the small-oscillation period.
_FIRST_STEP = 1.0 / 16.0
# Practical bound beside the time cap: sub-separatrix periods diverge only
# logarithmically, so a run needing this many macro steps is a separatrix case.
_MAX_STEPS = 50_000
_NEWTON_MAX = 8
_NEWTON_STOP = 1e-6


@dataclass(frozen=True)
class TrajectoryState:
    """One phase-space sample along a trajectory (dimensionless time)."""

    tau: float
    x: float
    v: float


@dataclass(frozen=True)
class OracleReport:
    """A measured period with its quality metadata.

    ``err_estimate`` is meant to bound ``|period - T|``.  It is the period
    times ``kappa = E_b / (E_b - E)`` (1 without a barrier), the factor by
    which a barrier amplifies an error of the motion into an error of the
    period, times the sum of two parts: the tableau's error estimates of the
    steps taken, relative to the orbit's size, and rounding, ``eps`` per force
    evaluation adding up as a random walk, scaled up when the minimum lies off
    the origin by a distance large beside the orbit (the positions and forces
    there round on the scale of ``|x_min|``).  ``energy_drift`` is the maximum
    relative excursion of the instantaneous energy over the step ends.  A
    report is ``reliable`` when the drift is within ``DRIFT_TOL``,
    ``err_estimate`` within ``ERR_RTOL * period``, and the period cap was not
    hit.  ``steps`` counts every macro step taken: accepted, rejected and the
    partial steps of the crossing searches, each of at most ``k (k + 1) + 1``
    force evaluations.  ``method_order`` is the order ``2k`` of the
    extrapolated step.
    """

    period: float
    err_estimate: float
    energy_drift: float
    steps: int
    method_order: int
    half_period: float
    reliable: bool


def _force(U: PolynomialPotential):
    """``-U'(x)``; rounding is symmetric, so Horner on the negated
    coefficients gives the bits of ``-(U'(x))``."""
    return _polynomial(-U.slope_coeffs)


def _step(force, x: float, v: float, a: float, H: float):
    """One macro step of length ``H`` from ``(x, v)``, where ``a = force(x)``.

    Column j runs Stormer's rule in summed form with ``n = 2j`` substeps of
    ``h = H/n``: ``d = h (v + h a / 2)``, then ``x += d`` and ``d += h^2 f(x)``
    for each interior substep, and ``v = d / h + h f(x_n) / 2`` at the end;
    both results expand in even powers of h.  Returns ``(x, v, dx, dv)``: the
    extrapolated state and the difference of the last two entries of the
    tableau's last row, the step's error estimate.
    """
    last_x = last_v = ()
    for n, weights in zip(_SUBSTEPS, _NEVILLE):
        h = H / n
        hh = h * h
        d = h * (v + 0.5 * h * a)
        y = x + d
        for _ in range(n - 1):
            d += hh * force(y)
            y += d
        row_x = [y]
        row_v = [d / h + 0.5 * h * force(y)]
        for l, (m2, d2) in enumerate(weights):
            row_x.append(row_x[l] + (row_x[l] - last_x[l]) * m2 / d2)
            row_v.append(row_v[l] + (row_v[l] - last_v[l]) * m2 / d2)
        last_x, last_v = row_x, row_v
    return last_x[-1], last_v[-1], last_x[-1] - last_x[-2], last_v[-1] - last_v[-2]


def integrate(U: PolynomialPotential, state0: TrajectoryState, dtau: float,
              n: int) -> list[TrajectoryState]:
    """Advance ``n`` macro steps of size ``dtau``; returns the n+1 states."""
    if dtau <= 0.0:
        raise DomainError(f"dtau must be positive, got {dtau}")
    if n < 0:
        raise DomainError(f"step count must be >= 0, got {n}")
    force = _force(U)
    x, v = state0.x, state0.v
    states = [state0]
    for i in range(1, n + 1):
        x, v, _, _ = _step(force, x, v, force(x), dtau)
        states.append(TrajectoryState(tau=state0.tau + i * dtau, x=x, v=v))
    return states


def _crossing(force, x: float, v: float, a: float, v1: float, a1: float, H: float):
    """The length ``s`` of the partial macro step from ``(x, v)`` that ends on
    ``v = 0``, where the full step of length ``H`` ends at velocity ``v1``
    with ``a1 = force(x1)``; returns ``(s, macro steps taken)``.

    Newton starts at the zero of the velocity's cubic Hermite interpolant
    over the step.  At a turning point ``v'' = -U''(x) v`` vanishes, so
    Newton converges cubically there, and a correction below ``1e-6 H``
    leaves the next one below rounding; it also stops once a correction no
    longer halves, the rounding floor, or would leave the step.
    """
    # The Hermite cubic of v in t = s/H, v + t (c1 + t (c2 + t c3)).
    c1 = H * a
    c2 = 3.0 * (v1 - v) - H * (2.0 * a + a1)
    c3 = 2.0 * (v - v1) + H * (a + a1)
    s = H * v / (v - v1)
    for _ in range(3):
        t = s / H
        slope = c1 + t * (2.0 * c2 + t * 3.0 * c3)
        if slope == 0.0:
            break
        guess = s - H * (v + t * (c1 + t * (c2 + t * c3))) / slope
        if not 0.0 < guess <= H:
            break
        s = guess
    steps = 0
    last = math.inf
    for _ in range(_NEWTON_MAX):
        xs, vs, _, _ = _step(force, x, v, a, s)
        steps += 1
        slope = force(xs)
        if slope == 0.0 or not 0.0 < s - vs / slope <= H:
            break
        ds = vs / slope
        s -= ds
        if abs(ds) <= _NEWTON_STOP * H or abs(ds) > 0.5 * last:
            break
        last = abs(ds)
    return s, steps


def measure_period(U: PolynomialPotential, energy: float | EnergyShell, *,
                   dtau: float | None = None,
                   period_cap: float = PERIOD_CAP) -> OracleReport:
    """Measure the oscillation period dynamically at the given energy.

    ``energy`` is a number, or an :class:`EnergyShell` of ``U``, of which only
    the energy is read.  The energy is checked against the barrier, and the
    run starts at ``U.minimum_x`` with ``v = sqrt(2 (E - U(x_min)))``, moving
    right; half the period is the time between its first two velocity zeros.
    With ``dtau=None`` the macro step adapts: the first is 1/16 of
    ``2 pi / sqrt(U''(x_min))``, and each next one is chosen from the
    tableau's error estimate, held within ``1e-13 / kappa`` of the orbit's
    size (``kappa = E_b / (E_b - E)``) but not below the rounding floor,
    ``16 eps`` raised by the rounding of positions and forces near an
    ``x_min`` off the origin; a step whose estimate stops shrinking with a
    smaller step is taken at the floor.
    Passing an explicit ``dtau`` makes every macro step that long, with an
    infinite error estimate and so ``reliable=False`` (useful for convergence
    studies).  Periods beyond ``period_cap`` time units (or runs exceeding the
    internal step bound) mark the report unreliable instead of raising.
    """
    if isinstance(energy, EnergyShell):
        energy = energy.energy
    energy = float(energy)
    barrier = U.barrier
    _check_energy(energy, barrier)
    if dtau is not None and not dtau > 0.0:
        raise DomainError(f"dtau must be positive, got {dtau}")
    force, potential = _force(U), _polynomial(U.coeffs)
    x = float(U.minimum_x)
    kinetic = energy - potential(x)
    if not kinetic > 0.0:
        raise DomainError(f"energy {energy} is not above U(minimum_x) = {energy - kinetic}")
    # sqrt(2) sqrt(K) rather than sqrt(2K), which overflows from K = 9e307.
    v = math.sqrt(2.0) * math.sqrt(kinetic)
    a = force(x)
    omega = math.sqrt(float(U.curvature(x)))
    x_scale, v_scale = v / omega, v
    # Off the origin, positions and forces near x_min round at eps times
    # |x_min| and the terms of U' there: ``frame`` eps in units of the orbit.
    frame = max(abs(x) / x_scale, _polynomial(abs(U.slope_coeffs))(abs(x)) / (omega * v))
    kappa = 1.0 / (1.0 - energy / barrier.barrier_energy)
    tol = max(_TOL / kappa, _TOL_FLOOR * (1.0 + frame))
    tau_cap = period_cap * U.omega0
    fixed = dtau is not None
    H = float(dtau) if fixed else 2.0 * math.pi / omega * _FIRST_STEP

    tau = 0.0
    crossings: list[float] = []
    steps = 0
    err_sum = drift = 0.0
    last_rejected = math.inf
    capped = False
    while len(crossings) < 2:
        # A step too short to advance tau is one the run cannot take.
        if tau > tau_cap or steps >= _MAX_STEPS or tau + H == tau:
            capped = True
            break
        x1, v1, dx, dv = _step(force, x, v, a, H)
        steps += 1
        if not fixed:
            err = max(abs(dx) / x_scale, abs(dv) / v_scale) / tol
            if not (math.isfinite(err) and math.isfinite(x1) and math.isfinite(v1)):
                err = math.inf
            # Aim the next estimate at a quarter of the tolerance.
            resize = 4.0 if err == 0.0 else min(4.0, max(0.2, 0.94 * (0.25 / err) ** _ORDER_ROOT))
            if err > 1.0 and (err == math.inf or err < 0.5 * last_rejected):
                # Truncation dominates (or the step overflowed): a smaller
                # step shrinks the estimate.
                if err < math.inf:
                    last_rejected = err
                H *= resize
                continue
            # Within tolerance, or at the rounding floor: a smaller step no
            # longer shrank the estimate, so this step is taken as it is,
            # its estimate counted, and H held.
            if err > 1.0:
                resize = 1.0
            last_rejected = math.inf
            err_sum += err * tol
        drift = max(drift, abs(0.5 * v1 * v1 + potential(x1) - energy))
        a1 = force(x1)
        if v != 0.0 and (v1 == 0.0 or (v1 < 0.0) != (v < 0.0)):
            s, n = _crossing(force, x, v, a, v1, a1, H)
            steps += n
            crossings.append(tau + s)
        x, v, a, tau = x1, v1, a1, tau + H
        if not fixed:
            H *= resize

    drift /= energy
    period = math.inf if capped else 2.0 * (crossings[1] - crossings[0])
    if period > period_cap * U.omega0:
        period = math.inf
    rounding = _EPS * math.sqrt(_EVALS * steps) * (1.0 + frame)
    err = math.inf if fixed or math.isinf(period) else kappa * (err_sum + rounding) * period
    reliable = math.isfinite(err) and drift <= DRIFT_TOL and err <= ERR_RTOL * period
    return OracleReport(
        period=period / U.omega0, err_estimate=err / U.omega0, energy_drift=drift,
        steps=steps, method_order=2 * _K, half_period=0.5 * period / U.omega0,
        reliable=reliable,
    )
