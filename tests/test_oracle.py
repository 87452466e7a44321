"""ODE oracle: trajectory accuracy, event detection, quality gates."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodlab import _poly, oracle
from periodlab import (
    DomainError,
    TrajectoryState,
    balanced_frame,
    cubic_elliptic,
    cubic_potential,
    duffing_elliptic,
    duffing_potential,
    PolynomialPotential,
    from_physical,
    harmonic_potential,
    integrate,
    measure_period,
    period_quadrature,
    turning_points,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def test_integrate_harmonic_matches_cosine():
    U = harmonic_potential()
    dtau = TWO_PI / 400.0
    states = integrate(U, TrajectoryState(0.0, 1.0, 0.0), dtau, 400)
    assert len(states) == 401
    errs = [abs(s.x - math.cos(s.tau)) for s in states]
    assert max(errs) < 1e-13  # rounding: the O(dtau^12) error is far below it

    # In double precision an order-12 error falls into rounding before its
    # leading term dominates, so the halving ratio is taken at 40 digits,
    # over tau = 2 at 8 and 16 macro steps.  The 10-22 band around 2^4 that
    # the fourth-order stepper met, scaled: 4096 * [10/16, 22/16].
    with mp.workdps(40):
        def error(steps):
            states = integrate(U, TrajectoryState(mp.mpf(0), mp.mpf(1), mp.mpf(0)),
                               mp.mpf(2) / steps, steps)
            return max(abs(s.x - mp.cos(s.tau)) for s in states)
        ratio = float(error(8) / error(16))
    assert 2560.0 < ratio < 5632.0


def test_integrate_energy_constant_along_trajectory():
    U = duffing_potential(1.0)
    states = integrate(U, TrajectoryState(0.0, 1.0, 0.0), 0.002, 3000)
    energies = [0.5 * s.v ** 2 + float(U(s.x)) for s in states]
    drift = max(abs(e - 0.75) for e in energies) / 0.75
    assert drift < 1e-11


def test_integrate_time_reversal():
    U = duffing_potential(1.0)
    forward = integrate(U, TrajectoryState(0.0, 1.0, 0.0), 0.002, 2000)
    end = forward[-1]
    back = integrate(U, TrajectoryState(0.0, end.x, -end.v), 0.002, 2000)
    assert back[-1].x == pytest.approx(1.0, abs=1e-9)
    assert back[-1].v == pytest.approx(0.0, abs=1e-9)


def test_integrate_one_full_period_returns_to_start():
    U = duffing_potential(1.0)
    T = period_quadrature(balanced_frame(turning_points(U, 0.75))).T
    n = 4000
    states = integrate(U, TrajectoryState(0.0, 1.0, 0.0), T / n, n)
    assert states[-1].x == pytest.approx(1.0, abs=1e-8)
    assert states[-1].v == pytest.approx(0.0, abs=1e-8)


def test_integrate_validates_inputs():
    U = harmonic_potential()
    with pytest.raises(DomainError):
        integrate(U, TrajectoryState(0.0, 1.0, 0.0), -0.1, 10)
    with pytest.raises(DomainError):
        integrate(U, TrajectoryState(0.0, 1.0, 0.0), 0.1, -1)


@pytest.mark.parametrize("dtau", [math.nan, math.inf, 0.0, -1.0])
def test_a_step_that_is_not_finite_and_positive_is_rejected(dtau):
    U = duffing_potential(1.0)
    with pytest.raises(DomainError, match="dtau must be finite and positive"):
        integrate(U, TrajectoryState(0.0, 1.0, 0.0), dtau, 2)
    with pytest.raises(DomainError, match="dtau must be finite and positive"):
        measure_period(U, 0.75, dtau=dtau)


# ---------------------------------------------------------------------------
# the compiled macro step
# ---------------------------------------------------------------------------

def _loop_step(force, x, v, a, H):
    """The macro step as a loop over the tableau's columns, the reference
    for the straight-line step of ``oracle._step_maker``."""
    last_x = last_v = ()
    for n, weights in zip(oracle._SUBSTEPS, oracle._NEVILLE):
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


_UNIT = st.floats(-1.0, 1.0)


@settings(max_examples=150, deadline=None)
@given(coeffs=st.lists(_UNIT, min_size=2, max_size=9), x=_UNIT, v=_UNIT,
       H=st.floats(1e-3, 0.5), digits=st.sampled_from([None, 40]))
def test_compiled_step_is_the_loop_bit_for_bit(coeffs, x, v, H, digits):
    # Force degrees 1 to 8; with digits=40 the state and step are 40-digit
    # mpf numbers, which every operation of the step must keep.
    c = np.array(coeffs)
    force = _poly._polynomial(c)
    step = oracle._step_maker(c.size - 1)(*coeffs)
    with mp.workdps(40):
        if digits:
            x, v, H = mp.mpf(x) / 3, mp.mpf(v) / 7, mp.mpf(H) / 3
        a = force(x)
        # repr tells -0.0 from 0.0 and gives every digit of an mpf.
        assert repr(step(x, v, a, H)) == repr(_loop_step(force, x, v, a, H))
    # One compile per degree: every step of the degree shares its code.
    assert oracle._step_maker(c.size - 1)(*[1.0] * c.size).__code__ is step.__code__


# ---------------------------------------------------------------------------
# measure_period
# ---------------------------------------------------------------------------

def test_measure_harmonic_period():
    report = measure_period(harmonic_potential(), 0.5)
    assert report.reliable
    assert report.period == pytest.approx(TWO_PI, abs=1e-9)
    assert report.energy_drift < 1e-10
    assert report.method_order == 12


def test_measure_duffing_against_quadrature():
    U = duffing_potential(1.0)
    t_quad = period_quadrature(balanced_frame(turning_points(U, 0.75))).T
    report = measure_period(U, 0.75)
    assert report.reliable
    assert report.period == pytest.approx(t_quad, rel=1e-8)


def test_measure_cubic_against_elliptic():
    U = cubic_potential(1.0)
    t_ref = cubic_elliptic(turning_points(U, 0.15)).T
    report = measure_period(U, 0.15)
    assert report.reliable
    assert report.period == pytest.approx(t_ref, rel=1e-8)


def test_measure_softening_duffing():
    U = duffing_potential(-0.9)
    energy = float(U(1.0))
    t_quad = period_quadrature(balanced_frame(turning_points(U, energy))).T
    report = measure_period(U, energy)
    assert report.period == pytest.approx(t_quad, rel=1e-8)


def test_measure_fixed_step_convergence_order():
    # The 13-19 band around 2^4 that the fourth-order stepper met, scaled to
    # the twelfth-order step, 4096 * [13/16, 19/16], on an anharmonic well:
    # the error at 16 macro steps over tau = 2 against 128, over the same
    # at 32 steps.
    U = duffing_potential(1.0)
    with mp.workdps(40):
        start = TrajectoryState(mp.mpf(0), mp.mpf(1), mp.mpf(0))
        ref = integrate(U, start, mp.mpf(2) / 128, 128)
        fine = integrate(U, start, mp.mpf(2) / 32, 32)
        coarse = integrate(U, start, mp.mpf(2) / 16, 16)
        ratio = float(abs(coarse[-1].x - ref[-1].x) / abs(fine[-1].x - ref[-1].x))
    assert 3328.0 <= ratio <= 4864.0
    # In double precision a fixed step of a sixteenth of the period already
    # reaches rounding.
    report = measure_period(harmonic_potential(), 0.5, dtau=TWO_PI / 16.0)
    assert report.period == pytest.approx(TWO_PI, abs=1e-13)


def test_measure_half_period_symmetry():
    # Even potential: the pass from x_plus to x_minus takes half the period.
    report = measure_period(duffing_potential(1.0), 0.75)
    assert 2.0 * report.half_period == pytest.approx(report.period, rel=1e-9)


def test_measure_respects_omega0_scaling():
    # The same dimensionless well, but physical time runs twice as fast.
    fast = duffing_potential(1.0, omega0=2.0)
    slow = duffing_potential(1.0, omega0=1.0)
    assert measure_period(fast, 0.75).period == pytest.approx(
        0.5 * measure_period(slow, 0.75).period, rel=1e-9)


def test_measure_period_cap_flags_unreliable():
    report = measure_period(duffing_potential(1.0), 0.75, period_cap=1.0)
    assert not report.reliable
    assert math.isinf(report.period)


def test_measure_rejects_separatrix_energy():
    from periodlab import SeparatrixError

    with pytest.raises(SeparatrixError):
        measure_period(cubic_potential(1.0), 1.0 / 6.0)


def test_measure_rejects_an_energy_not_above_the_minimum():
    # U(0) = 1e-10 passes construction, which takes |U(minimum_x)| up to 1e-8.
    U = PolynomialPotential(np.array([1e-10, 0.0, 0.5]))
    with pytest.raises(DomainError, match=r"^energy 1e-11 is not above U\(minimum_x\) = 1e-10$"):
        measure_period(U, 1e-11)


@pytest.mark.parametrize("U, energy", [(duffing_potential(1.0), 0.75),
                                       (cubic_potential(-1.0), 0.12)])
def test_measure_period_reads_the_callers_shell(U, energy, monkeypatch):
    import periodlab.oracle as oracle

    expected = measure_period(U, energy)
    shell = turning_points(U, energy)

    def unexpected(*args):
        raise AssertionError("the shell was solved again")

    monkeypatch.setattr(oracle, "turning_points", unexpected)
    assert measure_period(U, shell) == expected


# The 40-digit mpmath periods, against which these bits are off by 3.4e-15
# (lam 0.7), 5.8e-15 (cubic) and 1.3e-14 (sextic), within err_estimate:
# 5.2972689527438062232, 7.1059571472275613347 and 6.2855468828681675655.
@pytest.mark.parametrize("U, energy, expected", [
    (duffing_potential(0.7), 0.5, ("0x1.5306745b89a6cp+2", "0x1.03a337d0ebd30p-40", 12)),
    (cubic_potential(1.0), 0.1, ("0x1.c6c8007c87abcp+2", "0x1.86e4878a4beb5p-41", 14)),
    (from_physical([0.0, 0.0, 0.5, 0.1, -0.05, 0.02, 0.1]), 0.3,
     ("0x1.9246666ed92e9p+2", "0x1.eede98f13403cp-41", 14)),
])
def test_measure_period_bits_are_pinned(U, energy, expected):
    # The stepper's arithmetic is fixed: reordering a substep, a Neville
    # update or a force evaluation changes these bits.
    r = measure_period(U, energy)
    assert (r.period.hex(), r.err_estimate.hex(), r.steps) == expected


# ---------------------------------------------------------------------------
# error estimate
# ---------------------------------------------------------------------------

def _reference_period(U, shell):
    """The elliptic route where it applies, quadrature otherwise."""
    if shell.family == "quartic":
        return duffing_elliptic(shell.rho, U.omega0).T
    if shell.family == "cubic":
        return cubic_elliptic(shell, U.omega0).T
    return period_quadrature(balanced_frame(shell), U.omega0).T


_HONEST_CASES = (
    [pytest.param(duffing_potential(rho), 0.5 + 0.25 * rho, id=f"duffing rho={rho}")
     for rho in (-0.9, 0.5, 1.0, 10.0)]
    + [pytest.param(cubic_potential(lam), energy, id=f"cubic lam={lam} E={energy}")
       for lam in (1.0, -1.0) for energy in (0.03, 0.09, 0.15)]
    + [pytest.param(from_physical([0.0, 0.0, 0.5, 0.05, 0.1, -0.02, -0.1]), 0.05,
                    id="sextic")]
)


@pytest.mark.parametrize("U, energy", _HONEST_CASES)
def test_measure_error_estimate_is_honest(U, energy):
    shell = turning_points(U, energy)
    report = measure_period(U, shell)
    assert report.reliable
    assert abs(report.period - _reference_period(U, shell)) <= report.err_estimate


@pytest.mark.parametrize("lam, energy", [(-0.9999, 0.5 + 0.25 * -0.9999), (-1.0, 0.249999)])
def test_measure_near_the_barrier_is_honest_or_unreliable(lam, energy):
    # Close to the barrier the error stops shrinking with the step; the
    # conditioning term in err_estimate must cover it, or the flag must drop.
    U = duffing_potential(lam)
    shell = turning_points(U, energy)
    report = measure_period(U, shell)
    error = abs(report.period - duffing_elliptic(shell.rho).T)
    assert not report.reliable or error <= report.err_estimate


def _mp_deflate(c, r):
    """Coefficients, highest first, of the quotient of ``c`` by ``x - r``."""
    out, acc = [], mp.mpf(0)
    for a in c[:-1]:
        acc = acc * r + a
        out.append(acc)
    return out


def _mp_period(U, energy, closed_form=True):
    """The period of ``U`` at ``energy`` to 40 digits, from the exact float
    coefficients and energy.

    The canonical cubic and softening quartic take complete elliptic
    integrals unless ``closed_form`` is false; any other well takes
    ``sqrt(2) int_0^pi dtheta / sqrt(R(x(theta)))`` over the residual ``R``
    of ``E - U`` deflated by the turning points that bracket the minimum,
    split next to both ends, where a barrier's near-double root peaks the
    integrand.
    """
    with mp.workdps(40):
        c = [mp.mpf(float(a)) for a in U.coeffs]
        E = mp.mpf(float(energy))
        q = [-a for a in c[:0:-1]] + [E - c[0]]
        tiny = mp.mpf(10) ** -20
        roots = sorted(mp.re(r) for r in mp.polyroots(q, maxsteps=400, extraprec=400)
                       if abs(mp.im(r)) <= tiny)
        x0 = mp.mpf(float(U.minimum_x))
        lo = max(r for r in roots if r < x0)
        hi = min(r for r in roots if r > x0)
        if closed_form and len(c) == 4 and c[:3] == [0, 0, mp.mpf(0.5)]:
            # (E - U) = |c3| (x - x3)(x - lo)(hi - x) in the parity image with c3 > 0
            if c[3] < 0:
                roots, lo, hi = sorted(-r for r in roots), -hi, -lo
            far = roots[0]
            return (2 * mp.sqrt(2) / mp.sqrt(abs(c[3])) * mp.ellipk((hi - lo) / (hi - far))
                    / mp.sqrt(hi - far))
        if closed_form and len(c) == 5 and c[:4] == [0, 0, mp.mpf(0.5), 0] and c[4] < 0:
            # E - U = |c4| (a^2 - x^2)(b^2 - x^2) with a = hi < b
            b2 = min(r * r for r in roots if r > hi)
            return 4 / mp.sqrt(-2 * c[4]) * mp.ellipk(hi * hi / b2) / mp.sqrt(b2)
        residual = [-a for a in _mp_deflate(_mp_deflate(q, hi), lo)]
        mid, half = (hi + lo) / 2, (hi - lo) / 2
        edges = [mp.mpf(10) ** -k for k in range(7, 0, -1)]
        cuts = [0] + edges + [mp.pi / 2] + [mp.pi - e for e in reversed(edges)] + [mp.pi]
        return mp.sqrt(2) * mp.quad(
            lambda t: 1 / mp.sqrt(mp.polyval(residual, mid + half * mp.cos(t))), cuts)


_BARRIER_WELLS = {
    "cubic lam=1": cubic_potential(1.0),
    "cubic lam=-1": cubic_potential(-1.0),
    "duffing lam=-1": duffing_potential(-1.0),
    "sextic": from_physical([0.0, 0.0, 0.5, 0.05, 0.1, -0.02, -0.1]),
}


def test_mp_period_closed_forms_match_the_angle_integral():
    # The elliptic branches of the reference against its generic branch.
    for U, energy in [(cubic_potential(1.0), 0.1), (cubic_potential(-1.0), 0.16),
                      (duffing_potential(-1.0), 0.2)]:
        with mp.workdps(40):
            ratio = _mp_period(U, energy) / _mp_period(U, energy, closed_form=False)
            assert abs(ratio - 1) < 1e-30


@settings(max_examples=40, deadline=None)
@given(well=st.sampled_from(sorted(_BARRIER_WELLS)), log_gap=st.floats(-8.0, -1.0))
def test_measure_is_honest_or_unreliable_up_to_the_barrier(well, log_gap):
    # From the band interior to 1e-8 below the barrier, a reliable report's
    # err_estimate bounds its distance from the 40-digit period.
    U = _BARRIER_WELLS[well]
    energy = U.barrier.barrier_energy * (1.0 - 10.0 ** log_gap)
    report = measure_period(U, energy)
    error = abs(mp.mpf(report.period) - _mp_period(U, energy))
    assert not report.reliable or error <= report.err_estimate


@pytest.mark.parametrize("coeffs", [[0.0, 0.5, 0.5, -0.1, 0.05], [0.0, -1.0, 0.5, 0.1],
                                    [0.0, 3.0, 0.5, -0.1, 0.05]])
@pytest.mark.parametrize("energy", [1e-4, 1e-6])
def test_measure_off_the_origin_is_honest_or_unreliable(coeffs, energy):
    # x_min is 0.4 to 1.6 away from the origin, the orbit 1e-3 to 1e-2 wide:
    # positions and forces round on the scale of |x_min|, not the orbit's.
    U = from_physical(coeffs)
    report = measure_period(U, energy)
    error = abs(mp.mpf(report.period) - _mp_period(U, energy))
    assert not report.reliable or error <= report.err_estimate


def test_measure_stops_at_the_half_period():
    # From the minimum to the second velocity zero is 3/4 of a period: 14
    # macro steps, rejected ones and the crossing searches' partial steps
    # included, against about 30 for the 1.5 periods up to the fourth zero.
    assert measure_period(duffing_potential(1.0), 0.75).steps <= 15


def test_measure_with_fixed_step_makes_no_error_estimate():
    report = measure_period(harmonic_potential(), 0.5, dtau=TWO_PI / 200.0)
    assert math.isinf(report.err_estimate)
    assert not report.reliable
    assert report.period == pytest.approx(TWO_PI, rel=1e-8)
