"""ODE oracle: trajectory accuracy, event detection, quality gates."""

import math

import numpy as np
import pytest

from periodlab import (
    DomainError,
    TrajectoryState,
    balanced_frame,
    cubic_elliptic,
    cubic_potential,
    duffing_potential,
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
    assert max(errs) < 5e-9  # O(dtau^4) global error

    half = integrate(U, TrajectoryState(0.0, 1.0, 0.0), dtau / 2.0, 800)
    errs_half = [abs(s.x - math.cos(s.tau)) for s in half]
    ratio = max(errs) / max(errs_half)
    assert 10.0 < ratio < 22.0


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


# ---------------------------------------------------------------------------
# measure_period
# ---------------------------------------------------------------------------

def test_measure_harmonic_period():
    report = measure_period(harmonic_potential(), 0.5)
    assert report.reliable
    assert report.period == pytest.approx(TWO_PI, abs=1e-9)
    assert report.energy_drift < 1e-10
    assert report.method_order == 4


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


def test_measure_fourth_order_convergence():
    U = harmonic_potential()
    e_coarse = abs(measure_period(U, 0.5, dtau=TWO_PI / 100.0).period - TWO_PI)
    e_fine = abs(measure_period(U, 0.5, dtau=TWO_PI / 200.0).period - TWO_PI)
    assert 13.0 <= e_coarse / e_fine <= 19.0


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
