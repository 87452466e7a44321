"""Potential layer: scaling, turning points, deflation, barriers."""

import io
import json
import math

import mpmath as mp
import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from periodlab import (
    DomainError,
    NoMinimumError,
    PolynomialPotential,
    SeparatrixError,
    balanced_frame,
    barrier_info,
    best_series,
    cubic_potential,
    duffing_potential,
    from_physical,
    harmonic_potential,
    period_series_generic,
    turning_points,
)
from periodlab.cli import main
from periodlab.potential import shell_columns
from tests.conftest import random_wells


# ---------------------------------------------------------------------------
# from_physical
# ---------------------------------------------------------------------------

def test_from_physical_duffing_form():
    U = from_physical([0.0, 0.0, 0.5, 0.0, 0.25], mass=1.0, omega0=1.0)
    assert np.allclose(U.coeffs, [0.0, 0.0, 0.5, 0.0, 0.25])
    assert U.duffing_lambda == pytest.approx(1.0, rel=1e-15)
    assert U.minimum_x == 0.0


def test_from_physical_harmonic_identity():
    U = from_physical([0.0, 0.0, 0.5])
    xs = np.linspace(-2, 2, 41)
    assert np.allclose(U(xs), 0.5 * xs ** 2, rtol=0, atol=1e-15)
    assert U.duffing_lambda == 0.0


def test_from_physical_linear_scaling():
    U = from_physical([0.0, 0.0, 2.0, 0.0, 4.0], mass=2.0, omega0=1.0)
    assert np.allclose(U.coeffs, [0.0, 0.0, 1.0, 0.0, 2.0])


def test_from_physical_shifts_offcenter_minimum():
    # V = x + x^2/2 has its minimum at x = -1 with V(-1) = -1/2.
    U = from_physical([0.0, 1.0, 0.5])
    assert U.minimum_x == pytest.approx(-1.0, abs=1e-14)
    assert U(U.minimum_x) == pytest.approx(0.0, abs=1e-15)
    assert U.curvature(U.minimum_x) > 0


def test_from_physical_rejects_inverted_well():
    with pytest.raises(NoMinimumError):
        from_physical([0.0, 0.0, -1.0])


def test_from_physical_rejects_pure_cubic():
    # U' = 3x^2 has only the degenerate critical point x = 0 with U'' = 0.
    with pytest.raises(NoMinimumError):
        from_physical([0.0, 0.0, 0.0, 1.0])


def test_from_physical_rejects_low_degree_and_bad_scaling():
    with pytest.raises(DomainError):
        from_physical([0.0, 1.0])
    with pytest.raises(DomainError):
        from_physical([0.0, 0.0, 0.5], mass=-1.0)
    with pytest.raises(DomainError):
        from_physical([0.0, 0.0, 0.5], omega0=0.0)


# ---------------------------------------------------------------------------
# turning_points
# ---------------------------------------------------------------------------

def test_turning_points_duffing_amplitude_one():
    U = duffing_potential(1.0)
    shell = turning_points(U, 0.75)  # E(A=1) = 1/2 + 1/4
    assert shell.x_plus == pytest.approx(1.0, rel=1e-14)
    assert shell.x_minus == pytest.approx(-1.0, rel=1e-14)
    assert shell.amplitude == pytest.approx(1.0, rel=1e-14)
    assert shell.rho == pytest.approx(1.0, rel=1e-13)


def test_turning_points_harmonic_constant_residual():
    shell = turning_points(harmonic_potential(), 0.5)
    assert shell.x_plus == pytest.approx(1.0, rel=1e-14)
    assert shell.residual.size == 1
    assert shell.residual[0] == pytest.approx(0.5, rel=1e-14)


def test_turning_points_cubic_barrier_energy_rejected():
    # 2x^3 + 3x^2 - 1 = (x+1)^2 (2x-1): the left turning point merges with the
    # barrier at E = 1/6, so that energy must be rejected ...
    U = cubic_potential(1.0)
    with pytest.raises(SeparatrixError):
        turning_points(U, 1.0 / 6.0)
    # ... and energies within the relative separatrix guard as well.
    with pytest.raises(SeparatrixError):
        turning_points(U, (1.0 / 6.0) * (1.0 - 1e-13))
    shell = turning_points(U, 1.0 / 6.0 - 1e-6)
    assert shell.x_plus < 0.5
    assert -1.0 < shell.x_minus < -0.99


def test_turning_points_rejects_nonpositive_energy():
    U = duffing_potential(1.0)
    with pytest.raises(DomainError):
        turning_points(U, 0.0)
    with pytest.raises(DomainError):
        turning_points(U, -0.25)


def test_turning_points_hardening_duffing_any_energy():
    U = duffing_potential(2.5)
    shell = turning_points(U, 1e4)
    assert shell.x_plus > 0 and shell.x_minus == pytest.approx(-shell.x_plus)


def test_turning_points_tiny_energy_harmonic_limit():
    # As E -> 0 the residual approaches U''(0)/2 = 1/2.
    U = duffing_potential(1.0)
    shell = turning_points(U, 1e-30)
    assert shell.x_plus == pytest.approx(math.sqrt(2e-30), rel=1e-10)
    assert shell.residual_at(0.0) == pytest.approx(0.5, rel=1e-12)


def test_turning_points_softening_duffing_guard():
    U = duffing_potential(-0.25)  # barrier height 1/(4*0.25) = 1
    shell = turning_points(U, 0.99)
    assert shell.amplitude < 2.0
    with pytest.raises(SeparatrixError):
        turning_points(U, 1.0)
    with pytest.raises(SeparatrixError):
        turning_points(U, 1.5)


def test_turning_points_picks_adjacent_roots_in_double_well():
    # 0.5 x^2 - 0.6 x^3 + 0.1 x^4 has a second, deeper well beyond the barrier
    # at x ~ 0.648; the shell must stop at the adjacent root.
    U = from_physical([0.0, 0.0, 0.5, -0.6, 0.1])
    b = barrier_info(U)
    assert b.has_barrier
    shell = turning_points(U, 0.9 * b.barrier_energy)
    assert shell.x_plus < b.barrier_x


# ---------------------------------------------------------------------------
# Shell invariants over random wells
# ---------------------------------------------------------------------------

def test_shell_invariants_random(rng):
    wells = random_wells(rng, 60)
    for U, energy, shell in wells:
        tol = 1e-10 * max(1.0, energy)
        # simple zeros at the turning points
        assert abs(energy - U(shell.x_minus)) <= tol
        assert abs(energy - U(shell.x_plus)) <= tol
        # deflation exactness on 64 Chebyshev points of the shell interval
        k = np.arange(64)
        u = np.cos((2 * k + 1) * np.pi / 128.0)
        xs = 0.5 * (shell.x_plus + shell.x_minus) + 0.5 * (shell.x_plus - shell.x_minus) * u
        q_direct = energy - U(xs)
        assert np.max(np.abs(shell.q_at(xs) - q_direct)) <= tol
        # residual positivity at endpoints and interior critical points
        values = [shell.residual_at(shell.x_minus), shell.residual_at(shell.x_plus)]
        if shell.residual.size > 1:
            for c in npoly.polyroots(npoly.polyder(shell.residual)):
                if abs(c.imag) < 1e-10 and shell.x_minus < c.real < shell.x_plus:
                    values.append(shell.residual_at(c.real))
        assert min(values) > 0.0


def test_shell_parity_for_even_potentials(rng):
    for lam in [-0.8, -0.2, 0.0, 0.5, 2.0, 7.0]:
        U = duffing_potential(lam)
        cap = 1.0 / (-4.0 * lam) if lam < 0 else 10.0
        for frac in [0.1, 0.5, 0.9]:
            shell = turning_points(U, frac * cap)
            assert abs(shell.x_plus + shell.x_minus) <= 1e-12 * abs(shell.x_plus)


def test_cubic_lambda_recovered_from_turning_points():
    for lam in [0.3, 1.0, 2.5]:
        U = cubic_potential(lam)
        barrier = 1.0 / (6.0 * lam ** 2)
        for frac in [0.05, 0.4, 0.95]:
            shell = turning_points(U, frac * barrier)
            xp, xm = shell.x_plus, shell.x_minus
            lam_back = -1.5 * (xm + xp) / (xp ** 2 + xp * xm + xm ** 2)
            assert lam_back == pytest.approx(lam, rel=1e-10)


# ---------------------------------------------------------------------------
# barrier_info
# ---------------------------------------------------------------------------

def test_barrier_info_cubic():
    b = barrier_info(cubic_potential(1.0))
    assert b.has_barrier
    assert b.barrier_x == pytest.approx(-1.0, rel=1e-13)
    assert b.barrier_energy == pytest.approx(1.0 / 6.0, rel=1e-13)
    assert b.amplitude_limit is None


def test_barrier_info_softening_duffing():
    b = barrier_info(duffing_potential(-0.25))
    assert b.has_barrier
    assert b.amplitude_limit == pytest.approx(2.0, rel=1e-13)
    assert b.barrier_energy == pytest.approx(1.0, rel=1e-13)


def test_barrier_info_confining():
    assert barrier_info(duffing_potential(1.0)).has_barrier is False
    assert barrier_info(harmonic_potential()).has_barrier is False


@pytest.mark.parametrize("lam", [1e-200, -1e-282])
def test_barrier_info_height_that_overflows_is_no_barrier(lam):
    # The far critical point of the cubic sits near x = -1/lam, where U
    # overflows: it is no finite barrier, and nothing warns.  The shell at
    # E = 0.25 is harmonic to double precision: T = 2 pi.
    assert barrier_info(cubic_potential(lam)).has_barrier is False
    out = io.StringIO()
    argv = ["period", "--preset", "cubic", "--lambda", repr(lam), "--energy", "0.25",
            "--format", "json"]
    assert main(argv, out=out) == 0
    assert abs(json.loads(out.getvalue())["T"] - 2 * math.pi) <= 1e-15 * 2 * math.pi


def test_barrier_info_is_critical_point(rng):
    for U, _, _ in random_wells(rng, 25):
        b = barrier_info(U)
        if not b.has_barrier:
            continue
        assert U(b.barrier_x) == pytest.approx(b.barrier_energy, rel=1e-12)
        assert abs(U.slope(b.barrier_x)) <= 1e-9 * max(1.0, b.barrier_energy)


# ---------------------------------------------------------------------------
# Non-finite input
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coefficient_is_rejected(bad):
    with pytest.raises(DomainError, match="finite"):
        duffing_potential(bad)
    with pytest.raises(DomainError, match="finite"):
        from_physical([0.0, 0.0, 1.0, bad])
    with pytest.raises(DomainError, match="finite"):
        from_physical([0.0, 0.0, 1.0, bad, 0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_mass_or_omega0_is_rejected(bad):
    for kwargs in ({"mass": bad}, {"omega0": bad}):
        with pytest.raises(DomainError, match="finite"):
            duffing_potential(1.0, **kwargs)
        with pytest.raises(DomainError, match="finite"):
            from_physical([0.0, 0.0, 0.5, 0.0, 0.25], **kwargs)


@pytest.mark.parametrize("energy", [math.inf, math.nan])
def test_non_finite_energy_is_rejected(energy):
    for U in (duffing_potential(1.0), cubic_potential(1.0)):
        with pytest.raises(DomainError, match="finite"):
            turning_points(U, energy)


# ---------------------------------------------------------------------------
# Closed-form turning points of the softening quartic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam", [-0.9, -0.9999])
def test_softening_quartic_turning_points_within_two_ulps(lam):
    U = duffing_potential(lam)
    energy = float(U(1.0))
    shell = turning_points(U, energy)
    with mp.workdps(50):
        a2 = 4 * mp.mpf(energy) / (1 + mp.sqrt(1 + 4 * mp.mpf(lam) * mp.mpf(energy)))
        for value, exact in ((shell.x_plus, mp.sqrt(a2)), (-shell.x_minus, mp.sqrt(a2)),
                             (shell.rho, mp.mpf(lam) * a2)):
            assert abs(mp.mpf(value) - exact) <= 2 * math.ulp(float(exact))


@pytest.mark.parametrize("coeffs", [[0.0, 0.0, 0.5, 0.0, 2.5e307],   # U'' overflows
                                    [0.0, 0.0, 0.5, 1e308 / 3.0],     # U'' overflows
                                    [0.0, 0.0, 0.5, 0.0, 0.0, 1e308]])  # U' overflows
def test_coefficients_whose_derivatives_overflow_are_rejected(coeffs):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="finite"):
            PolynomialPotential(np.array(coeffs))
        with pytest.raises(DomainError, match="finite"):
            from_physical(coeffs)


def test_critical_points_that_the_polish_overflows_are_dropped():
    import warnings

    # U' has a root near 9.5e201 that Newton sends to inf; it is dropped as a
    # complex root is, so the well holds finite critical points only.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        U = from_physical([0.0, 0.0, 0.2983580513257455, -0.1151646968818325,
                           9.046116866145732e-204])
    assert U.critical_points.size == 2 and np.isfinite(U.critical_points).all()


def test_from_physical_hands_the_well_its_critical_points():
    from periodlab._poly import real_roots

    U = from_physical([0.0, 0.0, 0.5, -0.6, 0.1])
    assert "critical_points" in vars(U)
    assert not U.critical_points.flags.writeable
    assert U.critical_points.tobytes() == real_roots(U.slope_coeffs).tobytes()


# ---------------------------------------------------------------------------
# What construction derives
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("U, lam, symmetric", [
    (harmonic_potential(), 0.0, True),
    (duffing_potential(-0.0), 0.0, True),
    (duffing_potential(-0.5), -0.5, True),
    (from_physical([0.0, 0.0, 1.0, 0.0, 0.25], mass=2.0), 0.5, True),
    (PolynomialPotential(np.array([0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 1.0])), None, True),
    (cubic_potential(1.0), None, False),
    (from_physical([0.0, 1.0, 0.5]), None, False),  # the minimum sits at x = -1
    # The tags are exact: an odd coefficient small beside the others, or a c2
    # that misses 1/2 by rounding, leaves a generic well.
    (PolynomialPotential(np.array([0.0, 0.0, 0.6, 0.9, 1e12])), None, False),
    (from_physical([0.0, 0.0, 0.845, 0.0, 0.4225], omega0=1.3), None, True),
])
def test_construction_derives_the_derivatives_and_family_tags(U, lam, symmetric):
    assert {"slope_coeffs", "curvature_coeffs", "is_symmetric", "duffing_lambda"} <= vars(U).keys()
    assert "barrier" not in vars(U)
    assert U.duffing_lambda == lam and type(U.duffing_lambda) is type(lam)
    assert U.is_symmetric is symmetric
    for got, order in ((U.slope_coeffs, 1), (U.curvature_coeffs, 2)):
        assert not got.flags.writeable
        assert got.tobytes() == npoly.polyder(U.coeffs, order).tobytes()


@pytest.mark.parametrize("U, family", [
    (duffing_potential(0.7), "quartic"),
    (harmonic_potential(), "quartic"),
    (cubic_potential(-1.0), "cubic"),
    (from_physical([0.0, 0.0, 0.5, 0.1]), "cubic"),
    # Cubics that are not x^2/2 + c3 x^3: another c2, a scaling, a linear term.
    (from_physical([0.0, 0.0, 2.0, 0.3]), "generic"),
    (from_physical([0.0, 0.0, 0.5, 0.1], mass=2.0), "generic"),
    (from_physical([0.0, 0.1, 0.5, 0.3]), "generic"),
    (from_physical([0.0, 0.0, 0.5, 0.1, -0.05, 0.02, 0.1]), "generic"),
])
def test_the_well_decides_its_family_and_its_shells_carry_it(U, family):
    assert U.family == family
    shell = turning_points(U, 0.05)
    assert shell.family == shell_columns(U, [0.05, 0.06]).family == family
    frame = balanced_frame(shell)
    assert (frame.xi is None) == (family == "generic")
    if family == "generic":
        assert best_series(shell, frame, 12).terms == period_series_generic(frame, 12).terms
