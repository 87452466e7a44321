"""Potential layer: scaling, turning points, deflation, barriers."""

import io
import json
import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodlab import (
    DomainError,
    EnergyShell,
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
    period_from_series,
    period_quadrature,
    period_series_generic,
    shells,
    turning_points,
)
from periodlab import potential
from periodlab._poly import as_coeffs, polyval, real_roots
from periodlab.cli import main
from periodlab.errors import ConvergenceError, PeriodLabError
from periodlab.potential import quartic_barrier, shell_columns
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


def test_a_well_whose_minimum_x_is_not_a_critical_point_is_rejected():
    # U(1) = 0 passes, but U'(1) = 1.
    with pytest.raises(DomainError, match=r"^minimum_x=1\.0 is not a critical point$"):
        PolynomialPotential(np.array([-0.5, 0.0, 0.5]), minimum_x=1.0)


def test_a_hand_built_shell_whose_residual_slope_has_no_eigensolve_is_rejected():
    # R' = 1e308 + 2e300 x + 3e-300 x^2: the companion matrix of R' overflows.
    with pytest.raises(ConvergenceError, match="^companion-matrix eigensolve failed: "):
        EnergyShell(0.5, -1.0, 1.0, np.array([1.0, 1e308, 1e300, 1e-300]))


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


@pytest.mark.parametrize("x0", [1e-9, -1e-9, 1e-13, 1e-15])
def test_barrier_is_found_from_a_minimum_x_off_the_true_minimum(x0):
    # Construction accepts minimum_x off the true minimum, 0, by up to 1e-8;
    # the barrier is the critical point next to that minimum, 1/6 at x = -1.
    U = PolynomialPotential([0.0, 0.0, 0.5, 1.0 / 3.0], minimum_x=x0)
    b = U.barrier
    assert b.has_barrier
    assert b.barrier_x == pytest.approx(-1.0, rel=1e-15)
    assert b.barrier_energy == pytest.approx(1.0 / 6.0, rel=1e-15)
    above, below = shells(U, [0.5, 0.1])
    assert type(above) is SeparatrixError
    assert below.x_minus < 0.0 < below.x_plus
    assert below.x_plus - below.x_minus == pytest.approx(
        turning_points(cubic_potential(1.0), 0.1).x_plus
        - turning_points(cubic_potential(1.0), 0.1).x_minus, rel=1e-12)


def test_barriers_on_both_sides_are_found_from_a_minimum_x_off_the_true_minimum():
    # The softening quartic x^2/2 - x^4/16 has barriers of height 1 at x = +-2.
    U = PolynomialPotential([0.0, 0.0, 0.5, 0.0, -0.0625], minimum_x=2e-9)
    assert U.family == "generic"
    b = U.barrier
    assert (b.barrier_energy, b.barrier_x) == (pytest.approx(1.0, rel=1e-15), -2.0)
    assert type(shells(U, [1.5])[0]) is SeparatrixError


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


def test_a_hand_built_shell_is_generic_unless_given_a_family():
    # The shell of a cubic that is not x^2/2 + c3 x^3 has a linear residual,
    # as a canonical cubic's has; rebuilt by hand, it is still generic, and its
    # series is the generic one, not the canonical cubic's closed form.
    U = from_physical([0.0, 0.0, 0.7, 0.2])
    solved = turning_points(U, 0.05)
    shell = EnergyShell(solved.energy, solved.x_minus, solved.x_plus, solved.residual)
    assert shell.residual.size == 2 and shell.family == solved.family == "generic"
    frame = balanced_frame(shell)
    assert frame.xi is None
    series = period_from_series(best_series(shell, frame, 30))
    T = period_quadrature(frame).T
    assert abs(series.T - T) <= series.err_estimate + 8 * math.ulp(T)
    cubic = EnergyShell(solved.energy, solved.x_minus, solved.x_plus, solved.residual,
                        family="cubic")
    assert cubic.family == "cubic" and balanced_frame(cubic).xi is not None


# ---------------------------------------------------------------------------
# One pass against two
# ---------------------------------------------------------------------------

def _outcome(fn, *args):
    """``fn(*args)``, or the class and message of the periodlab error it raises."""
    try:
        return fn(*args)
    except PeriodLabError as exc:
        return type(exc), str(exc)


def _fields(U):
    """What a well holds, bytes and reprs for the floats; the critical points
    and the barrier as their error where solving them fails."""
    return (U.coeffs.tobytes(), U.coeffs.flags.writeable, U.slope_coeffs.tobytes(),
            U.curvature_coeffs.tobytes(), repr(U.minimum_x), U.family,
            repr(U.duffing_lambda), U.is_symmetric,
            _outcome(lambda: U.critical_points.tobytes()), _outcome(lambda: repr(U.barrier)))


def _two_pass_from_physical(v_coeffs, mass, omega0):
    """:func:`from_physical` in two passes: the minimum found from the
    physical coefficients, then the shifted well built and checked anew."""
    potential._require_positive("mass", mass)
    potential._require_positive("omega0", omega0)
    v = np.asarray(v_coeffs, dtype=float)
    try:
        scale = mass * omega0 ** 2
    except OverflowError:
        scale = math.inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u = v / scale
    finite = np.count_nonzero(np.isfinite(v))
    if not 0.0 < scale < math.inf or np.count_nonzero(np.isfinite(u)) < finite:
        raise DomainError(f"mass {mass} and omega0 {omega0} give no finite scaling "
                          f"1/(mass omega0^2) of the coefficients {v.tolist()}")
    u = as_coeffs(u)
    du, d2u = potential._derivatives(u)
    crits = potential._solved(real_roots, du)
    minima = [c for c in crits.tolist() if polyval(d2u, c) > 0.0]
    if not minima:
        raise NoMinimumError(
            f"no local minimum with positive curvature; critical points: {crits.tolist()}"
        )
    m = min(minima, key=abs)
    # The physical constant drops out: c0 is -U0(m), U0 the well with c0 = +0.0.
    u = u.copy()
    u[0] = 0.0
    with np.errstate(over="ignore"):
        u[0] = 0.0 - polyval(u, m)
    return _two_pass_as_built(u, mass, omega0, m, crits)


def _two_pass_as_built(coeffs, mass, omega0, x0, crits=None):
    """The :func:`_fields` of ``PolynomialPotential(coeffs, mass, omega0, x0)``,
    cut, derived and checked on its own, its checks, tags and barrier on arrays."""
    c = as_coeffs(coeffs)
    potential._require_positive("mass", mass)
    potential._require_positive("omega0", omega0)
    du, d2u = potential._derivatives(c)
    scale = max(1.0, float(np.max(np.abs(c))))
    if abs(polyval(c, x0)) > 1e-8 * scale:
        raise DomainError(
            f"U(minimum_x) = {polyval(c, x0)!r} is not zero; "
            "shift the coefficients so the reference minimum has zero potential"
        )
    if abs(polyval(du, x0)) > 1e-8 * scale:
        raise DomainError(f"minimum_x={x0} is not a critical point")
    if not polyval(d2u, x0) > 0.0:
        raise NoMinimumError(
            f"U''({x0}) = {polyval(d2u, x0)} <= 0: reference point is not a local minimum"
        )
    symmetric = bool(abs(x0) <= 1e-14 and not c[1::2].any())
    lam = None
    if symmetric and c.size in (3, 5) and c[0] == 0.0 and c[2] == 0.5:
        lam = 4.0 * float(c[4]) if c.size == 5 else 0.0
    cubic = c.size == 4 and not c[:2].any() and c[2] == 0.5
    family = "quartic" if lam is not None else "cubic" if cubic else "generic"

    def critical_points():
        return potential._solved(real_roots, du) if crits is None else crits

    def barrier():
        if lam is not None:
            return quartic_barrier(lam)
        well = SimpleNamespace(family=family, minimum_x=x0, coeffs=c)
        if potential._closed_cubic(well) is None:
            points, x = critical_points(), x0
            minima = points[polyval(d2u, points) > 0.0]
            if minima.size:
                with np.errstate(over="ignore"):
                    x = minima[np.argmin(np.abs(minima - x))]
            sides = [*points[points < x][-1:], *points[points > x][:1]]
        else:
            _, c1, c2 = du.tolist()
            sides = [-c1 / c2]
        heights = [(polyval(c, x), float(x)) for x in sides if polyval(d2u, x) <= 0.0]
        candidates = [(e, x) for e, x in heights if 0.0 < e < math.inf]
        if not candidates:
            return potential.BarrierInfo(has_barrier=False)
        energy, x = min(candidates)
        limit = abs(x) if symmetric else None
        return potential.BarrierInfo(True, energy, x, limit)

    return (c.tobytes(), c.flags.writeable, du.tobytes(), d2u.tobytes(), repr(x0), family,
            repr(lam), symmetric, _outcome(lambda: critical_points().tobytes()),
            _outcome(lambda: repr(barrier())))


_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 0.25, 0.1, -0.05, 2.0]),
    st.floats(-2.0, 2.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([5e-324, 1e-300, -1e-300, 1e300, -1e300, 1e308, -1e308,
                     math.nan, math.inf, -math.inf]),
)
_COEFFS = st.one_of(
    # degree below 2 included
    st.lists(_FLOATS, max_size=7),
    # wells with a minimum at 0, most of them
    st.lists(st.floats(-1.0, 1.0) | _FLOATS, max_size=4).map(lambda c: [0.0, 0.0, 0.5, *c]),
    # the canonical quartic and cubic, at a unit scaling or at mass 2
    _FLOATS.map(lambda lam: [0.0, 0.0, 0.5, 0.0, lam / 4.0]),
    _FLOATS.map(lambda lam: [0.0, 0.0, 1.0, 0.0, lam / 2.0]),
    _FLOATS.map(lambda lam: [0.0, 0.0, 0.5, lam / 3.0]),
    st.sampled_from([
        [0.0, 0.0, 0.5, 0.0, 2.5e307],                  # U'' overflows
        [0.0, 0.0, 0.5, 0.0, 1e308],                    # U' and U'' overflow
        [0.0, 0.0, -1.6167813222507048, 1e-300],        # the shifted c0 overflows
        [0.0, 0.0, 0.5, 0.05, 0.1, -0.02, -0.1],        # a sextic with a barrier
        [0.0, 0.0, 0.5, -0.6, 0.1],                     # a double well
        # U' = x (x + 1)(x + 1/2)(x - 1)(x - 2): minima at -1, 0 and 2, and
        # the barrier at -1/2, next to the minimum nearest minimum_x
        [0.0, 0.0, 0.5, 0.5, -0.5, -0.3, 1.0 / 6.0],
        [0.0, 1.0],
    ]),
)
# Scalings 1/(mass omega0^2) that leave the float range included.
_SCALES = st.one_of(st.just(1.0), st.just(2.0), st.floats(0.1, 10.0),
                    st.sampled_from([1e-200, 1e155, 1e200, 0.0, -1.0, math.nan, math.inf]))


@settings(max_examples=400, deadline=None)
@given(coeffs=_COEFFS, mass=_SCALES, omega0=_SCALES, offset=st.floats(-1e-9, 1e-9))
def test_a_well_built_in_one_pass_is_the_one_built_in_two(coeffs, mass, omega0, offset):
    U = _outcome(from_physical, coeffs, mass, omega0)
    got = U if isinstance(U, tuple) else _fields(U)
    assert got == _outcome(_two_pass_from_physical, coeffs, mass, omega0)
    # The constructor, at a minimum_x off the minimum by up to 1e-9.
    c, x0 = (coeffs, offset) if isinstance(U, tuple) else (U.coeffs, U.minimum_x + offset)
    built = _outcome(PolynomialPotential, c, mass, omega0, x0)
    got = built if isinstance(built, tuple) else _fields(built)
    assert got == _outcome(_two_pass_as_built, c, mass, omega0, x0)


@pytest.mark.parametrize("offset", [1e6, 1e9, 1e12, -0.0])
def test_a_physical_constant_drops_out_of_the_well(offset):
    base = from_physical([0.0, 0.1, 0.5, 0.1])
    U = from_physical([offset, 0.1, 0.5, 0.1])
    assert _fields(U) == _fields(base)
    assert U.coeffs[0] == 0.005104790489744076


# ---------------------------------------------------------------------------
# The public types
# ---------------------------------------------------------------------------

def test_public_types_are_immutable_records_and_classes():
    import inspect

    from periodlab import (
        BarrierInfo,
        BalancedFrame,
        EnergyShell,
        OracleReport,
        PeriodResult,
        SeriesResult,
        TrajectoryState,
        integrate,
        measure_period,
        period_quadrature,
    )
    from periodlab.potential import ShellColumns

    # Each record's fields in order, with the defaults of the trailing ones.
    records = {
        BarrierInfo: ("has_barrier barrier_energy barrier_x amplitude_limit",
                      {"barrier_energy": math.inf, "barrier_x": None, "amplitude_limit": None}),
        ShellColumns: ("error slots energy x_minus x_plus residual residual_extrema "
                       "residual_at_turning_points amplitude rho family",
                       {"amplitude": None, "rho": None, "family": "generic"}),
        BalancedFrame: ("shell omega strategy xi", {"xi": None}),
        PeriodResult: ("T Omega method err_estimate", {}),
        SeriesResult: ("terms partial_sums xi converged truncation_error regime", {}),
        TrajectoryState: ("tau x v", {}),
        OracleReport: ("period err_estimate energy_drift steps method_order half_period "
                       "reliable", {}),
    }
    for record, (fields, defaults) in records.items():
        assert record._fields == tuple(fields.split()), record
        assert record._field_defaults == defaults, record
    info = BarrierInfo(False)
    assert info.barrier_energy == math.inf and info.barrier_x is None
    assert info.amplitude_limit is None
    # The two classes take the same fields, with the same defaults, as arguments.
    classes = {
        PolynomialPotential: {"coeffs": inspect.Parameter.empty, "mass": 1.0, "omega0": 1.0,
                              "minimum_x": 0.0},
        EnergyShell: dict.fromkeys(["energy", "x_minus", "x_plus", "residual"],
                                   inspect.Parameter.empty)
        | dict.fromkeys(["amplitude", "rho", "residual_extrema", "residual_at_turning_points"])
        | {"family": "generic"},
    }
    for cls, params in classes.items():
        got = inspect.signature(cls).parameters.values()
        assert {p.name: p.default for p in got} == params, cls

    U = duffing_potential(0.7)
    assert "barrier" not in vars(U)
    assert U.barrier.has_barrier is False and "barrier" in vars(U)
    shell = turning_points(U, 0.3)
    frame = balanced_frame(shell)
    state = integrate(U, TrajectoryState(0.0, 0.0, 1.0), 0.1, 1)[-1]
    instances = [U, shell, U.barrier, shell_columns(U, [0.2, 0.3]), frame,
                 period_quadrature(frame), best_series(shell, frame, 4), state,
                 measure_period(U, 0.3)]
    assert {type(v) for v in instances} == {PolynomialPotential, EnergyShell, *records}
    for value in instances:
        for name in ("coeffs", "energy", "barrier_energy", "slots", "omega", "T", "terms",
                     "tau", "period", "new_attribute"):
            with pytest.raises(AttributeError):
                setattr(value, name, 1.0)
    for value, name in ((U, "coeffs"), (U, "barrier"), (shell, "x_plus")):
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert U.coeffs.tobytes() == duffing_potential(0.7).coeffs.tobytes()
