"""Frame layer: residual extrema, frequency choices, deviation closed forms."""

import math

import numpy as np
import pytest

from periodlab import (
    BALANCED,
    NAYFEH,
    BalancedFrame,
    DomainError,
    EnergyShell,
    balanced_frame,
    best_series,
    cubic_potential,
    delta_at,
    duffing_potential,
    fixed_frame,
    harmonic_potential,
    nayfeh_frame,
    period_quadrature,
    turning_points,
    x_of_theta,
)
from tests.conftest import random_wells


def _duffing_shell(rho: float):
    # Realize rho with amplitude 1, so lam = rho and E = 1/2 + rho/4.
    U = duffing_potential(rho)
    return turning_points(U, float(U(1.0)))


# ---------------------------------------------------------------------------
# residual_extrema
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rho", [0.25, 1.0, 4.0])
def test_extrema_duffing_hardening(rho):
    shell = _duffing_shell(rho)
    r_min, r_max, arg_min, arg_max = shell.residual_extrema
    assert r_min == pytest.approx(0.5 + rho / 4.0, rel=1e-12)   # at x = 0
    assert r_max == pytest.approx(0.5 + rho / 2.0, rel=1e-12)   # at x = +-A
    assert arg_min == pytest.approx(0.0, abs=1e-12)
    assert abs(arg_max) == pytest.approx(1.0, rel=1e-12)


def test_extrema_duffing_softening_swaps():
    shell = _duffing_shell(-0.5)
    r_min, r_max, _, _ = shell.residual_extrema
    assert r_min == pytest.approx(0.5 - 0.25, rel=1e-12)   # at the amplitude
    assert r_max == pytest.approx(0.5 - 0.125, rel=1e-12)  # at the center


def test_extrema_harmonic_constant():
    shell = turning_points(harmonic_potential(), 0.5)
    r_min, r_max, _, _ = shell.residual_extrema
    assert r_min == r_max == pytest.approx(0.5, rel=1e-14)


def test_extrema_cubic_at_turning_points():
    shell = turning_points(cubic_potential(1.0), 0.1)
    r_min, r_max, arg_min, arg_max = shell.residual_extrema
    assert arg_min == shell.x_minus
    assert arg_max == shell.x_plus
    assert r_min == pytest.approx(shell.residual_at(shell.x_minus), rel=1e-14)
    assert r_max == pytest.approx(shell.residual_at(shell.x_plus), rel=1e-14)


# ---------------------------------------------------------------------------
# balanced_frame
# ---------------------------------------------------------------------------

def test_balanced_duffing_rho_one():
    fr = balanced_frame(_duffing_shell(1.0))
    assert fr.omega ** 2 == pytest.approx(7.0 / 4.0, rel=1e-12)
    assert fr.xi == pytest.approx(1.0 / 7.0, rel=1e-12)
    assert fr.strategy == BALANCED


def test_balanced_harmonic_limit():
    fr = balanced_frame(_duffing_shell(0.0))
    assert fr.omega == pytest.approx(1.0, rel=1e-13)
    assert fr.xi == 0.0
    assert fr.delta_min == fr.delta_max == pytest.approx(0.0, abs=1e-14)


def test_balanced_cubic_separatrix_limit_values():
    # Exact barrier factorization: R = (1+x)/3 on [-1, 1/2].
    shell = EnergyShell(
        energy=1.0 / 6.0, x_minus=-1.0, x_plus=0.5,
        residual=np.array([1.0 / 3.0, 1.0 / 3.0]), family="cubic",
    )
    fr = balanced_frame(shell)
    assert fr.omega ** 2 == pytest.approx(0.5, rel=1e-14)
    assert fr.xi == pytest.approx(1.0, rel=1e-14)
    assert fr.delta_max == pytest.approx(1.0, rel=1e-14)


def test_balanced_properties_random(rng):
    # omega^2 = R_max + R_min, balanced extrema, strict bound, on a 4097-point
    # grid augmented with the analytic extrema.
    theta = np.linspace(0.0, np.pi, 4097)
    for U, energy, shell in random_wells(rng, 40):
        fr = balanced_frame(shell)
        assert fr.omega ** 2 == pytest.approx(fr.R_min + fr.R_max, rel=1e-14)
        values = delta_at(fr, theta)
        top = max(float(values.max()), fr.delta_max)
        bottom = min(float(values.min()), fr.delta_min)
        assert abs(top + bottom) <= 1e-12
        assert max(abs(top), abs(bottom)) < 1.0


# ---------------------------------------------------------------------------
# nayfeh_frame
# ---------------------------------------------------------------------------

def test_nayfeh_rho_one():
    fr = nayfeh_frame(_duffing_shell(1.0))
    assert fr.omega == pytest.approx(math.sqrt(2.0), rel=1e-13)
    assert fr.xi == pytest.approx(0.25, rel=1e-13)


def test_nayfeh_rho_zero():
    fr = nayfeh_frame(_duffing_shell(0.0))
    assert fr.omega == pytest.approx(1.0, rel=1e-13)
    assert fr.xi == 0.0


def test_nayfeh_softening_xi_beyond_one():
    fr = nayfeh_frame(_duffing_shell(-0.9))
    assert fr.xi == pytest.approx(-4.5, rel=1e-12)
    assert abs(fr.xi) >= 1.0  # divergent series regime, flagged downstream


def test_nayfeh_rejects_cubic_shell():
    with pytest.raises(DomainError):
        nayfeh_frame(turning_points(cubic_potential(1.0), 0.1))


def test_best_series_in_a_hand_built_nayfeh_frame_of_a_cubic_shell_is_rejected():
    shell = turning_points(cubic_potential(1.0), 0.1)
    frame = BalancedFrame(shell, 1.0, NAYFEH, 0.2)
    with pytest.raises(DomainError, match="^nayfeh series requires a canonical quartic shell$"):
        best_series(shell, frame, 8)


def test_sup_abs_delta_is_the_larger_deviation_magnitude(rng):
    frames = [nayfeh_frame(_duffing_shell(rho)) for rho in (-0.8, 0.0, 3.0)]
    for _, _, shell in random_wells(rng, 10):
        frames += [balanced_frame(shell), fixed_frame(shell, 0.7), fixed_frame(shell, 1.3)]
    for fr in frames:
        assert type(fr.sup_abs_delta) is float
        assert fr.sup_abs_delta == max(abs(fr.delta_min), abs(fr.delta_max))


def test_fixed_frame_validates_omega():
    shell = _duffing_shell(1.0)
    fr = fixed_frame(shell, 1.3)
    assert fr.omega == 1.3 and fr.xi is None
    with pytest.raises(DomainError):
        fixed_frame(shell, 0.0)


# ---------------------------------------------------------------------------
# delta_at closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rho", [-0.5, 0.5, 1.0, 3.0])
def test_delta_balanced_duffing_is_xi_cos2theta(rho, rng):
    fr = balanced_frame(_duffing_shell(rho))
    theta = rng.uniform(0.0, 2.0 * np.pi, 1000)
    expected = fr.xi * np.cos(2.0 * theta)
    assert np.max(np.abs(delta_at(fr, theta) - expected)) <= 1e-12
    assert delta_at(fr, np.pi / 4.0) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("lam,energy", [(1.0, 0.15), (1.0, 0.01), (-1.0, 0.1)])
def test_delta_balanced_cubic_is_xi_costheta(lam, energy, rng):
    fr = balanced_frame(turning_points(cubic_potential(lam), energy))
    theta = rng.uniform(0.0, 2.0 * np.pi, 1000)
    expected = fr.xi * np.cos(theta)
    assert np.max(np.abs(delta_at(fr, theta) - expected)) <= 1e-12
    assert delta_at(fr, np.pi / 2.0) == pytest.approx(0.0, abs=1e-14)


def test_delta_nayfeh_duffing_is_minus_xi_sin2(rng):
    fr = nayfeh_frame(_duffing_shell(1.0))
    theta = rng.uniform(0.0, 2.0 * np.pi, 1000)
    expected = -fr.xi * np.sin(theta) ** 2
    assert np.max(np.abs(delta_at(fr, theta) - expected)) <= 1e-12


def test_delta_harmonic_identically_zero(rng):
    fr = balanced_frame(turning_points(harmonic_potential(), 0.5))
    theta = rng.uniform(0.0, 2.0 * np.pi, 200)
    assert np.max(np.abs(delta_at(fr, theta))) <= 1e-15


def test_delta_endpoints_map_to_turning_points(rng):
    for U, energy, shell in random_wells(rng, 10):
        fr = balanced_frame(shell)
        assert x_of_theta(shell, 0.0) == pytest.approx(shell.x_plus, rel=1e-14)
        assert x_of_theta(shell, np.pi) == pytest.approx(shell.x_minus, rel=1e-14)
        w2 = fr.omega ** 2
        at_plus = (2.0 * shell.residual_at(shell.x_plus) - w2) / w2
        at_minus = (2.0 * shell.residual_at(shell.x_minus) - w2) / w2
        assert delta_at(fr, 0.0) == pytest.approx(at_plus, rel=1e-12, abs=1e-14)
        assert delta_at(fr, np.pi) == pytest.approx(at_minus, rel=1e-12, abs=1e-14)


# ---------------------------------------------------------------------------
# Frame independence of the exact quadrature
# ---------------------------------------------------------------------------

def test_quadrature_invariant_under_frame_choice():
    shell = _duffing_shell(1.0)
    t_balanced = period_quadrature(balanced_frame(shell)).T
    t_nayfeh = period_quadrature(nayfeh_frame(shell)).T
    t_fixed = period_quadrature(fixed_frame(shell, 1.0)).T
    assert t_nayfeh == pytest.approx(t_balanced, rel=1e-10)
    assert t_fixed == pytest.approx(t_balanced, rel=1e-10)

    # Nayfeh's |Delta| < 1 is not required for the exact integral.
    soft = _duffing_shell(-0.9)
    t_b = period_quadrature(balanced_frame(soft)).T
    t_n = period_quadrature(nayfeh_frame(soft)).T
    assert t_n == pytest.approx(t_b, rel=1e-10)

    cub = turning_points(cubic_potential(1.0), 0.15)
    t_b = period_quadrature(balanced_frame(cub)).T
    t_f = period_quadrature(fixed_frame(cub, 1.0)).T
    assert t_f == pytest.approx(t_b, rel=1e-10)


@pytest.mark.parametrize("omega", [math.nan, math.inf])
def test_fixed_frame_rejects_non_finite_omega(omega):
    with pytest.raises(DomainError, match="finite"):
        fixed_frame(_duffing_shell(1.0), omega)


def test_frame_extrema_are_the_shells():
    shell = turning_points(cubic_potential(1.0), 0.1)
    for fr in (balanced_frame(shell), fixed_frame(shell, 0.9)):
        assert (fr.R_min, fr.R_max, fr.argmin_R, fr.argmax_R) == shell.residual_extrema
        w2 = fr.omega * fr.omega
        assert fr.delta_min == 2.0 * fr.R_min / w2 - 1.0
        assert fr.delta_max == 2.0 * fr.R_max / w2 - 1.0
