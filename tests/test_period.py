"""Period layer: quadrature, binomial series, the elliptic period, regimes.

Reference values marked "oracle" were computed with 40-digit mpmath
quadrature/root-finding of the defining integrals, independent of every code
path under test.
"""

import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from periodlab import (
    BALANCED,
    BOUNDARY,
    CONVERGENT,
    DIVERGENT,
    ConvergenceError,
    DomainError,
    EnergyShell,
    NoMinimumError,
    SeparatrixError,
    balanced_frame,
    best_series,
    binom_minus_half,
    cubic_elliptic,
    cubic_potential,
    cubic_series_balanced,
    duffing_balanced_large_rho_limit,
    duffing_elliptic,
    duffing_large_rho_constant,
    duffing_potential,
    duffing_series_balanced,
    duffing_series_nayfeh,
    elliptic_K,
    elliptic_period,
    fixed_frame,
    from_physical,
    harmonic_potential,
    nayfeh_frame,
    period_from_series,
    period_quadrature,
    period_series_generic,
    turning_points,
)
from periodlab.frame import frame_columns
from periodlab.period import _period_columns, series_columns
from periodlab.potential import shell_columns

# mpmath oracle values (40 significant digits at computation time)
K_HALF = 1.8540746773013719
K_NEAR_ONE = 8.294051463601062         # K(float 0.999999)
LARGE_RHO_CONST = 7.4162987092054877   # 4 * int_0^pi dtheta/sqrt(3 + cos 2theta)
T_DUFFING_RHO_1 = 4.768022029102461
T_DUFFING_RHO_M09 = 12.40871722558533
T_CUBIC_E015 = 8.417251885913373

SQRT2 = math.sqrt(2.0)


def _duffing_shell(rho: float):
    U = duffing_potential(rho)
    return turning_points(U, float(U(1.0)))


def _K_defining_integral(m: float) -> float:
    # independent adaptive (tanh-sinh) quadrature of the defining integral;
    # endpoint-aware, so m close to 1 is handled without special casing
    mp.mp.dps = 30
    return float(mp.quad(lambda a: 1 / mp.sqrt(1 - m * mp.sin(a) ** 2),
                         [0, mp.pi / 2]))


# ---------------------------------------------------------------------------
# elliptic_K
# ---------------------------------------------------------------------------

def test_elliptic_K_zero():
    assert elliptic_K(0.0) == pytest.approx(math.pi / 2.0, rel=1e-15)


def test_elliptic_K_half_against_quadrature():
    k = elliptic_K(0.5)
    assert k == pytest.approx(_K_defining_integral(0.5), rel=1e-13)
    assert k == pytest.approx(K_HALF, rel=1e-15)


def test_elliptic_K_near_one_against_quadrature():
    k = elliptic_K(0.999999)
    assert k == pytest.approx(_K_defining_integral(0.999999), rel=1e-10)
    assert k == pytest.approx(_K_defining_integral(0.999999), rel=1e-13)
    assert k == pytest.approx(K_NEAR_ONE, rel=1e-13)


@pytest.mark.parametrize("m", [-0.1, 1.0, 1.5])
def test_elliptic_K_domain(m):
    with pytest.raises(DomainError):
        elliptic_K(m)


def test_elliptic_period_matches_defining_integral():
    # Cubic: T = sqrt(3/(2 lam)) 4 K(k^2) / sqrt(x_plus - x3), k^2 = (x_plus -
    # x_minus)/(x_plus - x3), with x3 from a root solve of Q and K from its
    # defining integral.
    shell = turning_points(cubic_potential(1.0), 0.15)
    mp.mp.dps = 30
    x3 = min(float(mp.re(r)) for r in mp.polyroots([-mp.mpf(1) / 3, -mp.mpf(1) / 2, 0,
                                                      mp.mpf(0.15)]))
    k2 = (shell.x_plus - shell.x_minus) / (shell.x_plus - x3)
    legendre = math.sqrt(1.5) * 4.0 / math.sqrt(shell.x_plus - x3) * _K_defining_integral(k2)
    assert elliptic_period(shell).T == pytest.approx(legendre, rel=1e-13)

    # Softening quartic, rho = -0.9: T = (4/sqrt(1 + rho)) int dphi / sqrt(1 + 4.5 sin^2).
    mp.mp.dps = 30
    direct = float(mp.quad(lambda a: 1 / mp.sqrt(1 + mp.mpf("4.5") * mp.sin(a) ** 2),
                           [0, mp.pi / 2]))
    assert duffing_elliptic(-0.9).T == pytest.approx(4.0 / math.sqrt(0.1) * direct, rel=1e-13)


def test_elliptic_period_near_the_cubic_barrier_against_root_solve():
    # 1e-6 below the barrier x3 lies just below x_minus; the Legendre form on
    # a 30-digit root solve of Q agrees with the AGM on the float shell.
    energy = 1.0 / 6.0 - 1e-6
    shell = turning_points(cubic_potential(1.0), energy)
    with mp.workdps(30):
        x3 = min(mp.re(r) for r in mp.polyroots([-mp.mpf(1) / 3, -mp.mpf(1) / 2, 0,
                                                   mp.mpf(energy)]))
        assert -1.002 < x3 < shell.x_minus
        xp, xm = mp.mpf(shell.x_plus), mp.mpf(shell.x_minus)
        legendre = mp.sqrt(mp.mpf(1.5)) * 4 / mp.sqrt(xp - x3) * mp.ellipk((xp - xm) / (xp - x3))
    assert elliptic_period(shell).T == pytest.approx(float(legendre), rel=1e-10)


@pytest.mark.parametrize("call, message", [
    (lambda: cubic_potential(0.0), "requires lam != 0"),
    (lambda: cubic_series_balanced(turning_points(duffing_potential(1.0), 0.5), 8),
     "requires a canonical cubic shell"),
    (lambda: EnergyShell(0.1, 0.5, -0.5, [1.0]), "turning points out of order"),
], ids=["cubic lam 0", "cubic series of a quartic shell", "shell out of order"])
def test_library_input_errors_are_domain_errors(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_elliptic_period_rejects_degree_above_four():
    shell = turning_points(from_physical([0.0, 0.0, 0.5, 0.1, -0.05, 0.02, 0.1]), 0.3)
    with pytest.raises(DomainError, match="degree at most 4, not 6"):
        elliptic_period(shell)


# ---------------------------------------------------------------------------
# period_quadrature
# ---------------------------------------------------------------------------

def test_quadrature_harmonic_two_pi():
    fr = balanced_frame(turning_points(harmonic_potential(), 0.5))
    res = period_quadrature(fr)
    assert res.T == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert res.Omega * res.T == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert res.method == "quadrature"


def test_quadrature_duffing_against_oracle():
    res = period_quadrature(balanced_frame(_duffing_shell(1.0)))
    assert res.T == pytest.approx(T_DUFFING_RHO_1, rel=1e-13)
    assert res.err_estimate <= 1e-12 * res.T


def test_quadrature_respects_custom_tolerance():
    fr = balanced_frame(_duffing_shell(1.0))
    loose = period_quadrature(fr, tol=1e-6)
    assert loose.T == pytest.approx(T_DUFFING_RHO_1, rel=1e-6)


def test_quadrature_raises_on_nonpositive_radicand():
    # Hand-built shell whose "residual" goes negative inside the interval.
    bad = EnergyShell(energy=1.0, x_minus=-1.0, x_plus=1.0,
                      residual=np.array([0.5, 0.8]))
    with pytest.raises(SeparatrixError):
        period_quadrature(fixed_frame(bad, 1.0))


def test_large_rho_constant_value():
    c = duffing_large_rho_constant()
    assert c == pytest.approx(LARGE_RHO_CONST, rel=1e-13)
    assert abs(c - 7.4162987) <= 5e-7


# ---------------------------------------------------------------------------
# Balanced quartic series
# ---------------------------------------------------------------------------

def _T0(rho):
    return 4.0 * math.pi / math.sqrt(4.0 + 3.0 * rho)


def _T1(rho):
    return math.pi * (147.0 * rho ** 2 + 384.0 * rho + 256.0) / (
        4.0 * (4.0 + 3.0 * rho) ** 2.5)


@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0, 10.0])
def test_duffing_balanced_truncations_match_closed_formulas(rho):
    s0 = duffing_series_balanced(rho, 0)
    s1 = duffing_series_balanced(rho, 1)
    assert SQRT2 * s0.partial_sums[0] == pytest.approx(_T0(rho), rel=1e-12)
    assert SQRT2 * s1.partial_sums[-1] == pytest.approx(_T1(rho), rel=1e-12)


def test_duffing_balanced_harmonic_is_exact():
    s = duffing_series_balanced(0.0, 12)
    assert all(t == 0.0 for t in s.terms[1:])
    assert SQRT2 * s.partial_sums[-1] == pytest.approx(2.0 * math.pi, rel=1e-14)


def test_duffing_balanced_converges_to_elliptic():
    for rho in [-0.9, -0.5, 0.5, 1.0, 10.0, 1000.0]:
        s = duffing_series_balanced(rho, 60)
        assert s.regime == CONVERGENT
        assert s.converged
        T = SQRT2 * s.partial_sums[-1]
        assert T == pytest.approx(duffing_elliptic(rho).T, rel=1e-11)


def test_duffing_balanced_large_rho_limits():
    lim0 = duffing_balanced_large_rho_limit(0)
    lim1 = duffing_balanced_large_rho_limit(1)
    assert lim0 == pytest.approx(4.0 * math.pi / math.sqrt(3.0), rel=1e-15)
    assert lim1 == pytest.approx(49.0 * math.sqrt(3.0) * math.pi / 36.0, rel=1e-15)
    assert abs(lim0 - 7.26) <= 0.005
    assert abs(lim1 - 7.406) <= 0.0005
    # the truncations actually attain their limits at huge rho
    rho = 1e8
    for n, lim in [(0, lim0), (1, lim1)]:
        s = duffing_series_balanced(rho, n)
        assert math.sqrt(rho) * SQRT2 * s.partial_sums[-1] == pytest.approx(lim, rel=1e-7)


def test_duffing_balanced_rejects_beyond_limit():
    with pytest.raises(SeparatrixError):
        duffing_series_balanced(-1.0, 5)
    with pytest.raises(SeparatrixError):
        duffing_series_balanced(-1.5, 5)


# ---------------------------------------------------------------------------
# Nayfeh-frame series
# ---------------------------------------------------------------------------

def test_duffing_nayfeh_harmonic():
    s = duffing_series_nayfeh(0.0, 8)
    assert SQRT2 * s.partial_sums[-1] == pytest.approx(2.0 * math.pi, rel=1e-14)


def test_duffing_nayfeh_geometric_error_decay():
    # |I^(N) - I| = O((1/4)^N) at rho = 1.
    I_exact = duffing_elliptic(1.0).T / SQRT2
    s = duffing_series_nayfeh(1.0, 12)
    errs = [abs(p - I_exact) for p in s.partial_sums]
    for n in range(2, 8):
        assert 0.1 <= errs[n] / errs[n - 1] <= 0.3
    assert errs[8] <= 0.3 ** 8 * I_exact


def test_duffing_nayfeh_divergence_flagging():
    s = duffing_series_nayfeh(-0.8, 10)
    assert s.regime == DIVERGENT
    assert s.xi == pytest.approx(-2.0, rel=1e-13)
    assert not s.converged
    # growing terms are visible
    assert abs(s.terms[9]) > abs(s.terms[4]) > abs(s.terms[1])

    assert duffing_series_nayfeh(-2.0 / 3.0, 4).regime == BOUNDARY
    assert duffing_series_nayfeh(-0.6, 4).regime == CONVERGENT


def test_regime_partition_matches_convergence_domains():
    # Nayfeh diverges exactly on (-1, -2/3); balanced converges on (-1, inf).
    for rho in [-0.95, -0.8, -0.7]:
        assert duffing_series_nayfeh(rho, 4).regime == DIVERGENT
        assert duffing_series_balanced(rho, 4).regime == CONVERGENT
    for rho in [-0.6, 0.0, 5.0]:
        assert duffing_series_nayfeh(rho, 4).regime == CONVERGENT
        assert duffing_series_balanced(rho, 4).regime == CONVERGENT


# ---------------------------------------------------------------------------
# Elliptic closed forms
# ---------------------------------------------------------------------------

def test_duffing_elliptic_values():
    assert duffing_elliptic(0.0).T == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert duffing_elliptic(1.0).T == pytest.approx(T_DUFFING_RHO_1, rel=1e-14)
    assert duffing_elliptic(-0.9).T == pytest.approx(T_DUFFING_RHO_M09, rel=1e-13)


@pytest.mark.parametrize("rho", [-0.9, -0.3, 0.25, 1.0, 10.0, 1e3])
def test_duffing_elliptic_matches_quadrature(rho):
    t_quad = period_quadrature(balanced_frame(_duffing_shell(rho))).T
    assert duffing_elliptic(rho).T == pytest.approx(t_quad, rel=1e-12)


def test_duffing_elliptic_large_rho_limit():
    rho = 1e10
    assert math.sqrt(rho) * duffing_elliptic(rho).T == pytest.approx(
        LARGE_RHO_CONST, rel=1e-9)


def test_duffing_elliptic_rejects_beyond_limit():
    with pytest.raises(SeparatrixError):
        duffing_elliptic(-1.0)


def test_cubic_elliptic_harmonic_limit():
    shell = turning_points(cubic_potential(1.0), 1e-12)
    assert cubic_elliptic(shell).T == pytest.approx(2.0 * math.pi, abs=1e-9)


def test_cubic_elliptic_at_reference_energy():
    shell = turning_points(cubic_potential(1.0), 0.15)
    res = cubic_elliptic(shell)
    assert res.T == pytest.approx(T_CUBIC_E015, rel=1e-13)
    t_quad = period_quadrature(balanced_frame(shell)).T
    assert res.T == pytest.approx(t_quad, rel=1e-11)


def test_cubic_elliptic_negative_lambda_via_parity():
    t_neg = cubic_elliptic(turning_points(cubic_potential(-1.0), 0.15)).T
    assert t_neg == pytest.approx(T_CUBIC_E015, rel=1e-13)


def test_cubic_separatrix_modulus_reaches_one_and_rejects():
    shell = EnergyShell(
        energy=1.0 / 6.0, x_minus=-1.0, x_plus=0.5,
        residual=np.array([1.0 / 3.0, 1.0 / 3.0]), family="cubic",
    )
    # k^2 = (x_plus - x_minus)/(x_plus - x3) = 1 exactly at the barrier, and
    # so R(x_minus)/R(x_plus) = 1 - k^2 = 0
    with pytest.raises(SeparatrixError):
        elliptic_period(shell)
    with pytest.raises(SeparatrixError):
        cubic_series_balanced(shell, 8)


# ---------------------------------------------------------------------------
# Balanced cubic series
# ---------------------------------------------------------------------------

def test_cubic_series_harmonic_limit():
    shell = turning_points(cubic_potential(1.0), 1e-10)
    s = cubic_series_balanced(shell, 6)
    assert SQRT2 * s.partial_sums[-1] == pytest.approx(2.0 * math.pi, abs=1e-8)
    assert abs(s.xi) < 1e-4


def test_cubic_series_matches_elliptic():
    # xi = 0.6347 here, so nine terms leave a truncation of ~8e-5; the
    # sub-1e-6 regime is reached from N = 13 on (verified in extended
    # precision), with the geometric tail estimate tracking the true error.
    shell = turning_points(cubic_potential(1.0), 0.15)
    s8 = cubic_series_balanced(shell, 8)
    err8 = abs(SQRT2 * s8.partial_sums[-1] - T_CUBIC_E015)
    assert err8 <= 1e-4
    assert err8 <= 2.0 * SQRT2 * s8.truncation_error
    s13 = cubic_series_balanced(shell, 13)
    assert abs(SQRT2 * s13.partial_sums[-1] - T_CUBIC_E015) <= 1e-6
    s = cubic_series_balanced(shell, 40)
    assert s.converged
    assert SQRT2 * s.partial_sums[-1] == pytest.approx(T_CUBIC_E015, rel=1e-11)


def test_cubic_series_monotone_near_separatrix():
    # Slowly convergent but monotone: all terms are positive.
    shell = turning_points(cubic_potential(1.0), 1.0 / 6.0 - 1e-3)
    s = cubic_series_balanced(shell, 30)
    assert s.regime == CONVERGENT
    t_quad = period_quadrature(balanced_frame(shell)).T
    gaps = [t_quad - SQRT2 * p for p in s.partial_sums]
    assert all(g > 0 for g in gaps)
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))


# ---------------------------------------------------------------------------
# Generic series vs closed forms
# ---------------------------------------------------------------------------

def _nonzero(terms, floor):
    return [t for t in terms if abs(t) > floor]


@pytest.mark.parametrize("rho", [1.0, -0.5, 4.0])
def test_generic_matches_balanced_duffing_termwise(rho):
    shell = _duffing_shell(rho)
    generic = period_series_generic(balanced_frame(shell), 24)
    closed = duffing_series_balanced(rho, 12)
    g = _nonzero(generic.terms, 1e-13 * abs(generic.terms[0]))
    for a, b in list(zip(g, closed.terms))[:10]:
        assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("energy", [0.05, 0.15])
def test_generic_matches_balanced_cubic_termwise(energy):
    shell = turning_points(cubic_potential(1.0), energy)
    generic = period_series_generic(balanced_frame(shell), 24)
    closed = cubic_series_balanced(shell, 12)
    g = _nonzero(generic.terms, 1e-13 * abs(generic.terms[0]))
    for a, b in list(zip(g, closed.terms))[:10]:
        assert a == pytest.approx(b, rel=1e-12)


def test_generic_matches_nayfeh_termwise():
    shell = _duffing_shell(1.0)
    generic = period_series_generic(nayfeh_frame(shell), 12)
    closed = duffing_series_nayfeh(1.0, 12)
    for a, b in list(zip(generic.terms, closed.terms))[:10]:
        assert a == pytest.approx(b, rel=1e-12)


def test_generic_on_harmonic_all_higher_terms_vanish():
    fr = balanced_frame(turning_points(harmonic_potential(), 0.5))
    s = period_series_generic(fr, 10)
    assert s.partial_sums[-1] == pytest.approx(SQRT2 * math.pi, rel=1e-14)
    assert all(abs(t) <= 1e-15 for t in s.terms[1:])


def test_generic_divergent_regime_flagged():
    shell = _duffing_shell(-0.8)
    s = period_series_generic(nayfeh_frame(shell), 10)
    assert s.regime == DIVERGENT


def test_generic_handles_general_polynomial():
    from periodlab import from_physical

    U = from_physical([0.0, 0.0, 0.4, -0.3, 0.2, 0.05, 0.01])
    shell = turning_points(U, 0.35)
    fr = balanced_frame(shell)
    assert fr.xi is None
    s = period_series_generic(fr, 40)
    assert s.converged
    t_series = SQRT2 * s.partial_sums[-1]
    t_quad = period_quadrature(fr).T
    assert t_series == pytest.approx(t_quad, rel=1e-10)


# ---------------------------------------------------------------------------
# Series bookkeeping
# ---------------------------------------------------------------------------

def test_partial_sums_are_cumulative():
    s = duffing_series_balanced(0.7, 20)
    assert np.allclose(np.cumsum(s.terms), s.partial_sums, rtol=0, atol=0)


def test_early_stopping_caps_work():
    s = duffing_series_balanced(0.001, 40)
    assert len(s.terms) < 12
    assert s.converged
    assert s.truncation_error <= 1e-14


def test_binomial_recurrence_values():
    b = binom_minus_half(4)
    assert b[0] == 1.0
    assert b[1] == -0.5
    assert b[2] == pytest.approx(3.0 / 8.0, rel=1e-15)
    assert b[3] == pytest.approx(-5.0 / 16.0, rel=1e-15)
    assert b[4] == pytest.approx(35.0 / 128.0, rel=1e-15)
    # Each call returns its own writable array.
    b[0] = 2.0
    assert binom_minus_half(4)[0] == 1.0


def test_period_from_series_scaling():
    s = duffing_series_balanced(1.0, 30)
    res = period_from_series(s, omega0=2.0)
    assert res.T == pytest.approx(T_DUFFING_RHO_1 / 2.0, rel=1e-12)
    assert res.Omega * res.T == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_best_series_dispatch():
    duff = _duffing_shell(1.0)
    cub = turning_points(cubic_potential(1.0), 0.1)
    assert best_series(duff, balanced_frame(duff), 8).terms == \
        duffing_series_balanced(1.0, 8).terms
    assert best_series(duff, nayfeh_frame(duff), 8).terms == \
        duffing_series_nayfeh(1.0, 8).terms
    assert best_series(cub, balanced_frame(cub), 8).terms == \
        cubic_series_balanced(cub, 8).terms
    fixed = fixed_frame(duff, 1.0)
    generic = best_series(duff, fixed, 8)
    assert generic.terms == period_series_generic(fixed, 8).terms


# ---------------------------------------------------------------------------
# Cross-method agreement grid (module invariant)
# ---------------------------------------------------------------------------

def test_cross_method_agreement_grid():
    eps_floor = 8.0 * np.finfo(float).eps
    for rho in [-0.9, -0.5, 0.0, 0.5, 1.0, 10.0, 1e3]:
        fr = balanced_frame(_duffing_shell(rho))
        t_quad = period_quadrature(fr).T
        res_ell = duffing_elliptic(rho)
        assert abs(t_quad - res_ell.T) <= 1e-10 * t_quad
        s = duffing_series_balanced(rho, 80)
        assert s.converged
        t_series = SQRT2 * s.partial_sums[-1]
        budget = max(10.0 * SQRT2 * s.truncation_error, eps_floor * t_quad)
        assert abs(t_series - t_quad) <= budget

    for energy in [0.01, 0.1, 0.15, 1.0 / 6.0 - 1e-4]:
        shell = turning_points(cubic_potential(1.0), energy)
        t_quad = period_quadrature(balanced_frame(shell)).T
        assert abs(t_quad - cubic_elliptic(shell).T) <= 1e-10 * t_quad
        s = cubic_series_balanced(shell, 600)
        t_series = SQRT2 * s.partial_sums[-1]
        budget = max(10.0 * SQRT2 * s.truncation_error, eps_floor * t_quad)
        assert abs(t_series - t_quad) <= budget


# ---------------------------------------------------------------------------
# Geometric error decay of the balanced series (extended precision)
# ---------------------------------------------------------------------------

def _mp_balanced_partial_sums(rho, n_max):
    mp.mp.dps = 60
    rho = mp.mpf(rho)
    xi = rho / (4 + 3 * rho)
    pref = 2 * mp.sqrt(2) * mp.pi / mp.sqrt(4 + 3 * rho)
    b = [mp.mpf(1)]
    for j in range(2 * n_max + 1):
        b.append(b[-1] * (mp.mpf(-1) / 2 - j) / (j + 1))
    sums, s = [], mp.mpf(0)
    for j in range(n_max + 1):
        s += pref * (-1) ** j * b[j] * b[2 * j] * xi ** (2 * j)
        sums.append(s)
    return sums


def test_balanced_series_geometric_decay_rho_one():
    # True error ratios approach xi^2 = 1/49 from below; double precision
    # saturates near N = 8, so the per-N ratios are checked in 60-digit
    # arithmetic after verifying the float partial sums against it.
    xi2 = (1.0 / 7.0) ** 2
    sums_mp = _mp_balanced_partial_sums(1.0, 12)
    s = duffing_series_balanced(1.0, 12)
    for ps_float, ps_mp in zip(s.partial_sums, sums_mp):
        assert ps_float == pytest.approx(float(ps_mp), rel=1e-13)

    mp.mp.dps = 60
    I = 4 * mp.ellipk(mp.mpf(1) / 4) / mp.sqrt(2) / mp.sqrt(2)
    errs = [abs(p - I) for p in sums_mp]
    ratios = [float(errs[n] / errs[n - 1]) for n in range(1, 11)]
    # per-step ratio inside the 20% band from N = 4 on, approaching xi^2
    for n in range(4, 11):
        assert abs(ratios[n - 1] - xi2) <= 0.2 * xi2
    assert all(r1 < r2 for r1, r2 in zip(ratios[2:], ratios[3:]))
    # window-average decay rate over N = 3..10 also inside the band
    mean_ratio = float((errs[10] / errs[2]) ** (mp.mpf(1) / 8))
    assert abs(mean_ratio - xi2) <= 0.2 * xi2

    # float-level spot check where double precision is still clean
    I_f = duffing_elliptic(1.0).T / SQRT2
    errs_f = [abs(p - I_f) for p in s.partial_sums]
    for n in (4, 5):
        assert abs(errs_f[n] / errs_f[n - 1] - xi2) <= 0.2 * xi2


def test_large_rho_constant_is_the_elliptic_limit():
    c = duffing_large_rho_constant()
    assert c == 4.0 * elliptic_K(0.5)
    assert c == pytest.approx(float(4 * mp.ellipk(0.5)), rel=2e-16)
    rho = 1e12
    assert math.sqrt(rho) * duffing_elliptic(rho).T == pytest.approx(c, rel=1e-11)


@pytest.mark.parametrize("lam", [-1.0, 1.0])
def test_cubic_series_xi_has_the_sign_of_the_balanced_frame(lam):
    shell = turning_points(cubic_potential(lam), 0.15)
    frame = balanced_frame(shell)
    series = cubic_series_balanced(shell, 20)
    assert math.copysign(1.0, series.xi) == math.copysign(1.0, frame.xi) == lam
    assert series.xi == pytest.approx(frame.xi, rel=1e-15)
    # The mirrored well's shell: x -> -x swaps and negates the turning points
    # and negates the linear residual coefficient.
    mirrored = cubic_series_balanced(EnergyShell(
        energy=shell.energy, x_minus=-shell.x_plus, x_plus=-shell.x_minus,
        residual=shell.residual * [1.0, -1.0], family="cubic"), 20)
    assert mirrored.xi == -series.xi
    assert mirrored.partial_sums == series.partial_sums


@settings(max_examples=200, deadline=None)
@given(st.floats(-3.0, 2.0), st.floats(-9.0, -1.0))
def test_cubic_xi_is_one_formula_exactly_opposite_on_mirrored_wells(log_lam, log_gap):
    """The balanced frame and the series read one xi, formed where the
    residual rises: mirrored wells, whose shells are exact mirrors, get
    exactly opposite xi, and a shell gets a Python float."""
    lam = 10.0 ** log_lam
    energy = cubic_potential(lam).barrier.barrier_energy * (1.0 - 10.0 ** log_gap)
    found = []
    for U in (cubic_potential(lam), cubic_potential(-lam)):
        shell = turning_points(U, energy)
        frame = balanced_frame(shell)
        assert type(frame.xi) is float
        assert best_series(shell, frame, 8).xi == frame.xi
        assert frame_columns(BALANCED, shell_columns(U, [energy]))[1].tolist() == [frame.xi]
        found.append((shell, frame.xi))
    (shell, xi), (mirror, mirror_xi) = found
    assert (mirror.x_minus, mirror.x_plus) == (-shell.x_plus, -shell.x_minus)
    assert mirror_xi == -xi


# ---------------------------------------------------------------------------
# Quadrature against a 40-digit reference on the same shell
# ---------------------------------------------------------------------------

def _mp_period_on_shell(shell):
    """``sqrt(2) int_0^pi dtheta / sqrt(R(x(theta)))`` at 40 digits, from the
    shell's own float turning points and residual."""
    with mp.workdps(40):
        c = [mp.mpf(float(v)) for v in shell.residual[::-1]]
        mid = (mp.mpf(shell.x_plus) + mp.mpf(shell.x_minus)) / 2
        half = (mp.mpf(shell.x_plus) - mp.mpf(shell.x_minus)) / 2
        # near a barrier a zero of R approaches x_minus, where theta = pi
        cuts = [0, mp.pi / 2, mp.pi - mp.mpf("1e-2"), mp.pi - mp.mpf("1e-4"), mp.pi]
        return mp.sqrt(2) * mp.quad(lambda t: 1 / mp.sqrt(mp.polyval(c, mid + half * mp.cos(t))),
                                    cuts)


def _shell_golden_set():
    for rho in (-0.9999, -0.9, 0.5, 1.0, 10.0, 1e3, 1e6):
        yield _duffing_shell(rho)
    for lam in (1.0, -1.0, 0.3):
        U = cubic_potential(lam)
        for gap in (1e-1, 1e-4, 1e-6, 1e-8):
            yield turning_points(U, (1.0 - gap) / (6.0 * lam * lam))
    sextic = from_physical([0.0, 0.0, 0.8, -0.6, 0.4, 0.1, 0.02])
    for energy in (0.1, 0.5, 2.0):
        yield turning_points(sextic, energy)
    barrier = from_physical([0.0, 0.0, 0.5, 0.05, 0.1, -0.02, -0.1])
    top = barrier.barrier.barrier_energy
    for gap in (0.5, 1e-4, 1e-8):
        yield turning_points(barrier, top * (1.0 - gap))


def test_quadrature_matches_a_40_digit_reference_on_the_same_shell():
    for shell in _shell_golden_set():
        T = period_quadrature(balanced_frame(shell)).T
        ref = _mp_period_on_shell(shell)
        assert float(abs(mp.mpf(T) - ref) / ref) <= 1e-13, shell


# ---------------------------------------------------------------------------
# The elliptic period against a 40-digit reference on the same shell
# ---------------------------------------------------------------------------

def _extra_root_layout(shell) -> str:
    """Where the zeros of a quadratic residual lie: a complex pair, both
    beyond one turning point, or one beyond each."""
    roots = np.roots(shell.residual[::-1])
    if np.iscomplexobj(roots) and np.any(roots.imag != 0.0):
        return "complex"
    below = int(np.count_nonzero(roots.real < shell.x_minus))
    return "both sides" if below == 1 else "one side"


def _assert_elliptic_matches_the_shell(shell):
    res = elliptic_period(shell)
    ref = _mp_period_on_shell(shell)
    assert float(abs(mp.mpf(res.T) - ref)) <= res.err_estimate, shell


@pytest.mark.parametrize("coeffs, energy, layout", [
    ([0.0, 0.0, 0.5, 0.3, 0.2], 0.4, "complex"),
    ([0.0, 0.0, 0.5, -0.6, 0.2], 0.099, "one side"),
    ([0.0, 0.0, 0.5, 0.2, -0.3], 0.05, "both sides"),
])
def test_elliptic_period_in_every_root_layout(coeffs, energy, layout):
    shell = turning_points(from_physical(coeffs), energy)
    assert _extra_root_layout(shell) == layout
    _assert_elliptic_matches_the_shell(shell)


@settings(max_examples=80, deadline=None)
@given(
    degree=st.sampled_from([2, 3, 4]),
    middle=st.floats(-0.7, 0.7),
    # A leading coefficient far below c2 has no shell yet (ROADMAP item 6).
    lead=st.floats(-0.7, 0.7).filter(lambda a: abs(a) > 1e-3),
    fraction=st.floats(0.01, 0.95),
)
def test_elliptic_period_matches_the_same_shell_on_random_wells(degree, middle, lead, fraction):
    # Degree 2 is the harmonic well, degree 3 a cubic, degree 4 any quartic:
    # a complex pair of extra roots, both on one side or one on each side.
    coeffs = [[0.0, 0.0, 0.5], [0.0, 0.0, 0.5, lead], [0.0, 0.0, 0.5, middle, lead]][degree - 2]
    try:
        U = from_physical(coeffs)
    except NoMinimumError:
        assume(False)
    barrier = U.barrier
    shell = turning_points(U, fraction * (barrier.barrier_energy if barrier.has_barrier else 2.0))
    _assert_elliptic_matches_the_shell(shell)


def test_elliptic_period_of_a_residual_with_a_double_zero():
    # R = x^2 on [1, 2]: both extra zeros at 0, and int dx / (x sqrt((2 - x)(x - 1)))
    # = pi / sqrt(2), so T = pi.
    shell = EnergyShell(energy=1.0, x_minus=1.0, x_plus=2.0, residual=[0.0, 0.0, 1.0])
    assert elliptic_period(shell).T == pytest.approx(math.pi, rel=1e-15)


def test_elliptic_period_rejects_separatrix_limits():
    # The exact cubic limit of test_acceptance.py: R(x_minus) = 0.
    limit_shell = EnergyShell(
        energy=1.0 / 6.0, x_minus=-1.0, x_plus=0.5,
        residual=np.array([1.0 / 3.0, 1.0 / 3.0]),
    )
    with pytest.raises(SeparatrixError):
        elliptic_period(limit_shell)
    for rho in (-1.0, -1.5, -3.0):
        with pytest.raises(SeparatrixError):
            duffing_elliptic(rho)


# ---------------------------------------------------------------------------
# Series on rows: a row with an error among rows summed past one block
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("strategy, one_row", [("balanced", duffing_series_balanced),
                                               ("nayfeh", duffing_series_nayfeh)])
def test_closed_form_error_row_past_one_block_of_terms(strategy, one_row):
    # Two rows take terms 131,072 at a time; the rho = 0.5 row stops in the
    # first block, and the rho = -1 row, an error, must not be read at N.  The
    # closed form reads only the family and rho of its shells, and no shell
    # solve gives a row at rho = -1, so the rows are a stand-in.
    N = 300_000
    quartic = SimpleNamespace(family="quartic", rho=np.array([0.5, -1.0]))
    T, _, err, stop, regime, errors = series_columns(quartic, strategy, None, N)
    expected = one_row(0.5, N)
    assert (T[0], err[0]) == (period_from_series(expected).T,
                              period_from_series(expected).err_estimate)
    assert (stop[0], regime[0], errors[0]) == (len(expected.terms) - 1, expected.regime, None)
    assert isinstance(errors[1], SeparatrixError) and math.isnan(T[1])


def test_generic_error_row_past_one_block_of_terms():
    U, N = duffing_potential(1.0), 1000
    shells = shell_columns(U, [0.1, 0.2])
    T, _, err, stop, _, errors = series_columns(shells, "fixed", np.array([1.0, 1e200]), N)
    expected = period_series_generic(fixed_frame(turning_points(U, 0.1), 1.0), N)
    assert (T[0], err[0], stop[0]) == (period_from_series(expected).T,
                                       period_from_series(expected).err_estimate,
                                       len(expected.terms) - 1)
    assert isinstance(errors[1], DomainError) and math.isnan(T[1])


@given(st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                          st.sampled_from([5e-324, 1e-310, 3.4e-308, 0.0, -0.0])),
                max_size=12))
def test_period_columns_match_the_array_quotient_and_overflow_quietly(periods):
    # Omega is each row's Python quotient 2 pi / T: the bits of numpy's
    # division, inf without a warning where that overflows, NaN on a failed row.
    T = np.array(periods, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        expected = np.where(T > 0.0, 2.0 * math.pi / T, math.nan)
    n = len(periods)
    got_T, omega, err, found = _period_columns(T.copy(), np.ones(n), [None] * n)
    assert omega.tobytes() == expected.tobytes()
    assert [exc is None for exc in found] == [t > 0.0 for t in periods]
    assert all(math.isnan(t) and math.isnan(e) for t, e, exc in zip(got_T, err, found) if exc)


# ---------------------------------------------------------------------------
# The series err_estimate bounds the error of every row it calls convergent
# ---------------------------------------------------------------------------

_SEXTIC = from_physical([0.0, 0.0, 0.5, 0.05, 0.1, -0.02, -0.1])


def _quartic_case(e: float, strategy: str):
    # The closed form reads only rho = 10^e - 1; its shell is the one of
    # amplitude 1, R = (2 + rho)/4 + (rho/4) x^2 on [-1, 1], which exists
    # closer to rho = -1 than a shell solve resolves.
    rho = 10.0 ** e - 1.0
    shell = SimpleNamespace(residual=np.array([0.5 + 0.25 * rho, 0.0, 0.25 * rho]),
                            x_minus=-1.0, x_plus=1.0)
    return SimpleNamespace(family="quartic", rho=np.array([rho])), shell, strategy, None


def _solved_case(U, energy: float, omega: float | None):
    shells = shell_columns(U, [energy])
    (shell,) = shells.shells()
    strategy = "balanced" if omega is None else "fixed"
    return shells, shell, strategy, frame_columns(strategy, shells, omega)[0]


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    # cubic lam = +-1 at gaps 1e-1 to 1e-8 below the barrier energy 1/6
    st.builds(lambda lam, e: _solved_case(cubic_potential(lam), (1.0 - 10.0 ** e) / 6.0, None),
              st.sampled_from([1.0, -1.0]), st.floats(-8.0, -1.0)),
    # the canonical quartic at rho in (-1 + 1e-8, 1e12)
    st.builds(_quartic_case, st.floats(-8.0, 12.0), st.sampled_from(["balanced", "nayfeh"])),
    # a sextic below its barrier, balanced and in fixed frames
    st.builds(lambda f, omega: _solved_case(_SEXTIC, f * _SEXTIC.barrier.barrier_energy, omega),
              st.floats(0.01, 0.99), st.none() | st.floats(0.5, 2.0)),
))
def test_series_err_estimate_bounds_its_error(case):
    # Against a 40-digit integral on the same float shell, at every N from 0
    # to 30: the error is within err_estimate, which bounds the terms left
    # out, plus 8 ulp of T for the rounding of the float terms and their sum,
    # which it does not count (up to about 5 ulp on the generic sextic).  A
    # row the series cannot bound, with an inf estimate or an error, is not
    # convergent.
    shells, shell, strategy, omega_ref = case
    ref = _mp_period_on_shell(shell)
    for N in range(31):
        (T,), _, (err,), _, (regime,), (error,) = series_columns(shells, strategy, omega_ref, N)
        if error is not None or err == math.inf:
            assert regime != CONVERGENT, (N, error)
            continue
        assert float(abs(mp.mpf(T) - ref)) <= err + 8.0 * math.ulp(T), (N, T, err, regime)
