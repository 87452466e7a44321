"""Closed-form shells of the canonical quartic ``x^2/2 + lam x^4/4``, against mpmath.

:func:`quartic_shells` solves no polynomial: ``A^2 = 4E/(1 + s)`` with
``s = sqrt(1 + 4 lam E)``, and the residual is ``(1 + s)/4 + (lam/4) x^2``.
The references are 40-digit mpmath values of the same formulas on the exact
float inputs, and of the complete-elliptic period.
"""

import math
import sys
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import periodlab._poly as _poly
import periodlab.potential as potential
from periodlab import (
    DomainError,
    PolynomialPotential,
    SeparatrixError,
    balanced_frame,
    barrier_info,
    duffing_potential,
    period_quadratures,
    shells,
)
from periodlab.potential import quartic_shells


@mp.workdps(40)
def _exact_amplitude(lam: float, energy: float):
    lam, energy = mp.mpf(lam), mp.mpf(energy)
    return mp.sqrt(4 * energy / (1 + mp.sqrt(1 + 4 * lam * energy)))


@mp.workdps(40)
def _elliptic_period(lam: float, energy: float) -> float:
    """The period of the well at ``energy``: ``4 K(m)/sqrt(1 + rho)``,
    ``m = rho/(2(1 + rho))``, with ``rho = lam A^2`` of the exact amplitude."""
    rho = mp.mpf(lam) * _exact_amplitude(lam, energy) ** 2
    return float(4 * mp.ellipk(rho / (2 * (1 + rho))) / mp.sqrt(1 + rho))


def _gap(lam: float, energy: float) -> float:
    """``(E_b - E)/E_b = 1 + 4 lam E`` of the softening well, exactly rounded;
    1 for a confining one."""
    return float(1 + 4 * Fraction(lam) * Fraction(energy)) if lam < 0 else 1.0


@st.composite
def _pairs(draw):
    """lam in +-[1e-300, 1e300] and E from 1e-30 to the barrier, where there is one."""
    lam = math.copysign(10.0 ** draw(st.floats(-300.0, 300.0)), draw(st.sampled_from([-1, 1])))
    if lam > 0.0:
        return lam, 10.0 ** draw(st.floats(-30.0, 308.0))
    energy = -0.25 / lam * (1.0 - 10.0 ** draw(st.floats(-11.9, -1e-3)))
    return lam, min(max(energy, 1e-30), 1e308)


@settings(max_examples=300, deadline=None)
@given(_pairs())
# 4 lam E passes the float maximum, and at the last two so does s.
@example((1e300, 1e300))
@example((1e300, 1.7e308))
@example((5.9e307, 1.7e308))
@example((8.9e307, 1.79e308))
def test_turning_point_is_within_two_ulp_of_the_root(pair):
    lam, energy = pair
    shell = quartic_shells([lam], [energy])[0]
    if isinstance(shell, SeparatrixError):  # refused only at the barrier
        assert _gap(lam, energy) <= 1.01e-12
        return
    exact = _exact_amplitude(lam, energy)
    assert abs(mp.mpf(shell.x_plus) - exact) <= 2 * math.ulp(float(exact))
    assert shell.x_minus == -shell.x_plus
    assert shell.residual_extrema[0] > 0.0


# ---------------------------------------------------------------------------
# s/2 on whole columns, against the integer routine
# ---------------------------------------------------------------------------

def _tie(draw, sign: int):
    """A pair whose ``1 + 4 lam E`` lies a quarter ulp of ``u`` off a midpoint
    of the float grid: ``4 lam E = p + e`` with ``1 + p`` the midpoint and
    ``|e| = 2^-106 / 2^z``, so that only rounding ``u + e`` to odd, not to
    nearest, rounds the sum the way its exact value does.  ``sign`` -1 puts
    ``1 + p`` in [1/2, 1), a softening well, and 1 in [1, 2)."""
    m = 1 << 53
    a = draw(st.integers(m // 2, m - 1)) | 1
    r = draw(st.sampled_from([1, -1]))
    b = r * pow(a, -1, m) % m  # a b = P 2^53 + r
    big_p = (a * b - r) >> 53
    assume(big_p >= 2)
    z = (big_p & -big_p).bit_length() - 1  # p = P 2^(53 + g) has its last bit at 2^-53 (2^-54)
    g = (-106 if sign > 0 else -107) - z
    shift = draw(st.integers(-60, 0))
    return sign * math.ldexp(a, shift - 2), math.ldexp(b, g - shift)


def _quartic_half_s(lam: float, energy: float) -> float:
    """``sqrt(1 + 4 lam E)/2``, with ``1 + 4 lam E`` formed exactly in
    integers and rounded once: the reference of ``potential._half_s``.

    Near the softening barrier ``1 + 4 lam E`` cancels.  Where it passes the
    float range, which its root does not, it is rounded scaled by ``2^-1200``.
    """
    (n_lam, d_lam), (n_e, d_e) = lam.as_integer_ratio(), energy.as_integer_ratio()
    num, den = d_lam * d_e + 4 * n_lam * n_e, d_lam * d_e
    try:
        return math.sqrt(num / (den << 2))
    except OverflowError:
        return math.sqrt(num / (den << 1202)) * 2.0 ** 600


@st.composite
def _half_s_pairs(draw):
    """Pairs that pass the energy checks: lam = 0 or +-[5e-324, 1.8e308] with
    E in [1e-30, 1e308] below any barrier; softening energies 1e-16 to 1 below
    the barrier; pairs past 2^497 in ``|lam|`` or ``E``, which ``_half_s``
    scales into range; and :func:`_tie` pairs."""
    kind = draw(st.sampled_from(["any", "softening", "past 2^497", "tie"]))
    if kind == "tie":
        return _tie(draw, draw(st.sampled_from([1, -1])))
    if kind == "softening":
        lam = -(10.0 ** draw(st.floats(-20.0, 28.0)))
        return lam, -0.25 / lam * (1.0 - 10.0 ** draw(st.floats(-11.9, 0.0)) * (1.0 - 1e-16))
    if kind == "past 2^497":
        # |lam| past 2^497, or E past it with a hardening or a softening lam
        lam, energy = draw(st.sampled_from([
            (10.0 ** draw(st.floats(149.7, 308.25)), 10.0 ** draw(st.floats(-30.0, 308.25))),
            (math.copysign(10.0 ** draw(st.floats(-323.3, 0.0)), draw(st.sampled_from([-1, 1]))),
             10.0 ** draw(st.floats(149.7, 308.25))),
        ]))
    else:
        lam = draw(st.sampled_from([0.0, math.copysign(
            10.0 ** draw(st.floats(-323.3, 308.25)), draw(st.sampled_from([-1, 1])))]))
        energy = 10.0 ** draw(st.floats(-30.0, 308.0))
    if lam < 0.0:
        energy = min(energy, -0.25 / lam * (1.0 - 1e-11))
    assume(energy >= 1e-30)
    return lam, energy


@settings(max_examples=300, deadline=None)
@given(st.lists(_half_s_pairs(), min_size=1, max_size=12))
@example([(0.0, 1e-30), (-0.0, 1e308), (5e-324, 1e308), (-5e-324, 1e-30), (-1e-310, 1e308),
          (sys.float_info.max, 1e-30), (1e300, 1e300), (1e200, 1e200), (-1.0, 0.25 * (1 - 1e-11))])
@example([(2.0 ** 497, 2.0 ** 497), (math.nextafter(2.0 ** 497, math.inf), 1.0),
          (1.0, math.nextafter(2.0 ** 497, math.inf))])
def test_half_s_on_columns_is_the_integer_routine_bit_for_bit(pairs):
    lam, energy = (np.array(column) for column in zip(*pairs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = potential._half_s(lam, energy)
    expected = [_quartic_half_s(*pair) for pair in pairs]
    assert got.tobytes() == np.array(expected).tobytes()


@st.composite
def _rhos(draw):
    """rho in (-1 + 1e-8, 1e12), as lam A^2 with A^2 = 10^k; E is rounded to a float."""
    rho = 10.0 ** draw(st.floats(-8.0, 12.0)) - 1.0
    a2 = 10.0 ** draw(st.integers(-3, 3))
    lam = rho / a2
    return lam, a2 / 2.0 + lam * a2 * a2 / 4.0


@settings(max_examples=150, deadline=None)
@given(_rhos())
@example((0.0, 0.5))
@example((1e12, 0.5 + 0.25e12))
# Next to the barrier: gaps (1 + rho)^2 of 1e-10, past the generic node cap,
# and 1.2e-12, just outside the separatrix margin.
@example((-1.0 + 1e-5, 0.5 + (-1.0 + 1e-5) / 4.0))
@example((-1.0 + 1.1e-6, 0.5 + (-1.0 + 1.1e-6) / 4.0))
def test_quadrature_on_the_shell_matches_the_elliptic_period(pair):
    lam, energy = pair
    gap = _gap(lam, energy)
    shell = quartic_shells([lam], [energy])[0]
    if isinstance(shell, SeparatrixError):  # refused only at the barrier
        assert gap <= 1.01e-12
        return
    res = period_quadratures([balanced_frame(shell)])[0]
    ref = _elliptic_period(lam, energy)
    assert abs(res.T - ref) <= 1e-13 * ref


# ---------------------------------------------------------------------------
# The shell's fields and errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam", [-0.7, 0.0, 2.0])
def test_shell_fields_are_the_closed_forms(lam):
    energy = 0.3
    shell = quartic_shells([lam], [energy])[0]
    s = math.sqrt(1 + 4 * Fraction(lam) * Fraction(energy))
    assert shell.residual.tolist() == ([(1.0 + s) / 4.0, 0.0, lam / 4.0] if lam else [0.5])
    assert shell.amplitude == shell.x_plus and shell.rho == lam * (shell.x_plus * shell.x_plus)
    r_ends = float(shell.residual_at(shell.x_plus))
    r_mid = float(shell.residual_at(0.0))
    if lam < 0.0:
        assert shell.residual_extrema == (r_ends, r_mid, shell.x_minus, 0.0)
    elif lam > 0.0:
        assert shell.residual_extrema == (r_mid, r_ends, 0.0, shell.x_minus)
    else:  # a tie: the first candidate, x_minus, wins both
        assert shell.residual_extrema == (0.5, 0.5, shell.x_minus, shell.x_minus)


# C pow, which Python's A ** 2 calls, rounds A^2 otherwise than A * A at the
# first three amplitudes, as glibc's does; past sqrt(max float), at the last
# one, A * A overflows and rho is (lam A) A.
@pytest.mark.parametrize("lam, energy", [(1.0, 0.405), (-0.5, 0.0589), (10.0, 0.064),
                                         (1e-310, 1e308)])
@mp.workdps(40)
def test_rho_is_lam_times_a_product_square(lam, energy):
    shell = quartic_shells([lam, 1.0], [energy, 0.1])[0]
    a, rho = shell.amplitude, shell.rho
    assert rho == (lam * (a * a) if a * a < math.inf else lam * a * a)
    assert abs(mp.mpf(rho) - mp.mpf(lam) * mp.mpf(a) ** 2) <= math.ulp(rho)


def test_quartic_barrier_is_closed_form():
    b = barrier_info(duffing_potential(-1.5))
    assert b.barrier_energy == -1.0 / (4.0 * -1.5)
    assert b.amplitude_limit == 1.0 / math.sqrt(1.5) == -b.barrier_x
    assert not barrier_info(duffing_potential(1e-300)).has_barrier


def test_errors_fill_their_own_slots():
    found = quartic_shells([-1.0, 1.0, -1.0, 0.0, 1.0, math.nan],
                           [0.25, 0.5, 0.1, -1.0, 1e-31, 0.5])
    assert [type(s) for s in found] == [SeparatrixError, potential.EnergyShell,
                                        potential.EnergyShell, DomainError, DomainError,
                                        DomainError]
    assert str(found[0]).startswith("energy 0.25 at or above the barrier 0.25")
    assert str(found[5]) == "lam must be finite, got nan"


def test_quartic_wells_solve_nothing(monkeypatch):
    def no_solve(coeffs):
        raise AssertionError(f"solved {coeffs}")

    monkeypatch.setattr(potential, "real_roots_rows", no_solve)
    monkeypatch.setattr(_poly, "real_roots_rows", no_solve)
    wells = [duffing_potential(lam) for lam in (-0.7, 0.0, 1e-60, 3.0)]
    energies = [0.2, 0.5, 0.5, 1.0]
    assert [shells(U, [e])[0].energy for U, e in zip(wells, energies)] == energies
    assert barrier_info(wells[0]).has_barrier


def test_shells_of_quartic_wells_are_the_closed_forms():
    lams, energies = [-0.7, 0.0, 1e-60, 3.0, 1e-300], [0.2, 0.5, 0.5, 1.0, 1e300]
    wells = [duffing_potential(lam) for lam in lams]
    for a, b in zip([shells(U, [e])[0] for U, e in zip(wells, energies)],
                    quartic_shells(lams, energies)):
        assert (a.x_plus, a.residual.tobytes(), a.residual_extrema) == (
            b.x_plus, b.residual.tobytes(), b.residual_extrema)


def test_wells_matching_the_quartic_only_within_rounding_take_the_eigensolve():
    hard = PolynomialPotential(np.array([0.0, 0.0, 0.6, 0.0, 1e12]))
    soft = PolynomialPotential(np.array([0.0, 0.0, 0.6, 0.0, -1e12]))
    assert hard.duffing_lambda is None and soft.duffing_lambda is None
    (shell,) = shells(hard, [1e-15])
    with mp.workdps(40):
        exact = mp.sqrt((mp.sqrt(mp.mpf(0.6) ** 2 + 4 * mp.mpf(1e12) * mp.mpf(1e-15))
                         - mp.mpf(0.6)) / (2 * mp.mpf(1e12)))
    assert abs(mp.mpf(shell.x_plus) - exact) <= 4 * math.ulp(float(exact))
    assert shell.residual_at_turning_points is None
    # The barrier of 0.6 x^2 - 1e12 x^4 is 0.6^2/(4e12), not -1/(4 lam).
    assert barrier_info(soft).barrier_energy == pytest.approx(0.09e-12, rel=1e-12)


def test_known_end_shells_refine_past_the_generic_node_cap():
    # Gaps of 1e-11 and 2e-12 below the barrier need more than _QUAD_NMAX nodes.
    lam = -0.7
    energies = [-0.25 / lam * (1.0 - gap) for gap in (1e-11, 0.5, 2e-12)]
    found = period_quadratures([balanced_frame(s) for s in quartic_shells([lam] * 3, energies)])
    for energy, res in zip(energies, found):
        assert abs(res.T - _elliptic_period(lam, energy)) <= 1e-13 * res.T


@settings(max_examples=100, deadline=None)
@given(st.lists(_pairs(), min_size=1, max_size=20),
       st.lists(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300]), max_size=3))
def test_closed_form_extrema_match_evaluating_the_residual(pairs, tiny_lams):
    # lam = 0 has no critical point, and lam/4 of a subnormal lam rounds to 0.
    pairs = pairs + [(lam, 0.5) for lam in tiny_lams]
    lams, energies = (np.array(col) for col in zip(*pairs))
    cols = potential._quartic_columns(lams, energies, [None] * len(pairs))
    evaluated, failed = potential._residual_extrema(cols.residual, cols.x_minus, cols.x_plus)
    # + 0.0 writes the critical point -r1/(2 r2) = -0.0 of lam > 0 as the
    # closed form's 0.0.
    assert not failed and cols.residual_extrema.tobytes() == (evaluated + 0.0).tobytes()
