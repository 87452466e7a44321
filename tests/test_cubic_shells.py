"""Closed-form shells of the canonical cubic ``x^2/2 + c3 x^3``, against mpmath.

For ``|c3|`` in ``_CUBIC_RANGE`` the turning points come from the trigonometric
roots of ``3 y^2 - 2 y^3 = 54 c3^2 E`` with ``y = -3 c3 x``, finished by one
Newton step on ``Q = E - U`` evaluated by compensated Horner; the barrier is
the zero ``-c1/c2`` of U'/x.  Neither solves a polynomial.  The references are
50-digit roots of ``E - U`` in the well's float coefficients and the
complete-elliptic period over them.  A well outside the range takes the
companion path, bit for bit.
"""

import math
from unittest import mock

import mpmath as mp
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import periodlab.potential as potential
from periodlab import (
    ConvergenceError,
    balanced_frame,
    barrier_info,
    cubic_potential,
    elliptic_period,
    period_quadrature,
    turning_points,
)
from periodlab._poly import comp_horner
from periodlab.potential import _CUBIC_RANGE, shell_columns

U_ROUND = 2.0 ** -53


@mp.workdps(50)
def _roots(c3: float, energy: float) -> tuple:
    """The three roots of ``E - x^2/2 - c3 x^3``, ascending, to 50 digits."""
    roots = mp.polyroots([-mp.mpf(c3), mp.mpf(-0.5), 0, mp.mpf(energy)], maxsteps=200,
                         extraprec=300)
    return tuple(sorted(mp.re(r) for r in roots))


def _turning_points(c3: float, energy: float) -> tuple:
    """The roots next to 0: ``(x_minus, x_plus)``."""
    r = _roots(c3, energy)
    return (r[1], r[2]) if c3 > 0.0 else (r[0], r[1])


@mp.workdps(50)
def _period(c3: float, energy: float) -> float:
    """``2 sqrt 2 K(m)/sqrt(|c3| (r3 - r1))``, ``m = (r3 - r2)/(r3 - r1)``, over
    the roots of the well mirrored, where ``c3 < 0``, to ``c3 > 0``."""
    r1, r2, r3 = _roots(abs(c3), energy)
    return float(2 * mp.sqrt(2) * mp.ellipk((r3 - r2) / (r3 - r1)) / mp.sqrt(abs(c3) * (r3 - r1)))


def _bits(shell):
    return (shell.x_minus.hex(), shell.x_plus.hex(), shell.residual.tobytes(),
            tuple(float(v).hex() for v in shell.residual_extrema))


def _within_an_ulp(x: float, exact) -> bool:
    return abs(mp.mpf(x) - exact) <= math.ulp(x)


@st.composite
def _grids(draw):
    """A canonical cubic with lam = +-10^U(-3, 3), and energies either at
    relative gaps 10^U(-11, -0.05) below its barrier or down to 1e-12 E_b."""
    lam = math.copysign(10.0 ** draw(st.floats(-3.0, 3.0)), draw(st.sampled_from([-1, 1])))
    eb = barrier_info(cubic_potential(lam)).barrier_energy
    gaps = st.floats(-11.0, -0.05).map(lambda g: eb * (1.0 - 10.0 ** g))
    lows = st.floats(-12.0, -0.05).map(lambda g: eb * 10.0 ** g)
    return lam, draw(st.lists(st.one_of(gaps, lows), min_size=1, max_size=5))


@settings(max_examples=150, deadline=None)
@given(_grids())
@example((1.0, [1.0 / 6.0 * (1.0 - 1e-11), 1.0 / 6.0 * 1e-12, 0.1]))
@example((-1.0, [1.0 / 6.0 * (1.0 - 1e-11), 1.0 / 6.0 * (1.0 - 10.0 ** -0.05)]))
def test_turning_points_are_within_an_ulp_of_the_roots(grid):
    lam, energies = grid
    U = cubic_potential(lam)
    c3 = float(U.coeffs[3])
    cols = shell_columns(U, energies)
    assert cols.slots.tolist() == list(range(len(energies)))
    for shell, energy in zip(cols.shells(), energies):
        assert _bits(shell) == _bits(turning_points(U, energy))
        exact = _turning_points(c3, energy)
        assert _within_an_ulp(shell.x_minus, exact[0]) and _within_an_ulp(shell.x_plus, exact[1])
    # Q at the turning points of every row, compensated, within its a-priori
    # bound of the 50-digit value: there Q cancels to a few ulp of E.
    q = np.tile(-U.coeffs, (len(energies), 1))
    q[:, 0] += energies
    x = np.stack([cols.x_minus, cols.x_plus], axis=1)
    _assert_within_the_bound(q, x, comp_horner(q, x))


@settings(max_examples=60, deadline=None)
@given(_grids())
@example((1.0, [1.0 / 6.0 * (1.0 - 1e-8), 1.0 / 6.0 * (1.0 - 1e-10),
                1.0 / 6.0 * (1.0 - 1e-11)]))
@example((-0.3, [50.0 / 81.0 * (1.0 - 1e-8), 50.0 / 81.0 * (1.0 - 1e-11)]))
def test_quadrature_and_elliptic_periods_match_mpmath(grid):
    # The turning points are correctly rounded; what error remains comes from
    # R's float deflation, which cancels next to the barrier.  Quadrature
    # reaches its node cap below a gap of about 5e-9.
    lam, energies = grid
    U = cubic_potential(lam)
    eb, c3 = barrier_info(U).barrier_energy, float(U.coeffs[3])
    for energy in energies:
        shell = turning_points(U, energy)
        exact = _period(c3, energy)
        gap = (eb - energy) / eb
        elliptic = elliptic_period(shell).T
        if gap >= 1e-8:
            quadrature = period_quadrature(balanced_frame(shell)).T
            assert abs(quadrature - exact) <= 1e-12 * exact
            assert abs(elliptic - exact) <= 1e-12 * exact
        else:
            assert abs(elliptic - exact) <= 1e-11 * exact


def _outcome(s):
    return (type(s), str(s)) if isinstance(s, Exception) else _bits(s)


def _barrier(U):
    try:
        return U.barrier
    except ConvergenceError as exc:
        return type(exc), str(exc)


LOW, HIGH = _CUBIC_RANGE


@settings(max_examples=60, deadline=None)
@given(c3=st.one_of(st.floats(-320.0, math.log10(LOW), exclude_max=True).map(lambda p: 10.0 ** p),
                    # past 3e307, 6 c3 overflows U''
                    st.floats(math.log10(HIGH), 307.0, exclude_min=True).map(lambda p: 10.0 ** p)),
       sign=st.sampled_from([-1.0, 1.0]),
       energies=st.lists(st.floats(-35.0, 300.0).map(lambda p: 10.0 ** p), min_size=1,
                         max_size=4))
# either side of the range: the closed form at its ends, the companion path beyond
@example(c3=float(np.nextafter(LOW, 0.0)), sign=1.0, energies=[0.25, 1e-20])
@example(c3=float(np.nextafter(HIGH, math.inf)), sign=-1.0, energies=[1e-200])
def test_wells_past_the_range_take_the_companion_path(c3, sign, energies):
    _assert_companion_path(potential.PolynomialPotential([0.0, 0.0, 0.5, sign * c3]), energies)


def test_a_cubic_whose_minimum_is_off_0_takes_the_companion_path():
    # The closed forms pick the roots next to 0, and U(minimum_x) = 0 holds
    # only to 1e-8 there.
    U = potential.PolynomialPotential([0.0, 0.0, 0.5, 1.0 / 3.0], minimum_x=1e-9)
    _assert_companion_path(U, [0.1, 0.5])


def _assert_companion_path(U, energies):
    """``U`` is no closed-form cubic: its shells and barrier are those of the
    companion path, bit for bit, error messages included."""
    assert potential._closed_cubic(U) is None
    found = [_outcome(s) for s in potential.shells(U, energies)], _barrier(U)
    with mock.patch.object(potential, "_closed_cubic", lambda U: None):
        V = potential.PolynomialPotential(U.coeffs, minimum_x=U.minimum_x)
        expected = [_outcome(s) for s in potential.shells(V, energies)], _barrier(V)
    assert found == expected


def test_the_range_ends_are_closed_forms_with_a_harmonic_period():
    for c3 in (LOW, -LOW):
        U = potential.PolynomialPotential([0.0, 0.0, 0.5, c3])
        assert potential._closed_cubic(U) == c3
        shell = turning_points(U, 0.25)
        exact = _turning_points(c3, 0.25)
        assert _within_an_ulp(shell.x_minus, exact[0]) and _within_an_ulp(shell.x_plus, exact[1])
        assert abs(period_quadrature(balanced_frame(shell)).T - 2 * math.pi) <= 1e-15 * 2 * math.pi
    # At the upper end the barrier lies below the energy floor.
    assert barrier_info(potential.PolynomialPotential([0.0, 0.0, 0.5, HIGH])).barrier_energy < 1e-30


# ---------------------------------------------------------------------------
# Compensated Horner against its a-priori bound
# ---------------------------------------------------------------------------

def _gamma(k: int) -> float:
    return k * U_ROUND / (1.0 - k * U_ROUND)


@mp.workdps(50)
def _assert_within_the_bound(coeffs, x, value):
    """Row ``i`` of ``value`` is within ``u |p(x)| + gamma_2n^2 sum |c_k| |x|^k``
    of the 50-digit value of row ``i`` of ``coeffs`` at row ``i`` of ``x``."""
    n = coeffs.shape[1] - 1
    for c, xs, got in zip(coeffs.tolist(), x.tolist(), value.tolist()):
        for xi, v in zip(xs, got):
            exact = mp.fsum(mp.mpf(ck) * mp.mpf(xi) ** k for k, ck in enumerate(c))
            scale = mp.fsum(abs(mp.mpf(ck)) * abs(mp.mpf(xi)) ** k for k, ck in enumerate(c))
            assert abs(mp.mpf(v) - exact) <= U_ROUND * abs(exact) + _gamma(2 * n) ** 2 * scale


_MAGNITUDES = st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda p: 10.0 ** p))
_SIGNED = st.tuples(_MAGNITUDES, st.sampled_from([-1.0, 1.0])).map(lambda t: t[0] * t[1])


@settings(max_examples=150, deadline=None)
@given(degree=st.integers(1, 7), rows=st.integers(1, 4), points=st.integers(1, 3),
       data=st.data())
def test_compensated_horner_is_within_its_a_priori_bound(degree, rows, points, data):
    coeffs = np.array(data.draw(st.lists(st.lists(_SIGNED, min_size=degree + 1,
                                                  max_size=degree + 1),
                                         min_size=rows, max_size=rows)))
    x = np.array(data.draw(st.lists(st.lists(_SIGNED.filter(lambda v: abs(v) <= 10.0),
                                             min_size=points, max_size=points),
                                    min_size=rows, max_size=rows)))
    _assert_within_the_bound(coeffs, x, comp_horner(coeffs, x))
    # a point next to a root of its row, where Horner cancels
    root = x[:, :1]
    near = coeffs.copy()
    near[:, 0] -= np.array([comp_horner(c, r) for c, r in zip(coeffs, root)]).ravel()
    _assert_within_the_bound(near, root, comp_horner(near, root))
