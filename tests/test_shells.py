"""Batched shells: the same bits as one energy at a time, and the same errors in their slots."""

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from periodlab import (
    ConvergenceError,
    DomainError,
    NoMinimumError,
    SeparatrixError,
    barrier_info,
    cubic_potential,
    duffing_potential,
    from_physical,
    shells,
    turning_points,
)
from periodlab._poly import deflate, real_roots

WELLS = {
    "duffing+": duffing_potential(0.7),
    "duffing-": duffing_potential(-0.7),
    "cubic+": cubic_potential(1.0),
    "cubic-": cubic_potential(-1.0),
    "sextic": from_physical([0.0, 0.0, 0.5, 0.1, -0.05, 0.02, 0.1]),
    "sextic-barrier": from_physical([0.0, 0.0, 0.5, 0.05, 0.1, -0.02, -0.1]),
    # the double well of test_turning_points_picks_adjacent_roots_in_double_well
    "double": from_physical([0.0, 0.0, 0.5, -0.6, 0.1]),
}


def _bits(x):
    """Bit pattern of a shell's fields, or type and message of an error."""
    if isinstance(x, Exception):
        return type(x), str(x)
    return (
        float(x.x_minus).hex(), float(x.x_plus).hex(), x.residual.tobytes(),
        tuple(float(r).hex() for r in x.extra_roots),
        None if x.rho is None else float(x.rho).hex(),
        None if x.amplitude is None else float(x.amplitude).hex(),
        tuple(float(c).hex() for c in x.residual_critical_points),
    )


def _one_at_a_time(U, energies):
    out = []
    for energy in energies:
        try:
            out.append(turning_points(U, energy))
        except (DomainError, ConvergenceError) as exc:
            out.append(exc)
    return out


def _assert_same(U, energies):
    batch = shells(U, energies)
    assert len(batch) == len(energies)
    assert [_bits(s) for s in batch] == [_bits(s) for s in _one_at_a_time(U, energies)]
    return batch


BARRIER_WELLS = [n for n in sorted(WELLS) if barrier_info(WELLS[n]).has_barrier]


def _cap(U):
    b = barrier_info(U)
    return b.barrier_energy if b.has_barrier else 4.0


@pytest.mark.parametrize("name", sorted(WELLS))
def test_shells_match_turning_points_inside_the_band(name):
    U = WELLS[name]
    batch = _assert_same(U, np.linspace(0.01, 0.99, 40) * _cap(U))
    assert all(not isinstance(s, Exception) for s in batch)


@pytest.mark.parametrize("name", BARRIER_WELLS)
def test_shells_match_turning_points_near_the_barrier(name):
    U = WELLS[name]
    eb = barrier_info(U).barrier_energy
    gaps = [1e-4, 1e-6, 1e-8, 2e-8, 5e-8]
    batch = _assert_same(U, [eb * (1.0 - g) for g in gaps])
    assert all(not isinstance(s, Exception) for s in batch)


@pytest.mark.parametrize("name", BARRIER_WELLS)
def test_grid_across_the_barrier_gives_each_point_its_own_error(name):
    U = WELLS[name]
    eb = barrier_info(U).barrier_energy
    grid = list(np.linspace(0.5, 1.5, 21) * eb) + [eb * (1.0 - 1e-13), 0.0, -1.0]
    batch = _assert_same(U, grid)
    for energy, s in zip(grid, batch):
        if energy <= 0.0:
            assert type(s) is DomainError
        elif energy >= eb * (1.0 - 1e-12):
            assert isinstance(s, SeparatrixError)
            assert f"energy {energy} " in str(s)
        else:
            assert s.energy == energy


def test_shells_of_no_energies_is_empty():
    assert shells(WELLS["sextic"], []) == []


@settings(max_examples=60, deadline=None)
@given(
    middle=st.lists(st.floats(-0.4, 0.4), min_size=3, max_size=3),
    sextic=st.booleans(),
    lead=st.floats(-0.3, 0.3).filter(lambda a: abs(a) > 1e-3),
    fractions=st.lists(st.floats(0.001, 1.2), min_size=1, max_size=12),
)
def test_shells_match_turning_points_on_random_wells(middle, sextic, lead, fractions):
    # x^2/2 plus a cubic term and a quartic lead, or three middle terms and a sextic lead
    try:
        U = from_physical([0.0, 0.0, 0.5, *(middle if sextic else middle[:1]), lead])
    except NoMinimumError:
        assume(False)
    cap = _cap(U)
    _assert_same(U, [f * cap for f in fractions])


# ---------------------------------------------------------------------------
# The array helpers against their one-at-a-time reference
# ---------------------------------------------------------------------------

def _reference_real_roots(coeffs, imag_tol=1e-8):
    """Companion roots, then a scalar Newton polish of each real one."""
    c = npoly.polytrim(np.asarray(coeffs, dtype=float), tol=0.0)
    if c.size <= 1:
        return np.empty(0)
    rts = npoly.polyroots(c)
    xs = rts.real[np.abs(rts.imag) <= imag_tol * np.maximum(1.0, np.abs(rts))]
    dc = npoly.polyder(c)
    polished = []
    for x in xs:
        x = float(x)
        for _ in range(50):
            f = npoly.polyval(x, c)
            if f == 0.0:
                break
            df = npoly.polyval(x, dc)
            if df == 0.0:
                break
            step = f / df
            x_new = x - step
            if abs(step) <= 1e-15 * max(1.0, abs(x_new)):
                x = x_new
                break
            x = x_new
        polished.append(x)
    return np.sort(np.array(polished))


def _outcome(f, *args):
    """The bits of the roots, with every NaN as the one NaN (its sign bit is arbitrary)."""
    try:
        with np.errstate(all="ignore"):
            roots = f(*args)
        return np.where(np.isnan(roots), np.nan, roots).tobytes()
    except np.linalg.LinAlgError as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=9))
def test_real_roots_match_scalar_reference(coeffs):
    assert _outcome(real_roots, coeffs) == _outcome(_reference_real_roots, coeffs)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=7), st.floats(-3.0, 3.0))
def test_deflate_rows_match_one_row(coeffs, root):
    rows = np.array([coeffs, coeffs[::-1]])
    quot, rem = deflate(rows, np.array([root, -root]))
    for row, r, q, m in zip(rows, (root, -root), quot, rem):
        q1, m1 = deflate(row, r)
        assert q.tobytes() == q1.tobytes() and float(m).hex() == float(m1).hex()
