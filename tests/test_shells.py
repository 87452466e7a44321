"""Batched shells: the same bits as one energy at a time, and the same errors in their slots."""

import math
import warnings
from fractions import Fraction

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from periodlab import (
    ConvergenceError,
    DomainError,
    EnergyShell,
    NoMinimumError,
    PolynomialPotential,
    SeparatrixError,
    barrier_info,
    cubic_potential,
    duffing_potential,
    from_physical,
    shells,
    turning_points,
)
from periodlab import _poly
from periodlab._poly import as_coeffs, deflate, derivative, real_roots
from periodlab.potential import shell_columns

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
        None if x.rho is None else float(x.rho).hex(),
        None if x.amplitude is None else float(x.amplitude).hex(),
        tuple(float(v).hex() for v in x.residual_extrema),
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


@pytest.mark.parametrize("name", ["sextic", "duffing-"])
def test_shells_of_no_energies_is_empty(name):
    assert shells(WELLS[name], []) == []


def test_a_failed_eigensolve_fails_only_its_own_slots():
    # E - U overflows its companion matrix at E = 1e300 only; the stacked solve
    # is redone row by row, so the other energies keep their shells.
    U = PolynomialPotential([0.0, 0.0, 0.5, 0.001, 0.0, 0.0, 1e-10])
    batch = _assert_same(U, [0.1, 1e300, 2.0])
    assert [type(s) for s in batch] == [EnergyShell, ConvergenceError, EnergyShell]
    # U' overflows its companion matrix, so the well has no barrier and every
    # slot holds that one error.
    batch = _assert_same(cubic_potential(3e-320), [0.5, -1.0, 0.2])
    assert [type(s) for s in batch] == [ConvergenceError] * 3
    assert batch[0] is batch[2]
    assert str(batch[0]).startswith("companion-matrix eigensolve failed: ")


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


def _picked(U, energy):
    """``(x_minus, x_plus)`` picked one root at a time from :func:`real_roots`
    of ``E - U``, or None where no pair brackets the minimum."""
    q = -U.coeffs.copy()
    q[0] += energy
    roots = real_roots(q).tolist()
    left = [x for x in roots if x < U.minimum_x]
    right = [x for x in roots if x > U.minimum_x]
    if not left or not right:
        return None
    x_minus, x_plus = max(left), min(right)
    if U.is_symmetric:
        half = 0.5 * (x_plus - x_minus)
        x_minus, x_plus = -half, half
    return x_minus, x_plus


def _inside(values, lo, hi):
    return [float(c) for c in values if lo < c < hi]


@settings(max_examples=100, deadline=None)
# double wells: E - U has two more roots beyond the barrier
@example(degree=4, middle=[-0.6, 0.0, 0.0], lead=0.1, fractions=[0.2, 0.9, 0.999])
@example(degree=6, middle=[0.0, -0.5, 0.0], lead=0.07, fractions=[0.3, 0.99])
@given(
    degree=st.sampled_from([3, 4, 6]),
    middle=st.lists(st.floats(-0.8, 0.8), min_size=3, max_size=3),
    lead=st.floats(-0.5, 0.5).filter(lambda a: abs(a) > 1e-3),
    fractions=st.lists(st.floats(0.001, 0.999), min_size=1, max_size=12),
)
def test_shell_columns_pick_the_roots_of_the_one_row_rule(degree, middle, lead, fractions):
    # Double wells with roots beyond the barrier included: a cubic term up to
    # 0.8 beside a positive quartic lead has a second minimum.
    U = PolynomialPotential([0.0, 0.0, 0.5, *middle[:degree - 3], lead])
    assume(U.duffing_lambda is None)  # the canonical quartic solves nothing
    energies = [f * _cap(U) for f in fractions]
    cols = shell_columns(U, energies)
    # every energy lies inside the band
    assert cols.slots.tolist() == list(range(len(energies)))
    for j, slot in enumerate(cols.slots.tolist()):
        # The canonical cubic's turning points have a closed form, held to
        # mpmath in test_cubic_shells.py; only a generic well is picked.
        if U.family == "generic":
            picked = _picked(U, energies[slot])
            assert picked is not None
            assert (float(cols.x_minus[j]).hex(), float(cols.x_plus[j]).hex()) == (
                picked[0].hex(), picked[1].hex())
        # The extrema over the turning points and the solved zeros of R'.  R'
        # of degree <= 1 has its zero in closed form, within an ulp of the
        # solved one, and R is flat there.
        residual, lo, hi = cols.residual[j], float(cols.x_minus[j]), float(cols.x_plus[j])
        xs = [lo, hi, *_inside(real_roots(derivative(residual)), lo, hi)]
        values = [float(npoly.polyval(x, residual)) for x in xs]
        i_min, i_max = int(np.argmin(values)), int(np.argmax(values))
        expected = (values[i_min], values[i_max], xs[i_min], xs[i_max])
        assert all(abs(a - b) <= math.ulp(b)
                   for a, b in zip(cols.residual_extrema[:, j].tolist(), expected))


# ---------------------------------------------------------------------------
# The array helpers against their one-at-a-time reference
# ---------------------------------------------------------------------------

def _reference_real_roots(coeffs, imag_tol=1e-8):
    """Companion roots, then a scalar Newton polish of each real one, keeping
    the roots that the polish leaves finite."""
    c = npoly.polytrim(np.asarray(coeffs, dtype=float), tol=0.0)
    if c.size <= 1:
        return np.empty(0)
    rts = npoly.polyroots(c)
    xs = rts.real[np.abs(rts.imag) <= imag_tol * np.maximum(1.0, np.abs(rts))]
    dc = npoly.polyder(c)
    polished = []
    for x in xs:
        x = float(x)
        last = np.inf
        for _ in range(50):
            f = npoly.polyval(x, c)
            if f == 0.0:
                break
            df = npoly.polyval(x, dc)
            if df == 0.0:
                break
            step = f / df
            x_new = x - step
            scale = max(1.0, abs(x_new))
            if abs(step) <= 1e-15 * scale:
                x = x_new
                break
            # A step that fails to shrink within sqrt(eps) is rounding noise.
            if abs(step) >= last and abs(step) <= np.sqrt(np.finfo(float).eps) * scale:
                break
            last = abs(step)
            x = x_new
        if math.isfinite(x):
            polished.append(x)
    return np.sort(np.array(polished))


def _outcome(f, *args):
    """The bits of the roots, with every NaN as the one NaN (its sign bit is
    arbitrary), and equal roots ordered by sign bit, -0.0 before 0.0: the
    order of equal roots is eigenvalue order in ``real_roots`` and arbitrary
    in the reference, whose ``np.sort`` is not stable."""
    try:
        with np.errstate(all="ignore"):
            roots = f(*args)
        roots = roots[np.lexsort((~np.signbit(roots), roots))]
        return np.where(np.isnan(roots), np.nan, roots).tobytes()
    except np.linalg.LinAlgError as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=9))
# 0.0 and -0.0 among three equal zero roots, in another order on each side.
@example([0.0, 4.0589380073064734e-240, 1.0, -1.0, 0.0, 0.0, 1e-15, 0.0, -1.306884350503408e-267])
def test_real_roots_match_scalar_reference(coeffs):
    assert _outcome(real_roots, coeffs) == _outcome(_reference_real_roots, coeffs)


@pytest.mark.parametrize("gap", [1e-6, 1e-8, 1e-10])
def test_polish_stops_at_the_rounding_floor_next_to_the_barrier(gap, monkeypatch):
    # Next to the barrier x_minus is a near-double root of E - U: rounding in
    # Q over a small Q' leaves Newton steps that never reach _POLISH_RTOL.
    U = cubic_potential(1.0)
    q = -U.coeffs.copy()
    q[0] += barrier_info(U).barrier_energy * (1.0 - gap)
    evaluations = []
    horner = _poly._horner

    def counted(coeffs, x):
        evaluations.append(x.size)
        return horner(coeffs, x)

    monkeypatch.setattr(_poly, "_horner", counted)
    roots = real_roots(q)
    # Two evaluations, Q and Q', per Newton iteration.
    assert len(evaluations) <= 2 * 8
    assert roots.size == 3
    monkeypatch.undo()
    assert _outcome(real_roots, q) == _outcome(_reference_real_roots, q)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=7), st.floats(-3.0, 3.0))
def test_deflate_rows_match_one_row(coeffs, root):
    rows = np.array([coeffs, coeffs[::-1]])
    quot, rem = deflate(rows, np.array([root, -root]))
    for row, r, q, m in zip(rows, (root, -root), quot, rem):
        q1, m1 = deflate(row, r)
        assert q.tobytes() == q1.tobytes() and float(m).hex() == float(m1).hex()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300]), min_size=1, max_size=7))
def test_as_coeffs_trims_as_polytrim(coeffs):
    trimmed = as_coeffs(coeffs)
    assert trimmed.tobytes() == npoly.polytrim(np.array(coeffs), tol=0.0).tobytes()
    assert not trimmed.flags.writeable


def test_as_coeffs_keeps_a_non_finite_top_coefficient():
    assert np.isnan(as_coeffs([0.0, 1.0, np.nan, 0.0])[-1])
    assert as_coeffs([0.0, 1.0, np.inf]).size == 3


# ---------------------------------------------------------------------------
# The polynomial kernel
# ---------------------------------------------------------------------------

def _float_bits(values) -> bytes:
    """The bytes of ``values`` as floats, every NaN made one NaN."""
    a = np.asarray(values, dtype=float)
    return np.where(np.isnan(a), np.nan, a).tobytes()


_ANY_FLOAT = st.floats(allow_nan=False, width=64)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ANY_FLOAT, min_size=1, max_size=7), st.lists(_ANY_FLOAT, min_size=1, max_size=5))
@example([0.0, 0.0, 0.5, 1e300], [1e300, -1e300])  # overflows to inf and to inf - inf
@example([-0.0, 2.0, -0.0], [math.inf, -0.0])
def test_polyval_gives_the_bits_of_npoly_without_a_warning(coeffs, xs):
    c, x = np.array(coeffs), np.array(xs)
    with np.errstate(all="ignore"):
        expected = npoly.polyval(x, c)
        expected_each = [npoly.polyval(v, c) for v in xs]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _poly.polyval(c, x)
        got_each = [_poly.polyval(c, v) for v in xs]
        got_np_scalars = [_poly.polyval(c, v) for v in x]
    assert _float_bits(got) == _float_bits(expected)
    assert _float_bits(got_each) == _float_bits(got_np_scalars) == _float_bits(expected_each)
    assert all(type(v) is float for v in got_each + got_np_scalars)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ANY_FLOAT, min_size=1, max_size=6), st.lists(_ANY_FLOAT, min_size=3, max_size=3))
def test_polyval_rows_are_the_one_row_form_row_by_row(coeffs, xs):
    rows = np.array([coeffs, coeffs[::-1], [-v for v in coeffs]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at_points = _poly.polyval(rows, np.array(xs))
        at_rows = _poly.polyval(rows, np.array([xs, xs[::-1], xs]))
        for row, v, got in zip(rows, xs, at_points):
            assert _float_bits(got) == _float_bits(_poly.polyval(row, v))
        for row, vs, got in zip(rows, (xs, xs[::-1], xs), at_rows):
            assert _float_bits(got) == _float_bits(_poly.polyval(row, np.array(vs)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6), st.integers(1, 3),
       st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4))
def test_polyval_rows_keep_their_values_under_zero_padding(coeffs, pad, xs):
    padded = np.array([coeffs + [0.0] * pad, [1.0] * (len(coeffs) + pad)])
    at_rows = _poly.polyval(padded, np.array([xs, xs]))
    assert _float_bits(at_rows[0]) == _float_bits(_poly.polyval(np.array(coeffs), np.array(xs)))


def test_newton_polish_evaluates_without_entering_errstate_again(monkeypatch):
    # polyval enters np.errstate on each array call; the polish holds one
    # already, so it evaluates by the unguarded _horner.
    def guarded(*args):
        raise AssertionError("newton_polish called polyval")

    rows = np.array([[-2.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [0.5, -0.6, 0.2]])
    expected = _poly.real_roots_rows(rows)[0]
    monkeypatch.setattr(_poly, "polyval", guarded)
    assert _float_bits(_poly.real_roots_rows(rows)[0]) == _float_bits(expected)


# Within these bounds no split of two_product overflows, nor the product.
_EFT_FLOAT = st.floats(-2.0 ** 500, 2.0 ** 500, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_EFT_FLOAT, _EFT_FLOAT), min_size=1, max_size=8))
@example([(1.0, 2.0 ** -60), (2.0 ** -60, 1.0), (1e300, -1e-300), (0.1, 0.2)])
@example([(5e-324, 2.0 ** 500), (2.0 ** 500, 2.0 ** 500), (-0.0, 3.0), (1 / 3, 3.0)])
def test_error_free_transforms_are_exact(pairs):
    a, b = (np.array(column) for column in zip(*pairs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s, s_err = _poly.two_sum(a, b)
        p, p_err = _poly.two_product(a, b)
    assert _float_bits(s) == _float_bits(a + b) and _float_bits(p) == _float_bits(a * b)
    for x, y, *sums in zip(*(v.tolist() for v in (a, b, s, s_err, p, p_err))):
        assert Fraction(sums[0]) + Fraction(sums[1]) == Fraction(x) + Fraction(y)
        # Dekker's product is exact where the product does not underflow.
        if x == 0.0 or y == 0.0 or abs(Fraction(x) * Fraction(y)) >= Fraction(2) ** -960:
            assert Fraction(sums[2]) + Fraction(sums[3]) == Fraction(x) * Fraction(y)
