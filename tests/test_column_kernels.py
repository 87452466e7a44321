"""The shell kernels formed once per call keep every bit of the code they replace.

Each reference below is that code, kept here: deflation by one root at a
time, the compensated Horner scheme that splits ``x`` at every step, and the
residual extrema that take the interior-candidate path for every residual.
"""

import math

import numpy as np
import pytest

from periodlab import _poly
from periodlab._poly import comp_horner, deflate, derivative, polyval, two_product, two_sum
from periodlab.potential import _residual_extrema, _solved_rows

_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0]


def _reference_deflate(coeffs, root):
    c = np.asarray(coeffs, dtype=float)
    out = np.empty(c.shape)
    acc = 0.0
    for i in range(c.shape[-1] - 1, -1, -1):
        acc = acc * root + c[..., i]
        out[..., i] = acc
    return out[..., 1:], out[..., 0]


def _reference_comp_horner(coeffs, x):
    c = coeffs.T if coeffs.ndim < 2 or x.ndim < 2 else coeffs.T[..., None]
    acc = c[-1] + x * 0
    err = x * 0
    for k in range(len(c) - 2, -1, -1):
        p, p_err = two_product(acc, x)
        acc, s_err = two_sum(p, c[k])
        err = err * x + (p_err + s_err)
    return acc + err


@np.errstate(invalid="ignore")
def _reference_residual_extrema(residuals, x_minus, x_plus):
    slope = derivative(residuals)
    if slope.shape[1] < 2:
        crits, failed = np.empty((len(slope), 0)), {}
    elif slope.shape[1] == 2:
        crits, failed = -slope[:, :1] / slope[:, 1:], {}
    else:
        crits, _, failed = _solved_rows(slope)
    candidates = np.empty((len(crits), 2 + crits.shape[1]))
    candidates[:, 0] = x_minus
    candidates[:, 1] = x_plus
    inside = (candidates[:, :1] < crits) & (crits < candidates[:, 1:2])
    candidates[:, 2:] = np.where(inside, crits, math.nan)
    values = polyval(residuals, candidates)
    pad = np.isnan(candidates)
    i_min = np.where(pad, np.inf, values).argmin(axis=1)
    i_max = np.where(pad, -np.inf, values).argmax(axis=1)
    rows = np.arange(len(values))
    extrema = np.array([values[rows, i_min], values[rows, i_max],
                        candidates[rows, i_min], candidates[rows, i_max]]).reshape(4, -1)
    return extrema, failed


def _draw(rng, shape, special=0.1):
    """Floats of a few scales, with NaN, +-inf and +-0 at the rate ``special``."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    pick = rng.random(shape) < special
    values[pick] = rng.choice(_SPECIAL, size=np.count_nonzero(pick))
    return values


def _bits(values):
    """The bytes of each array, every NaN made the one quiet NaN: IEEE 754
    leaves the sign and payload of a NaN result to the implementation, and
    numpy's loops on strided and on contiguous operands propagate different
    ones.  A NaN still compares by its position, and a zero by its sign."""
    found = []
    for v in values:
        v = np.array(v, dtype=float)
        v[np.isnan(v)] = math.nan
        found.append(v.tobytes())
    return found


# ---------------------------------------------------------------------------
# Deflation by two roots in one loop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("degree", range(2, 7))
@pytest.mark.parametrize("rows", [1, 2, 7, 50])
def test_two_roots_deflate_as_one_root_after_the_other(degree, rows):
    rng = np.random.default_rng(100 * degree + rows)
    coeffs = _draw(rng, (rows, degree + 1), special=0.05)
    coeffs[:, -1][coeffs[:, -1] == 0.0] = 1.0
    first, second = _draw(rng, rows, special=0.3), _draw(rng, rows, special=0.3)
    with np.errstate(all="ignore"):
        quot, rem1 = _reference_deflate(coeffs, first)
        quot, rem2 = _reference_deflate(quot, second)
        got = deflate(coeffs, first, second)
        one = deflate(coeffs, first)
        ref_one = _reference_deflate(coeffs, first)
    assert _bits(got) == _bits((quot, rem1, rem2))
    assert len(got) == 3 and got[0].shape == (rows, degree - 1)
    assert _bits(one) == _bits(ref_one)


@pytest.mark.parametrize("r1", [math.nan, math.inf, -math.inf, 0.0, -0.0, 0.5, -2.0])
@pytest.mark.parametrize("r2", [math.nan, -math.inf, 0.0, -0.0, -0.25])
def test_two_roots_deflate_one_polynomial_at_special_roots(r1, r2):
    # A leading coefficient of -0.0 above a nonzero one shows the sign that
    # 0.0 * root gives the first step of each recurrence.
    for c in ([1.0, -3.0, 0.5], [0.0, -0.0, 2.0, 0.0, -1.0], [2.0, 1.0, 0.0, -0.0],
              [-0.0, 0.0, -0.0]):
        with np.errstate(all="ignore"):
            quot, rem1 = _reference_deflate(c, r1)
            quot, rem2 = _reference_deflate(quot, r2)
            got = deflate(c, r1, r2)
        assert _bits(got) == _bits((quot, rem1, rem2)), (c, r1, r2)


# ---------------------------------------------------------------------------
# The compensated Horner scheme with x split once
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("degree", range(0, 7))
def test_comp_horner_splits_x_once_with_the_same_bits(degree):
    rng = np.random.default_rng(degree)
    for rows in (1, 3, 40):
        coeffs = _draw(rng, (rows, degree + 1), special=0.02)
        cases = [
            (coeffs, _draw(rng, rows, special=0.02)),          # one point per row
            (coeffs, _draw(rng, (rows, 3), special=0.02)),     # a row of points per row
            (coeffs[0], _draw(rng, 17, special=0.02)),         # one polynomial
            (coeffs[0], _draw(rng, (4, 5), special=0.02)),
        ]
        for c, x in cases:
            with np.errstate(all="ignore"):
                assert _bits([comp_horner(c, x)]) == _bits([_reference_comp_horner(c, x)])


def test_comp_horner_keeps_its_bits_next_to_a_root():
    # Q of a cubic at points a few ulp off its roots: the error terms carry
    # the value, so any reordering of a step moves its bits.
    rng = np.random.default_rng(3)
    roots = rng.uniform(-1.0, 1.0, (200, 3))
    coeffs = np.array([np.polynomial.polynomial.polyfromroots(r) for r in roots])
    x = roots * (1.0 + rng.integers(-8, 9, roots.shape) * 2.0 ** -52)
    got = comp_horner(coeffs, x)
    assert got.tobytes() == _reference_comp_horner(coeffs, x).tobytes()
    assert np.count_nonzero(got) > 0


def test_split_product_is_two_product():
    rng = np.random.default_rng(5)
    a, b = _draw(rng, 500, special=0.02), _draw(rng, 500, special=0.02)
    with np.errstate(all="ignore"):
        got = _poly._split_product(a, *_poly._split(a), b, *_poly._split(b))
        c, d = 134217729.0 * a, 134217729.0 * b
        a_hi, b_hi = c - (c - a), d - (d - b)
        a_lo, b_lo, p = a - a_hi, b - b_hi, a * b
        want = (p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo)
    assert _bits(got) == _bits(want)


# ---------------------------------------------------------------------------
# Residual extrema without the interior candidates where R' has no zero
# ---------------------------------------------------------------------------

def _failures(failed):
    return {j: (type(e), str(e)) for j, e in failed.items()}


@pytest.mark.parametrize("degree", range(0, 5))
def test_residual_extrema_match_the_candidate_path(degree):
    rng = np.random.default_rng(10 + degree)
    for rows in (1, 6, 30):
        residual = _draw(rng, (rows, degree + 1), special=0.03)
        residual[:, 0] += 2.0
        lo = rng.uniform(-2.0, 0.0, rows)
        hi = rng.uniform(0.0, 2.0, rows)
        # NaN turning points among the rows, on either side and on both.
        lo[rng.random(rows) < 0.2] = math.nan
        hi[rng.random(rows) < 0.2] = math.nan
        # The shell solve's float policy, which the kernel's callers hold.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            got, failed = _residual_extrema(residual, lo, hi)
            want, want_failed = _reference_residual_extrema(residual, lo, hi)
        assert got.shape == want.shape == (4, rows)
        assert got.tobytes() == want.tobytes()
        assert _failures(failed) == _failures(want_failed)

