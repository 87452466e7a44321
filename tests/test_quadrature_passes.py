"""The first quadrature pass takes two levels on one array: the same bits as one level a pass."""

import math

import numpy as np
import pytest

import periodlab.period as period
from periodlab import ConvergenceError, SeparatrixError
from periodlab._poly import polyval
from periodlab.period import (
    _QUAD_CHUNK,
    _QUAD_N0,
    _QUAD_NMAX,
    _QUAD_NMAX_KNOWN_ENDS,
    DEFAULT_QUAD_TOL,
    quadrature_columns,
)
from periodlab.potential import rho_columns

from tests.conftest import random_wells


# ---------------------------------------------------------------------------
# The reference: one trapezoid level per pass, the first level in a pass of
# its own, as quadrature_columns took them before its first pass held two.
# ---------------------------------------------------------------------------

def _reference_level_sums(coeffs, mid_half, ends, nodes, first: bool):
    cos, sin2 = nodes
    step = max(1, _QUAD_CHUNK // cos.size)
    if len(coeffs) > step:
        parts = [_reference_level_sums(coeffs[lo:lo + step], mid_half[lo:lo + step],
                                       ends[lo:lo + step], nodes, first)
                 for lo in range(0, len(coeffs), step)]
        return tuple(np.concatenate(part) for part in zip(*parts))
    known = ~np.isnan(ends[:, 0])
    n_known = np.count_nonzero(known)
    if n_known == len(known):
        r = ends[:, :1] + ends[:, 1:] * sin2
    else:
        r = polyval(coeffs, mid_half[:, :1] + mid_half[:, 1:] * cos)
        if n_known:
            r[known] = ends[known, :1] + ends[known, 1:] * sin2
    f = 1.0 / np.sqrt(r)
    total = np.add.reduce
    sums = 0.5 * (f[:, 0] + f[:, -1]) + total(f[:, 1:-1], axis=1) if first else total(f, axis=1)
    nonpositive = ~np.isfinite(sums)
    if np.count_nonzero(nonpositive):
        nonpositive[nonpositive] = (r[nonpositive] <= 0.0).any(axis=1)
    return sums, nonpositive


def _reference_columns(residual, x_minus, x_plus, r_end, omega0=1.0, tol=None):
    tol = DEFAULT_QUAD_TOL if tol is None else float(tol)
    rows = len(x_minus)
    T, err = np.full(rows, math.nan), np.full(rows, math.nan)
    found = [None] * rows
    coeffs = residual
    mid_half, ends = np.empty((rows, 2)), np.empty((rows, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        mid_half[:, 0] = 0.5 * (x_plus + x_minus)
        mid_half[:, 1] = 0.5 * (x_plus - x_minus)
        ends[:, 0] = r_end
        ends[:, 1] = residual[:, 0] - r_end
    unknown = np.isnan(r_end)
    caps = np.where(unknown, _QUAD_NMAX, _QUAD_NMAX_KNOWN_ENDS)
    cap_min = _QUAD_NMAX if np.count_nonzero(unknown) else _QUAD_NMAX_KNOWN_ENDS
    slots = np.arange(rows)
    prev = None
    n = _QUAD_N0
    scale = math.sqrt(2.0) / omega0
    with np.errstate(divide="ignore", invalid="ignore"):
        while slots.size:
            nodes = (period._level_nodes(n, True) if prev is None
                     else period._level_nodes(n // 2, False))
            sums, separatrix = _reference_level_sums(coeffs, mid_half, ends, nodes, prev is None)
            if prev is None:
                vals = (math.pi / n) * sums
                converged, change = np.zeros(slots.size, dtype=bool), vals
            else:
                vals = 0.5 * (prev + (2.0 * math.pi / n) * sums)
                change = np.abs(vals - prev)
                converged = change <= tol * np.maximum(1e-300, np.abs(vals))
            finished = separatrix | converged
            if n >= cap_min:
                finished = finished | (n >= caps[slots])
            if np.count_nonzero(finished):
                if np.count_nonzero(separatrix):
                    for i in slots[separatrix].tolist():
                        found[i] = SeparatrixError(
                            "non-positive radicand in the period integrand: separatrix shell")
                    converged &= ~separatrix
                T[slots[converged]] = scale * vals[converged]
                err[slots[converged]] = scale * change[converged]
                if n >= cap_min:
                    for i in slots[finished & ~separatrix & ~converged].tolist():
                        found[i] = ConvergenceError(
                            f"theta quadrature did not converge to {tol} within {caps[i]} nodes")
                keep = ~finished
                slots = slots[keep]
                if not slots.size:
                    break
                coeffs, mid_half, ends, vals = coeffs[keep], mid_half[keep], ends[keep], vals[keep]
            prev = vals
            n *= 2
    return period._period_columns(T, err, found)


# ---------------------------------------------------------------------------
# Row sets: (residual padded to degree 4, x_minus, x_plus, r_end) per row
# ---------------------------------------------------------------------------

def _row(residual, x_minus=-1.0, x_plus=1.0, r_end=math.nan):
    padded = np.zeros(5)
    padded[:len(residual)] = residual
    return padded, float(x_minus), float(x_plus), float(r_end)


def _shell_rows(rng, n):
    """Interior shells of random quartic and cubic wells: generic rows, and
    known-ends rows from the canonical quartic."""
    rows = []
    for _, _, s in random_wells(rng, n):
        r_end = s.residual_at_turning_points
        rows.append(_row(s.residual, s.x_minus, s.x_plus, math.nan if r_end is None else r_end))
    shells, _ = rho_columns(rng.uniform(-0.95, 5.0, n))
    for res, lo, hi, r_end in zip(shells.residual, shells.x_minus, shells.x_plus,
                                  shells.residual_at_turning_points):
        rows.append(_row(res, lo, hi, r_end))
    return rows


def _synthetic_rows(rng, n):
    """Random quadratics positive on random intervals inside [-1, 1], each
    half of them in the known-ends form."""
    rows = []
    for _ in range(n):
        lo, hi = np.sort(rng.uniform(-1.0, 1.0, 2))
        res = [rng.uniform(0.5, 2.0), rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)]
        r_end = rng.uniform(0.05, 1.0) if rng.random() < 0.5 else math.nan
        rows.append(_row(res, lo, hi, r_end))
    return rows


def _edge_rows(rng):
    """Rows whose R is non-positive at a first-level node, at a second-level
    midpoint only, and rows that reach either node cap."""
    rows = [
        # R = 1 - x is 0 at theta = 0, and R = x^2 - 1/4 negative at pi/2:
        # first-level nodes, generic and known-ends.
        _row([1.0, -1.0]), _row([-0.25, 0.0, 1.0]), _row([1.0], r_end=0.0),
        _row([1.0], r_end=-1e-3),
        # R = 1e-12 + 1 - x peaks too sharply at theta = 0 to converge by 4096
        # intervals; R = 1e-14 + sin^2 theta, known at the ends, by 32768.
        _row([1.0 + 1e-12, -1.0]), _row([1.0], r_end=1e-14),
        # Sharp but converging before the caps.
        _row([1.0 + 1e-5, -1.0]), _row([1.0], r_end=1e-9),
    ]
    for i in rng.integers(1, 17, 4).tolist():
        # R = (x - c)^2 - 1e-9, negative only about the midpoint x = c.
        c = math.cos((2 * i - 1) * math.pi / 32)
        rows.append(_row([c * c - 1e-9, -2.0 * c, 1.0]))
    return rows


def _columns(rows, order):
    residual, lo, hi, r_end = zip(*(rows[i] for i in order))
    return np.array(residual), np.array(lo), np.array(hi), np.array(r_end)


def _outcome(columns):
    T, Omega, err, found = columns
    return (T.tobytes(), Omega.tobytes(), err.tobytes(),
            [None if e is None else (type(e), str(e)) for e in found])


def _assert_same_bits(rows, rng, omega0=1.0, tol=None):
    order = rng.permutation(len(rows))
    args = (*_columns(rows, order), omega0, tol)
    got = quadrature_columns(*args)
    assert _outcome(got) == _outcome(_reference_columns(*args))
    return got[3]


@pytest.mark.parametrize("seed", range(6))
def test_first_pass_keeps_every_bit_on_random_row_sets(seed):
    rng = np.random.default_rng(seed)
    rows = _shell_rows(rng, 20) + _synthetic_rows(rng, 30) + _edge_rows(rng)
    tol = [None, 1e-6, 1e-15][seed % 3]
    found = _assert_same_bits(rows, rng, omega0=float(rng.uniform(0.5, 2.0)), tol=tol)
    messages = [str(e) for e in found if e is not None]
    assert sum(type(e) is SeparatrixError for e in found) == 8
    assert any(f"within {_QUAD_NMAX} nodes" in m for m in messages)
    assert any(f"within {_QUAD_NMAX_KNOWN_ENDS} nodes" in m for m in messages)


def test_midpoint_only_radicand_is_found_in_the_first_pass():
    rng = np.random.default_rng(7)
    rows = [_row([c * c - 1e-9, -2.0 * c, 1.0])
            for c in (math.cos((2 * i - 1) * math.pi / 32) for i in range(1, 17))]
    nodes, _ = period._level_nodes(_QUAD_N0, True)
    for res, *_ in rows:
        assert (polyval(res, nodes) > 0.0).all()
    found = _assert_same_bits(rows + _synthetic_rows(rng, 5), rng)
    assert [type(e) for e in found].count(SeparatrixError) == 16


def test_row_set_chunked_in_the_first_pass_keeps_every_bit():
    rng = np.random.default_rng(11)
    rows = _synthetic_rows(rng, 3000) + _shell_rows(rng, 10) + _edge_rows(rng)
    rows *= 3
    assert len(rows) > _QUAD_CHUNK // period._first_nodes()[0].size
    _assert_same_bits(rows, rng)


def test_first_nodes_are_the_two_levels_nodes():
    cos, sin2 = period._first_nodes()
    level0, level1 = period._level_nodes(_QUAD_N0, True), period._level_nodes(_QUAD_N0, False)
    assert cos.tobytes() == level0[0].tobytes() + level1[0].tobytes()
    assert sin2.tobytes() == level0[1].tobytes() + level1[1].tobytes()
    assert not cos.flags.writeable and not sin2.flags.writeable


# ---------------------------------------------------------------------------
# The known-ends mask is formed once per call and again only where rows leave
# ---------------------------------------------------------------------------

# Rows that converge after 1, 6, 7 and 10 passes: a smooth generic R, a
# known-ends R with R_end = 1e-3, and a generic and a known-ends R that are
# sharper at a turning point.
_EARLY = _row([1.0, 0.0, 0.1])
_MIDDLE_KNOWN = _row([1.0], r_end=1e-3)
_LATE = _row([1.0 + 1e-4, -1.0])
_LATE_KNOWN = _row([1.0], r_end=1e-5)


def _traced_levels(monkeypatch, rows):
    """The bits check of ``rows``, in their order, and per level the count of
    live rows that know R_end and of all live rows."""
    levels = []
    level_sums = period._level_sums

    def traced(columns, nodes, first):
        levels.append((np.count_nonzero(columns[-1]), len(columns[-1])))
        return level_sums(columns, nodes, first)

    monkeypatch.setattr(period, "_level_sums", traced)
    args = (*_columns(rows, range(len(rows))), 1.0, None)
    got = quadrature_columns(*args)
    assert _outcome(got) == _outcome(_reference_columns(*args))
    assert all(e is None for e in got[3])
    return levels


def test_known_ends_rows_that_leave_first(monkeypatch):
    levels = _traced_levels(monkeypatch, [_LATE, _MIDDLE_KNOWN] * 3)
    assert levels[0] == (3, 6)
    assert (0, 3) in levels and levels[-1][0] == 0


def test_known_ends_rows_that_leave_last(monkeypatch):
    levels = _traced_levels(monkeypatch, [_LATE_KNOWN, _EARLY, _MIDDLE_KNOWN] * 2)
    assert levels[0] == (4, 6)
    assert (4, 4) in levels and levels[-1] == (2, 2)


def test_known_ends_rows_that_leave_in_between(monkeypatch):
    levels = _traced_levels(monkeypatch, [_EARLY, _MIDDLE_KNOWN, _LATE, _MIDDLE_KNOWN])
    assert levels[0] == (2, 4)
    assert (2, 3) in levels and (0, 1) in levels


def test_rows_split_by_the_chunk_size_keep_every_bit(monkeypatch):
    # Five rows to a chunk of the first pass and of the first later level,
    # then fewer: chunks that all know R_end, that none do, and mixed ones.
    monkeypatch.setattr(period, "_QUAD_CHUNK", 5 * period._first_nodes()[0].size)
    rng = np.random.default_rng(13)
    rows = ([_MIDDLE_KNOWN] * 5 + [_EARLY, _LATE] * 3 + [_LATE_KNOWN, _LATE, _EARLY]
            + _synthetic_rows(rng, 12) + _edge_rows(rng))
    args = (*_columns(rows, range(len(rows))), 1.0, None)
    assert _outcome(quadrature_columns(*args)) == _outcome(_reference_columns(*args))
