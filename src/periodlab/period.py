"""Period evaluation by three routes: quadrature, series, and the elliptic period.

With ``x(theta) = mid + half*cos(theta)`` between the turning points, every route
evaluates ``T = (sqrt(2)/omega0) * int_0^pi dtheta / sqrt(R(x(theta)))``.  The exact
route is the nested trapezoid rule in theta, which converges exponentially on this
even, periodic, analytic integrand and reuses every value when it doubles.  The
series routes write ``2R = omega^2 (1 + Delta)`` and expand the integrand
binomially in the deviation.  Every well of degree at most 4 also has its period
in closed form: Carlson's reduction turns the integral into one
arithmetic-geometric mean (:func:`elliptic_period`).

Every route runs on the rows of a stack of shells: :func:`quadrature_columns` and
:func:`series_columns`, one partial-sum loop for every series, take them as
arrays, and the CLI maps the elliptic kernel :func:`_elliptic` over them.  A
route on one shell or frame is its one-row case.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple

import numpy as np

from ._poly import _horner, polyval
from .errors import ConvergenceError, DomainError, PeriodLabError, SeparatrixError
from .frame import BALANCED, NAYFEH, BalancedFrame
from .potential import EnergyShell

# Not called here any more: bench/spans.py counts quadrature nodes by rebinding
# this name, so it stays importable.
from .frame import delta_at  # noqa: F401

DEFAULT_QUAD_TOL = 1e-13
_QUAD_N0 = 16
_QUAD_NMAX = 4096
# A shell that knows R at its turning points has an integrand accurate to
# rounding up to the separatrix margin, so it may refine further: enough to
# converge on every softening-quartic shell outside SEPARATRIX_RTOL.
_QUAD_NMAX_KNOWN_ENDS = 32768
# Values of R one array of a trapezoid level holds at most; a level over many
# rows is evaluated in row chunks of this size.
_QUAD_CHUNK = 1 << 18

# Series regimes.
CONVERGENT = "convergent"
DIVERGENT = "divergent"
BOUNDARY = "boundary"

_SQRT2 = math.sqrt(2.0)
_EPS = math.ulp(1.0)
_CONVERGED_RTOL = 1e-10
_BOUNDARY_TOL = 1e-12


class PeriodResult(NamedTuple):
    """A computed period. ``Omega = 2 pi / T`` is fixed by construction."""

    T: float
    Omega: float
    method: str
    err_estimate: float


class SeriesResult(NamedTuple):
    """Binomial-series evaluation of the period integral I.

    ``terms[j]`` is the j-th series contribution and ``partial_sums[j]`` their
    running sum.  ``truncation_error`` bounds the sum of the terms after the
    last one by the governing ratio q that ``regime`` classifies, and is inf
    where q >= 1 (:func:`_summed_series`).
    """

    terms: tuple
    partial_sums: tuple
    xi: float | None
    converged: bool
    truncation_error: float
    regime: str

    @property
    def value(self) -> float:
        return self.partial_sums[-1]


def _period(T: float, err: float) -> tuple:
    """``(T, Omega, err)`` of one period ``T`` and its error; a T that is not positive raises."""
    if not T > 0.0:
        raise DomainError(f"non-positive period {T}")
    return T, 2.0 * math.pi / T, err


def _period_result(T: float, err: float, method: str) -> PeriodResult:
    T, Omega, err = _period(T, err)
    return PeriodResult(T=T, Omega=Omega, method=method, err_estimate=err)


# ---------------------------------------------------------------------------
# The elliptic period
# ---------------------------------------------------------------------------

def _agm(a: float, b: float) -> float:
    """The arithmetic-geometric mean ``M(a, b)`` of two positive numbers."""
    # quadratic convergence: a handful of sweeps reach one ulp, where the
    # iterates may alternate forever; stop at 2 eps.
    for _ in range(60):
        if abs(a - b) <= 4.4e-16 * a:
            return a
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    raise ConvergenceError(f"AGM did not converge for M({a}, {b})")


def elliptic_K(m: float) -> float:
    """Complete elliptic integral of the first kind, ``K(m) = pi / (2 M(1, sqrt(1 - m)))``
    for the parameter m = k^2 in [0, 1); relative error below 1e-15."""
    if not 0.0 <= m < 1.0:
        raise DomainError(f"elliptic parameter m must lie in [0, 1), got {m}")
    return math.pi / (2.0 * _agm(1.0, math.sqrt(1.0 - m)))


def _elliptic(r: list, lo: float, hi: float, r_end: float | None, omega0: float) -> tuple:
    """The exact period of one shell of a well of degree at most 4 and its error, from floats.

    Carlson's reduction (DLMF 19.29, 19.22): ``int dx / sqrt(Q) = 2 R_F(0, y, z) =
    pi / M(sqrt y, sqrt z)`` between the turning points ``lo`` and ``hi``, so ``T =
    pi sqrt(2) / (omega0 M)``.  Of the residual R, whose coefficients ``r`` are cut
    after the last nonzero one as ``as_coeffs`` cuts them, ``y = z = R`` for degree
    2; ``y = R(lo)``, ``z = R(hi)`` for degree 3; and for degree 4, ``R = c (x -
    r3)(x - r4)``, ``y = c (lo - r3)(hi - r4)``, ``z = c (hi - r3)(lo - r4)``,
    conjugates for a complex pair r3, r4, whose M is ``M(Re sqrt y, |sqrt y|)``.  As
    ``y z = R(lo) R(hi)``, ``r_end``, R at the turning points where known (not None
    or NaN), makes the smaller ``r_end^2`` over the larger, which does not cancel
    next to the barrier.  Where ``sqrt(min/max)`` is at most ``_BOUNDARY_TOL`` the
    shell is a separatrix shell.
    """
    while len(r) > 1 and r[-1] == 0.0:
        r = r[:-1]
    if len(r) > 3:
        raise DomainError(f"the elliptic period takes wells of degree at most 4, not {len(r) + 1}")
    if len(r) < 3:
        y, z = polyval(r, lo), polyval(r, hi)
    else:
        # R = (c x - q)(x - r4): the roots q/c and r4 = b0/q, each formed
        # without cancellation.  The discriminant is formed scaled by a power
        # of 2, which moves no bit and keeps it in the float range.
        b0, b1, c = r
        k = 2.0 ** -math.frexp(max(abs(b0), abs(b1), abs(c)))[1]
        disc = (b1 * k) * (b1 * k) - 4.0 * (c * k) * (b0 * k)
        root = (math.sqrt(disc) if disc >= 0.0 else complex(0.0, math.sqrt(-disc))) / k
        q = -0.5 * (b1 + root if b1 >= 0.0 else b1 - root)
        r4 = b0 / q if q else 0.0  # q = 0 only for R = c x^2
        y, z = (c * lo - q) * (hi - r4), (c * hi - q) * (lo - r4)
    if isinstance(y, complex):
        s = cmath.sqrt(y)
        a, b = abs(s), s.real
    else:
        small, big = sorted((y, z))
        if r_end is not None and not math.isnan(r_end):
            small = r_end * r_end / big
        if not small > 0.0 or math.sqrt(small) <= _BOUNDARY_TOL * math.sqrt(big):
            raise SeparatrixError(
                f"R_F arguments {small} and {big} at the separatrix limit: separatrix shell")
        a, b = math.sqrt(big), math.sqrt(small)
    T = math.pi * _SQRT2 / (omega0 * _agm(a, b))
    return T, 8.0 * math.ulp(1.0) * T  # 8 eps T


def elliptic_period(shell: EnergyShell, omega0: float = 1.0) -> PeriodResult:
    """The exact period of a shell of a well of degree at most 4 (:func:`_elliptic`)."""
    return _period_result(*_elliptic(shell.residual.tolist(), shell.x_minus, shell.x_plus,
                                     shell.residual_at_turning_points, omega0), "elliptic")


def _each_row(route, rows, n: int):
    """``(T, Omega, err_estimate, errors)`` lists of ``route``, which gives ``(T, err)`` of one
    row of arguments or raises, on each of the ``n`` ``rows``; :func:`_period` checks each."""
    T, Omega, err, found = [math.nan] * n, [math.nan] * n, [math.nan] * n, [None] * n
    for j, row in enumerate(rows):
        try:
            T[j], Omega[j], err[j] = _period(*route(*row))
        except (DomainError, ConvergenceError) as exc:
            found[j] = exc
    return T, Omega, err, found


def duffing_elliptic(rho: float, omega0: float = 1.0) -> PeriodResult:
    """Exact canonical-quartic period at ``rho = lam A^2``: :func:`_elliptic` on the
    shell of amplitude 1, ``R = (2 + rho)/4 + (rho/4) x^2``, which carries ``R(+-1) =
    (1 + rho)/2``."""
    (error,) = _rho_errors([rho])
    if error is not None:
        raise error
    return _period_result(*_elliptic([0.5 + 0.25 * rho, 0.0, 0.25 * rho], -1.0, 1.0,
                                     0.5 * (1.0 + rho), omega0), "elliptic")


# The quadratic-cubic period, kept under its own name.
cubic_elliptic = elliptic_period


# ---------------------------------------------------------------------------
# Nested trapezoid rule in theta
# ---------------------------------------------------------------------------

@functools.cache
def _level_nodes(n: int, first: bool) -> tuple[np.ndarray, np.ndarray]:
    """``cos theta`` and ``sin^2 theta`` at the new nodes of a trapezoid
    level: the n + 1 points ``k pi/n`` on the ``first`` level, else the
    midpoints ``(2i - 1) pi/(2n)`` of n equal intervals, whose cosines are the
    Gauss-Chebyshev nodes.  Read-only, and shared by every call."""
    theta = (np.arange(n + 1) * (math.pi / n) if first
             else (2.0 * np.arange(1, n + 1) - 1.0) * math.pi / (2.0 * n))
    cos, sin2 = np.cos(theta), np.sin(theta) ** 2
    cos.flags.writeable = sin2.flags.writeable = False
    return cos, sin2


@functools.cache
def _first_nodes() -> tuple[np.ndarray, np.ndarray]:
    """``cos theta`` and ``sin^2 theta`` at the 2n + 1 nodes of the first pass,
    n = ``_QUAD_N0``: the n + 1 of the first level, then the n midpoints of the
    second, with the bits of :func:`_level_nodes`.  Read-only and shared."""
    cos, sin2 = map(np.concatenate, zip(_level_nodes(_QUAD_N0, True),
                                        _level_nodes(_QUAD_N0, False)))
    cos.flags.writeable = sin2.flags.writeable = False
    return cos, sin2


def _level_sums(columns, nodes, first: bool):
    """For each row of the live ``columns`` of :func:`quadrature_columns`:
    the sum of ``1/sqrt(R)`` at the new ``nodes`` of a level
    (:func:`_level_nodes`), and, where that sum is not finite, whether R is
    non-positive at a node.  The ``first`` pass takes :func:`_first_nodes`
    and gives two sums before that flag: the first level's, whose two ends
    weigh 1/2, and the second level's.  Rows go in chunks of at most
    ``_QUAD_CHUNK`` values; each row's sums have the same bits in any chunk,
    and each is the sum that a pass of its level alone forms."""
    coeffs, mid, half, r_end, r_span, known = columns
    cos, sin2 = nodes
    step = max(1, _QUAD_CHUNK // cos.size)
    if len(coeffs) > step:
        parts = [_level_sums([c[lo:lo + step] for c in columns], nodes, first)
                 for lo in range(0, len(coeffs), step)]
        return tuple(np.concatenate(part) for part in zip(*parts))
    n_known = np.count_nonzero(known)
    if n_known == len(known):
        r = r_end + r_span * sin2
    else:
        r = _horner(coeffs, mid + half * cos)
        if n_known:
            r[known] = r_end[known] + r_span[known] * sin2
    f = 1.0 / np.sqrt(r)
    total = np.add.reduce  # ndarray.sum without its Python wrapper
    if first:
        n = cos.size // 2
        sums = (0.5 * (f[:, 0] + f[:, n]) + total(f[:, 1:n], axis=1), total(f[:, n + 1:], axis=1))
        nonpositive = ~(np.isfinite(sums[0]) & np.isfinite(sums[1]))
    else:
        sums = (total(f, axis=1),)
        nonpositive = ~np.isfinite(sums[0])
    if np.count_nonzero(nonpositive):
        nonpositive[nonpositive] = (r[nonpositive] <= 0.0).any(axis=1)
    return (*sums, nonpositive)


def period_quadratures(frames, omega0: float = 1.0, tol: float | None = None) -> list:
    """:func:`period_quadrature` of every frame in ``frames``, evaluated together.

    Slot ``i`` holds the :class:`PeriodResult` of ``frames[i]``, or the error
    that :func:`period_quadrature` raises for it.  This is
    :func:`quadrature_columns` on the frames' shells.
    """
    shells = [f.shell for f in frames]
    residual = np.zeros((len(shells), max((s.residual.size for s in shells), default=1)))
    for i, s in enumerate(shells):
        residual[i, :s.residual.size] = s.residual
    r_end = [s.residual_at_turning_points for s in shells]
    T, Omega, err, found = quadrature_columns(
        residual, np.array([s.x_minus for s in shells]), np.array([s.x_plus for s in shells]),
        np.array([math.nan if r is None else r for r in r_end]), omega0, tol)
    return [PeriodResult(T=t, Omega=w, method="quadrature", err_estimate=e) if exc is None
            else exc for t, w, e, exc in zip(T.tolist(), Omega.tolist(), err.tolist(), found)]


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def quadrature_columns(residual: np.ndarray, x_minus: np.ndarray, x_plus: np.ndarray,
                       r_end: np.ndarray, omega0: float = 1.0, tol: float | None = None):
    """The quadrature periods of a stack of shells, as columns ``(T, Omega,
    err_estimate, errors)``.

    Row ``i`` is the shell on ``[x_minus[i], x_plus[i]]`` with residual
    ``residual[i]``, zero-padded at the top to a common degree, and ``R`` at
    its turning points ``r_end[i]``, NaN where not known.  ``errors[i]`` is
    the error :func:`period_quadrature` raises for that shell, or None; its
    row of the other columns is then NaN.

    No row converges on the first level, 16 intervals, so the first pass
    takes it with the second, 32 intervals: it evaluates ``1/sqrt(R)`` at the
    17 nodes ``k pi/16`` and the 16 midpoints between them in one (shells x
    33) array, forms each level's sum as a pass of its own would, and checks
    R's sign at both levels' nodes.  Each later level evaluates its new
    midpoints for every live shell in one array, or in row chunks on the fine
    levels.  R comes from :func:`~periodlab._poly.polyval`; a shell that knows
    ``R_end`` instead takes ``R = R_end + (R(0) - R_end) sin^2 theta``, which
    does not cancel at the turning points, and may refine to
    ``_QUAD_NMAX_KNOWN_ENDS`` nodes instead of ``_QUAD_NMAX``.  A row leaves
    the live set once two successive levels agree to ``tol`` relative, so
    every value has the same bits as on its own.  The live set is a list of
    columns formed once per call and cut only where rows leave: the
    residuals, the ``(rows, 1)`` columns ``mid``, ``half``, ``R_end`` and
    ``R(0) - R_end`` of ``x = mid + half cos theta``, and the mask of the
    rows that know ``R_end``.
    """
    tol = DEFAULT_QUAD_TOL if tol is None else float(tol)
    rows = len(x_minus)
    T, err = np.full(rows, math.nan), np.full(rows, math.nan)
    found: list = [None] * rows
    # Like Python floats, the columns overflow to inf without a warning.
    r_end = np.array(r_end, dtype=float).reshape(rows, 1)
    known = ~np.isnan(r_end[:, 0])
    columns = [residual, 0.5 * (x_plus + x_minus)[:, None], 0.5 * (x_plus - x_minus)[:, None],
               r_end, residual[:, :1] - r_end, known]
    caps = np.where(known, _QUAD_NMAX_KNOWN_ENDS, _QUAD_NMAX)
    cap_min = _QUAD_NMAX if np.count_nonzero(known) < rows else _QUAD_NMAX_KNOWN_ENDS
    slots = np.arange(rows)
    prev = None
    n = _QUAD_N0
    scale = _SQRT2 / omega0
    # A non-positive radicand R makes its row's value inf or NaN.
    while slots.size:
        # Rows with a non-positive R at a node are separatrix shells.
        if prev is None:
            # No row converges on the first level, so the first pass
            # takes its nodes and the second level's midpoints together.
            coarse, sums, separatrix = _level_sums(columns, _first_nodes(), True)
            prev = (math.pi / n) * coarse
            n *= 2
        else:
            sums, separatrix = _level_sums(columns, _level_nodes(n // 2, False), False)
        # T_n = (T_(n/2) + (pi/(n/2)) * sum of f at the n/2 new midpoints) / 2
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
            keep = (~finished).nonzero()[0]
            slots = slots.take(keep)
            if not slots.size:
                break
            columns, vals = [c.take(keep, axis=0) for c in columns], vals.take(keep)
        prev = vals
        n *= 2
    return _period_columns(T, err, found)


def _period_columns(T: np.ndarray, err: np.ndarray, found: list):
    """``(T, Omega, err, found)`` with a :class:`DomainError` in ``found`` for each
    row whose T is not positive and has no error yet, as :func:`_period` raises
    it; a failed row's T, Omega and err are NaN."""
    ts = T.tolist()
    found = [exc or DomainError(f"non-positive period {t}") if not t > 0.0 else exc
             for t, exc in zip(ts, found)]
    failed = [i for i, exc in enumerate(found) if exc is not None]
    if failed:
        T[failed] = err[failed] = math.nan
    # A Python float quotient overflows to inf without a warning.
    return T, np.array([2.0 * math.pi / t if exc is None else math.nan
                        for t, exc in zip(ts, found)]), err, found


def period_quadrature(frame: BalancedFrame, omega0: float = 1.0,
                      tol: float | None = None) -> PeriodResult:
    """The exact period by quadrature of the angle integral.

    Only ``frame.shell`` is read, so every frame of a shell gives the same
    bits.  A non-positive residual at any node means the shell is at or
    beyond a separatrix.  This is :func:`period_quadratures` on one frame.
    """
    result = period_quadratures([frame], omega0, tol)[0]
    if isinstance(result, PeriodLabError):
        raise result
    return result


def duffing_large_rho_constant() -> float:
    """The scaled-period limit of the hardening quartic, ``lim sqrt(rho) T = 4 K(1/2)``
    (about 7.4162987)."""
    return 4.0 * elliptic_K(0.5)


# ---------------------------------------------------------------------------
# Binomial series machinery
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _binomials(n: int) -> np.ndarray:
    """:func:`binom_minus_half` of the last n asked for, read-only."""
    b = np.empty(n + 1)
    b[0] = c = 1.0
    for j in range(n):
        b[j + 1] = c = c * (-0.5 - j) / (j + 1.0)
    b.flags.writeable = False
    return b


def binom_minus_half(n: int) -> np.ndarray:
    """``C(-1/2, j)`` for j = 0..n by the stable recurrence (no factorials)."""
    return _binomials(n).copy()


@functools.lru_cache(maxsize=1)
def _alternating_pair_coeffs(N: int) -> np.ndarray:
    """``(-1)^j C(-1/2, j) C(-1/2, 2j)`` for j = 0..N, of the last N asked for; read-only."""
    b, j = _binomials(2 * N), np.arange(N + 1)
    c = (-1.0) ** j * b[j] * b[2 * j]
    c.flags.writeable = False
    return c


def _terms(pref, coeffs, step, N: int, weight=None, block=None):
    """The terms j = 0..N of each row i as column i, ``block`` at a time:
    ``pref[i] coeffs[0][j] ...`` times the power ``step[i]^j``, or, where ``step``
    holds a row of nodes per row, ``weight`` times the sum of their powers.  Each
    power is the one before times ``step``, as a loop forms it: one
    ``np.multiply.accumulate`` for a step per row, and a multiply per term for
    rows of nodes, on which an accumulate runs a node at a time."""
    block = block or max(1, _QUAD_CHUNK // step.size)
    for lo in range(0, N + 1, block):
        p = np.empty((min(block, N + 1 - lo),) + step.shape)
        p[0] = power * step if lo else 1.0  # power: the last of the block before
        if weight is None:
            p[1:] = step
            np.multiply.accumulate(p, axis=0, out=p)
        else:
            for before, after in zip(p, p[1:]):
                np.multiply(before, step, out=after)
        power = p[-1]
        c = pref
        for f in coeffs:
            c = c * f[lo:lo + len(p), None]
        yield c * (p if weight is None else weight * np.add.reduce(p, axis=2))


_REGIMES = (CONVERGENT, BOUNDARY, DIVERGENT)


def _summed_series(N: int, blocks, P, q, errors: list) -> tuple:
    """The partial-sum loop behind every series, on rows: ``(terms, sums, stop,
    value, trunc, regime, errors)``.  ``blocks(N)`` yields the terms j = 0..N of
    each row i as column i, a block at a time (:func:`_terms`).  Term j of row i
    is at most ``P[i] |C(-1/2, j)| q[i]^j``, and ``|C(-1/2, j)|`` falls with j, so
    while ``q[i] < 1`` the terms after j sum to at most ``P[i] |C(-1/2, j)|
    q[i]^(j+1) / (1 - q[i])``, and to inf otherwise.  Row i stops at the first j
    where that bound is at most eps of the running sum, an ``np.add.accumulate``,
    sums ``terms[:stop[i] + 1, i]`` to ``value[i]`` and reports the bound at its
    stop as ``trunc[i]``; ``regime`` classifies q.  Blocks end once no row is
    left to stop; a row that does not stop, or has an error, stops at the last
    term formed.  The caller ignores overflow and invalid values.
    """
    if N < 0:
        errors = [exc or DomainError(f"series cap N must be >= 0, got {N}") for exc in errors]
        N = 0
    # The bound at j is scale |C(-1/2, j)| x^j: inf where q is not below 1.
    below = q < 1.0
    x, scale = np.where(below, q, 1.0), np.where(below, P * q / (1.0 - q), math.inf)
    b = np.abs(_binomials(N))
    live = np.array([e is None for e in errors], dtype=bool)
    i, stop, lo, parts = np.arange(len(q)), N, 0, []
    for t in blocks(N):
        # Row 0 of s: the running sum before the block, 0 before term 0.
        s = np.empty((len(t) + 1, len(q)))
        s[0] = parts[-1][1][-1] if parts else 0.0
        s[1:] = t
        np.add.accumulate(s, axis=0, out=s)
        bound = scale * b[lo:lo + len(t), None] * x ** np.arange(lo, lo + len(t))[:, None]
        hit = (bound <= _EPS * np.abs(s[1:])) & live
        m = hit.argmax(axis=0)
        found = hit[m, i]
        stop = np.where(found, m + lo, stop)
        live &= ~found
        parts.append((t, s[1:], bound))
        lo += len(t)
        if not np.count_nonzero(live):
            break
    stop = np.minimum(stop, lo - 1)
    terms, sums, bounds = (np.concatenate(c) for c in zip(*parts))
    value, trunc = sums[stop, i], bounds[stop, i]
    for j in np.flatnonzero(~np.isfinite(value)).tolist():
        errors[j] = errors[j] or ConvergenceError(f"series partial sum {value[j]} is not finite")
    # NaN is neither below 1 - tol nor at most 1 + tol: divergent.
    regime = 2 - (q <= 1.0 + _BOUNDARY_TOL) - (q < 1.0 - _BOUNDARY_TOL)
    return terms, sums, stop, value, trunc, regime, errors


def _one_row(rows: tuple, xi: float | None) -> SeriesResult:
    """The :class:`SeriesResult` of one row of :func:`_summed_series` that
    reports ``xi``, or its error."""
    terms, sums, stop, _, trunc, regime, errors = rows
    if errors[0] is not None:
        raise errors[0]
    k, trunc, regime = int(stop[0]) + 1, float(trunc[0]), _REGIMES[regime[0]]
    sums, xi = sums[:k, 0].tolist(), None if xi is None else float(xi)
    return SeriesResult(tuple(terms[:k, 0].tolist()), tuple(sums), xi,
                        regime == CONVERGENT and trunc <= _CONVERGED_RTOL * abs(sums[-1]),
                        trunc, regime)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _generic_rows(shells, strategy: str, omega, N: int) -> tuple:
    """The binomial series of polynomial shells, by exact angle moments: each
    ``int_0^pi Delta^j dtheta`` is a polynomial in cos(theta), which the
    Gauss-Chebyshev rule with enough nodes for the degree of the residual, cut
    after its last nonzero coefficient, integrates exactly.  Divergent regimes
    (sup |Delta| >= 1) still produce terms, flagged."""
    residual = np.atleast_2d(shells.residual)
    rows = len(residual)
    lo, hi, r_min, r_max = (np.array(v, dtype=float, ndmin=1) for v in (
        shells.x_minus, shells.x_plus, *shells.residual_extrema[:2]))
    omega = np.full(rows, omega)
    w2 = omega * omega
    d_min, d_max = abs(2.0 * r_min / w2 - 1.0), abs(2.0 * r_max / w2 - 1.0)
    sup = np.where(d_max > d_min, d_max, d_min)  # Python's max(d_min, d_max)
    errors = [None if 0.0 < w < math.inf and d < math.inf else DomainError(
        f"the {strategy} frame omega = {o!r} puts omega^2 or Delta out of the float range")
        for w, d, o in zip(w2.tolist(), sup.tolist(), omega.tolist())]
    deg = np.maximum.reduce((residual != 0.0) * np.arange(residual.shape[1]), axis=1)
    nodes = [max(16, (N * max(d, 1)) // 2 + 2) for d in deg.tolist()]
    # The rows of each node count go together, as at rho = 0 on a rho grid.
    groups = [(n, [j for j, m in enumerate(nodes) if m == n]) for n in set(nodes)]
    block = max(1, _QUAD_CHUNK // (rows * max(nodes)))
    mid, half, pref = 0.5 * (hi + lo), 0.5 * (hi - lo), _SQRT2 / omega

    def blocks(N):
        parts = []
        for n, g in groups:
            x = mid[g, None] + half[g, None] * _level_nodes(n, False)[0]
            delta = (2.0 * _horner(residual[g], x) - w2[g, None]) / w2[g, None]
            parts.append(_terms(pref[g], (_binomials(N),), delta, N, math.pi / n, block))
        for ts in zip(*parts):
            t = np.empty((len(ts[0]), rows))
            for (_, g), part in zip(groups, ts):
                t[:, g] = part
            yield t

    return _summed_series(N, blocks, math.pi * pref, sup, errors)


def period_series_generic(frame: BalancedFrame, N: int) -> SeriesResult:
    """The binomial series for any polynomial shell (:func:`_generic_rows`)."""
    return _one_row(_generic_rows(frame.shell, frame.strategy, frame.omega, N), frame.xi)


def _rho_errors(rhos) -> list:
    """The error of each rho at or beyond the amplitude limit rho = -1, or None."""
    return [SeparatrixError(f"rho = {rho} is at or beyond the amplitude limit (rho = -1): "
                            "no periodic motion") if rho <= -1.0 + _BOUNDARY_TOL else None
            for rho in rhos]


def _closed_form(pref, xi, errors: list, N: int) -> tuple:
    """:func:`_summed_series` of ``pref (-1)^j C(-1/2, j) C(-1/2, 2j) xi^2j``."""
    xi2 = xi * xi
    return _summed_series(N, lambda n: _terms(pref, (_alternating_pair_coeffs(n),), xi2, n),
                          pref, xi2, errors)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _quartic_rows(rho, strategy: str, N: int) -> tuple:
    """The closed-form series of canonical quartic shells at ``rho`` in the
    balanced or nayfeh frame, and the xi of each."""
    rho = np.array(rho, dtype=float, ndmin=1)
    errors = _rho_errors(rho.tolist())
    if strategy == NAYFEH:
        xi = rho / (2.0 * rho + 2.0)
        pref = _SQRT2 * math.pi / np.sqrt(1.0 + rho)
        return _summed_series(N, lambda n: _terms(pref, (_binomials(n),) * 2, xi, n),
                              pref, np.abs(xi), errors), xi
    d = 4.0 + 3.0 * rho
    xi = rho / d
    return _closed_form(2.0 * _SQRT2 * math.pi / np.sqrt(d), xi, errors, N), xi


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _cubic_rows(shells, N: int) -> tuple:
    """The closed-form series of canonical cubic shells, summed in the
    orientation whose residual rises, and the xi of each shell itself."""
    lo, hi = np.array(shells.x_minus, ndmin=1), np.array(shells.x_plus, ndmin=1)
    flip = ~(np.array(shells.residual[..., 1], ndmin=1) > 0.0)
    xm, xp = np.where(flip, -hi, lo), np.where(flip, -lo, hi)
    xm2, xp2 = xm * xm, xp * xp
    sum_sq, cross = xp2 + xp * xm + xm2, xp2 + 4.0 * xp * xm + xm2
    xi = (xp2 - xm2) / cross
    errors = [SeparatrixError(f"|xi| = {v} at or above 1: separatrix shell")
              if v >= 1.0 - _BOUNDARY_TOL else None for v in np.abs(xi).tolist()]
    return (_closed_form(_SQRT2 * math.pi / np.sqrt(-cross / (2.0 * sum_sq)), xi, errors, N),
            np.where(flip, -xi, xi))


def _series_rows(shells, strategy: str, omega, N: int) -> tuple:
    """The series of one :class:`EnergyShell` or ``ShellColumns`` in the frame
    ``strategy`` of frequency ``omega``, and the xi it reports: the closed form
    where the frame admits one, else generic, which reports None."""
    if strategy == NAYFEH and shells.family != "quartic":
        raise DomainError("nayfeh series requires a canonical quartic shell")
    if strategy not in (BALANCED, NAYFEH) or shells.family not in ("quartic", "cubic"):
        return _generic_rows(shells, strategy, omega, N), None
    if shells.family == "quartic":
        return _quartic_rows(shells.rho, strategy, N)
    return _cubic_rows(shells, N)


def duffing_series_balanced(rho: float, N: int) -> SeriesResult:
    """The balanced series for the canonical quartic, ``xi = rho/(4 + 3 rho)``.

    Converges for every rho > -1, i.e. for every energy with periodic motion.
    """
    rows, xi = _quartic_rows(rho, BALANCED, N)
    return _one_row(rows, xi[0])


def duffing_series_nayfeh(rho: float, N: int) -> SeriesResult:
    """The textbook-frame series, ``xi = rho/(2 rho + 2)``; diverges on (-1, -2/3).

    Terms are returned for every rho > -1 so divergence is observable; the
    regime flag carries the verdict.
    """
    rows, xi = _quartic_rows(rho, NAYFEH, N)
    return _one_row(rows, xi[0])


def cubic_series_balanced(shell: EnergyShell, N: int) -> SeriesResult:
    """The balanced series for a canonical cubic shell; ``Delta = xi cos theta``.

    Converges for every sub-barrier energy; at the barrier ``|xi| = 1`` and the
    shell is rejected.  The series is summed in the orientation whose residual
    rises, which x -> -x gives a falling one: its turning points are negated
    and swapped.  The reported ``xi`` is that of ``shell`` itself, as in its
    balanced frame.
    """
    if shell.family != "cubic":
        raise DomainError("the balanced cubic series requires a canonical cubic shell")
    rows, xi = _cubic_rows(shell, N)
    return _one_row(rows, xi[0])


def best_series(shell: EnergyShell, frame: BalancedFrame, N: int) -> SeriesResult:
    """The closed-form series when the frame admits one, else the generic series."""
    rows, xi = _series_rows(shell, frame.strategy, frame.omega, N)
    return _one_row(rows, frame.xi if xi is None else xi[0])


def series_columns(shells, strategy: str, omega, N: int, omega0: float = 1.0):
    """The series periods of ``ShellColumns`` in the frame that
    :func:`~periodlab.frame.frame_columns` gives, as columns ``(T, Omega,
    err_estimate, N, regime, errors)``: N is the index of each row's last term."""
    (_, _, stop, value, trunc, regime, errors), _ = _series_rows(shells, strategy, omega, N)
    scale = _SQRT2 / omega0
    T, Omega, err, errors = _period_columns(scale * value, scale * trunc, errors)
    return T, Omega, err, stop, [_REGIMES[r] for r in regime.tolist()], errors


def period_from_series(series: SeriesResult, omega0: float = 1.0,
                       method: str = "series") -> PeriodResult:
    """Convert a series value of I into a period ``T = (sqrt 2 / omega0) I``."""
    scale = _SQRT2 / omega0
    return _period_result(scale * series.value, scale * series.truncation_error, method)


def duffing_balanced_large_rho_limit(N: int) -> float:
    """``lim sqrt(rho) T^(N)`` of the balanced quartic truncation (xi -> 1/3)."""
    coeffs = _alternating_pair_coeffs(N)
    powers = (1.0 / 9.0) ** np.arange(N + 1)
    return 4.0 * math.pi / math.sqrt(3.0) * float(coeffs @ powers)
