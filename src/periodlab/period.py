"""Period evaluation by three routes: quadrature, series, and the elliptic period.

With ``x(theta) = mid + half*cos(theta)`` between the turning points, every route
evaluates ``T = (sqrt(2)/omega0) * int_0^pi dtheta / sqrt(R(x(theta)))``.  The exact
route is the nested trapezoid rule in theta, which converges exponentially on this
even, periodic, analytic integrand and reuses every value when it doubles.  The
series routes write ``2R = omega^2 (1 + Delta)`` and expand the integrand
binomially in the deviation.  Every well of degree at most 4 also has its period
in closed form: Carlson's reduction turns the integral into one
arithmetic-geometric mean (:func:`elliptic_period`).

The trapezoid rule runs on columns: :func:`quadrature_columns` takes the
turning points and residuals of a stack of shells as arrays and returns the
periods as arrays, and :func:`period_quadratures` and
:func:`period_quadrature` are that routine on frames.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from ._poly import polyval
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
_EARLY_STOP_RTOL = 1e-16
_CONVERGED_RTOL = 1e-10
_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class PeriodResult:
    """A computed period. ``Omega = 2 pi / T`` is fixed by construction."""

    T: float
    Omega: float
    method: str
    err_estimate: float


@dataclass(frozen=True)
class SeriesResult:
    """Binomial-series evaluation of the period integral I.

    ``terms[j]`` is the j-th series contribution and ``partial_sums[j]`` their
    running sum.  ``truncation_error`` is a geometric tail estimate built from
    the last two nonzero terms; ``regime`` classifies the governing ratio.
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


def _period_result(T: float, method: str, err: float) -> PeriodResult:
    if not T > 0.0:
        raise DomainError(f"non-positive period {T}")
    return PeriodResult(T=T, Omega=2.0 * math.pi / T, method=method, err_estimate=err)


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


def elliptic_period(shell: EnergyShell, omega0: float = 1.0) -> PeriodResult:
    """The exact period of a shell of a well of degree at most 4.

    Carlson's reduction (DLMF 19.29, 19.22): ``int dx / sqrt(Q) = 2 R_F(0, y, z) =
    pi / M(sqrt y, sqrt z)`` between the turning points, so ``T = pi sqrt(2) / (omega0
    M)``.  Of the residual R, ``y = z = R`` for degree 2; ``y = R(x_minus)``, ``z =
    R(x_plus)`` for degree 3; and for degree 4, ``R = c (x - r3)(x - r4)``, ``y = c
    (x_minus - r3)(x_plus - r4)``, ``z = c (x_plus - r3)(x_minus - r4)``, conjugates
    for a complex pair r3, r4, whose M is ``M(Re sqrt y, |sqrt y|)``.  As ``y z =
    R(x_minus) R(x_plus)``, a shell that carries ``residual_at_turning_points``
    takes the smaller as ``R_end^2`` over the larger, which does not cancel next to
    the barrier.  Where ``sqrt(min/max)`` is at most ``_BOUNDARY_TOL`` the shell is
    a separatrix shell.
    """
    r, lo, hi = shell.residual.tolist(), shell.x_minus, shell.x_plus
    if len(r) > 3:
        raise DomainError(f"the elliptic period takes wells of degree at most 4, not {len(r) + 1}")
    if len(r) < 3:
        y, z = polyval(shell.residual, lo), polyval(shell.residual, hi)
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
        r_end = shell.residual_at_turning_points
        if r_end is not None:
            small = r_end * r_end / big
        if not small > 0.0 or math.sqrt(small) <= _BOUNDARY_TOL * math.sqrt(big):
            raise SeparatrixError(
                f"R_F arguments {small} and {big} at the separatrix limit: separatrix shell")
        a, b = math.sqrt(big), math.sqrt(small)
    T = math.pi * _SQRT2 / (omega0 * _agm(a, b))
    return _period_result(T, "elliptic", 8.0 * np.finfo(float).eps * T)


def duffing_elliptic(rho: float, omega0: float = 1.0) -> PeriodResult:
    """Exact canonical-quartic period at ``rho = lam A^2``: :func:`elliptic_period`
    on the shell of amplitude 1, ``R = (2 + rho)/4 + (rho/4) x^2``, which carries
    ``R(+-1) = (1 + rho)/2``."""
    _require_oscillatory_rho(rho)
    return elliptic_period(EnergyShell(
        energy=0.5 + 0.25 * rho, x_minus=-1.0, x_plus=1.0,
        residual=[0.5 + 0.25 * rho, 0.0, 0.25 * rho], rho=rho,
        residual_at_turning_points=0.5 * (1.0 + rho)), omega0)


# The quadratic-cubic period, kept under its own name.
cubic_elliptic = elliptic_period


# ---------------------------------------------------------------------------
# Nested trapezoid rule in theta
# ---------------------------------------------------------------------------

def _midpoint_theta(n: int) -> np.ndarray:
    """``(2i - 1) pi / (2n)`` for i = 1..n: the midpoints of n equal intervals
    of [0, pi]."""
    i = np.arange(1, n + 1)
    return (2.0 * i - 1.0) * math.pi / (2.0 * n)


def _midpoint_cos(n: int) -> np.ndarray:
    """``cos theta`` at the midpoints of n equal intervals of [0, pi], which are
    also the Gauss-Chebyshev nodes."""
    return np.cos(_midpoint_theta(n))


@functools.cache
def _level_nodes(n: int, first: bool) -> tuple[np.ndarray, np.ndarray]:
    """``cos theta`` and ``sin^2 theta`` at the new nodes of a trapezoid
    level: the n + 1 points ``k pi/n`` on the ``first`` level, else the
    midpoints of n equal intervals.  Read-only, and shared by every call."""
    theta = np.arange(n + 1) * (math.pi / n) if first else _midpoint_theta(n)
    cos, sin2 = np.cos(theta), np.sin(theta) ** 2
    cos.flags.writeable = sin2.flags.writeable = False
    return cos, sin2


def _level_sums(coeffs, mid_half, ends, nodes, first: bool):
    """For each row: the sum of ``1/sqrt(R)`` at the ``nodes`` of
    :func:`_level_nodes`, whose two ends weigh 1/2 on the ``first`` level,
    and, where that sum is not finite, whether R is non-positive at a node.
    Rows go in chunks of at most ``_QUAD_CHUNK`` values; each row's sum has
    the same bits in any chunk."""
    cos, sin2 = nodes
    step = max(1, _QUAD_CHUNK // cos.size)
    if len(coeffs) > step:
        parts = [_level_sums(coeffs[lo:lo + step], mid_half[lo:lo + step],
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
    total = np.add.reduce  # ndarray.sum without its Python wrapper
    sums = 0.5 * (f[:, 0] + f[:, -1]) + total(f[:, 1:-1], axis=1) if first else total(f, axis=1)
    nonpositive = ~np.isfinite(sums)
    if np.count_nonzero(nonpositive):
        nonpositive[nonpositive] = (r[nonpositive] <= 0.0).any(axis=1)
    return sums, nonpositive


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


def quadrature_columns(residual: np.ndarray, x_minus: np.ndarray, x_plus: np.ndarray,
                       r_end: np.ndarray, omega0: float = 1.0, tol: float | None = None):
    """The quadrature periods of a stack of shells, as columns ``(T, Omega,
    err_estimate, errors)``.

    Row ``i`` is the shell on ``[x_minus[i], x_plus[i]]`` with residual
    ``residual[i]``, zero-padded at the top to a common degree, and ``R`` at
    its turning points ``r_end[i]``, NaN where not known.  ``errors[i]`` is
    the error :func:`period_quadrature` raises for that shell, or None; its
    row of the other columns is then NaN.

    Each level of the trapezoid rule evaluates ``1/sqrt(R)`` at its new nodes
    for every live shell in one array, or in row chunks on the fine levels,
    by :func:`~periodlab._poly.polyval`.  A shell that knows
    ``R_end`` instead takes ``R = R_end + (R(0) - R_end) sin^2 theta``, which
    does not cancel at the turning points, and may refine to
    ``_QUAD_NMAX_KNOWN_ENDS`` nodes instead of ``_QUAD_NMAX``.  A row leaves
    the live set once two successive levels agree to ``tol`` relative, so
    every value has the same bits as on its own.
    """
    tol = DEFAULT_QUAD_TOL if tol is None else float(tol)
    rows = len(x_minus)
    T, err = np.full(rows, math.nan), np.full(rows, math.nan)
    found: list = [None] * rows
    coeffs = residual
    # One (mid, half) row per live shell, for x = mid + half cos theta, and one
    # (R_end, R(0) - R_end) row, NaN where R_end is not known.  Like Python
    # floats, they overflow to inf without a warning.
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
    scale = _SQRT2 / omega0
    # A non-positive radicand R makes its row's value inf or NaN.
    with np.errstate(divide="ignore", invalid="ignore"):
        while slots.size:
            # Rows with a non-positive R at a node are separatrix shells.
            # The first level has both ends of [0, pi]; the next has the
            # midpoints of the intervals before it.
            nodes = _level_nodes(n, True) if prev is None else _level_nodes(n // 2, False)
            sums, separatrix = _level_sums(coeffs, mid_half, ends, nodes, prev is None)
            if prev is None:
                vals = (math.pi / n) * sums
                # Nothing converges on the first level; change is not read.
                converged, change = np.zeros(slots.size, dtype=bool), vals
            else:  # T_n = (T_(n/2) + (pi/(n/2)) * sum of f at the n/2 new midpoints) / 2
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
    for i in (~(T > 0.0)).nonzero()[0].tolist():
        if found[i] is None:
            found[i] = DomainError(f"non-positive period {float(T[i])}")
            T[i] = err[i] = math.nan
    with np.errstate(over="ignore"):
        return T, 2.0 * math.pi / T, err, found


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

def binom_minus_half(n: int) -> np.ndarray:
    """``C(-1/2, j)`` for j = 0..n by the stable recurrence (no factorials)."""
    b = np.empty(n + 1)
    b[0] = 1.0
    for j in range(n):
        b[j + 1] = b[j] * (-0.5 - j) / (j + 1.0)
    return b


def _regime_from_ratio(s: float) -> str:
    if s < 1.0 - _BOUNDARY_TOL:
        return CONVERGENT
    if s <= 1.0 + _BOUNDARY_TOL:
        return BOUNDARY
    return DIVERGENT


def _truncation_estimate(terms, governing_ratio: float) -> float:
    if governing_ratio == 0.0:
        return 0.0  # the expansion variable vanishes: the tail is identically zero
    nz = [abs(t) for t in terms if t != 0.0]
    if not nz:
        return 0.0
    if len(nz) >= 2 and 0.0 < nz[-1] < nz[-2]:
        r = nz[-1] / nz[-2]
        return nz[-1] * r / (1.0 - r)
    return nz[-1]


def _summed_series(N: int, coeffs, step, xi, ratio: float, power=1.0,
                   moment=float) -> SeriesResult:
    """The partial-sum loop behind every series.

    Term j is ``coeffs(N)[j] * moment(power_j)`` with ``power_0 = power`` and
    ``power_(j+1) = power_j * step``; ``ratio`` is the governing ratio that
    sets the regime.  While it is below 1 the sum stops early once two
    successive terms fall below ``_EARLY_STOP_RTOL`` of the running total; a
    divergent series keeps all N + 1 terms so that its growth stays visible.
    """
    if N < 0:
        raise DomainError(f"series cap N must be >= 0, got {N}")
    c = coeffs(N)
    terms = []
    total = 0.0
    # An overflowing term needs no warning: the sum is checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(N + 1):
            term = c[j] * moment(power)
            terms.append(term)
            total += term
            if (ratio < 1.0 and j > 0
                    and max(abs(term), abs(terms[-2])) < _EARLY_STOP_RTOL * abs(total)):
                break
            power = power * step
        sums = np.cumsum(terms)
    if not math.isfinite(sums[-1]):
        raise ConvergenceError(f"series partial sum {sums[-1]} is not finite")
    regime = _regime_from_ratio(ratio)
    trunc = _truncation_estimate(terms, ratio)
    converged = regime == CONVERGENT and trunc <= _CONVERGED_RTOL * abs(sums[-1])
    return SeriesResult(
        terms=tuple(float(t) for t in terms),
        partial_sums=tuple(float(s) for s in sums),
        xi=xi,
        converged=bool(converged),
        truncation_error=float(trunc),
        regime=regime,
    )


def period_series_generic(frame: BalancedFrame, N: int) -> SeriesResult:
    """The binomial series for any polynomial shell, by exact angle moments.

    Each moment ``int_0^pi Delta^j dtheta`` is a polynomial in cos(theta), so
    the Gauss-Chebyshev rule with enough nodes integrates it exactly.
    Divergent regimes (sup |Delta| >= 1) still produce terms, flagged.
    """
    w2 = frame.omega * frame.omega
    if not (0.0 < w2 < math.inf and frame.sup_abs_delta < math.inf):
        raise DomainError(f"the {frame.strategy} frame omega = {frame.omega!r} puts omega^2 or "
                          "Delta out of the float range")
    shell = frame.shell
    deg = max(shell.residual.size - 1, 1)
    n_nodes = max(16, (N * deg) // 2 + 2)
    u = _midpoint_cos(n_nodes)
    x = 0.5 * (shell.x_plus + shell.x_minus) + 0.5 * (shell.x_plus - shell.x_minus) * u
    delta_u = (2.0 * polyval(shell.residual, x) - w2) / w2
    weight = math.pi / n_nodes
    pref = _SQRT2 / frame.omega
    return _summed_series(N, lambda n: pref * binom_minus_half(n), delta_u, frame.xi,
                          frame.sup_abs_delta, power=np.ones_like(delta_u),
                          moment=lambda powers: weight * float(powers.sum()))


def _alternating_pair_coeffs(N: int) -> np.ndarray:
    """``(-1)^j C(-1/2, j) C(-1/2, 2j)`` for j = 0..N."""
    b = binom_minus_half(2 * N)
    j = np.arange(N + 1)
    return (-1.0) ** j * b[j] * b[2 * j]


def _closed_form_series(pref: float, xi2: float, xi_report, N: int) -> SeriesResult:
    return _summed_series(N, lambda n: pref * _alternating_pair_coeffs(n), xi2, xi_report,
                          math.sqrt(abs(xi2)))


def _require_oscillatory_rho(rho: float) -> None:
    if rho <= -1.0 + _BOUNDARY_TOL:
        raise SeparatrixError(
            f"rho = {rho} is at or beyond the amplitude limit (rho = -1): no periodic motion"
        )


def duffing_series_balanced(rho: float, N: int) -> SeriesResult:
    """The balanced series for the canonical quartic, ``xi = rho/(4 + 3 rho)``.

    Converges for every rho > -1, i.e. for every energy with periodic motion.
    """
    _require_oscillatory_rho(rho)
    xi = rho / (4.0 + 3.0 * rho)
    pref = 2.0 * _SQRT2 * math.pi / math.sqrt(4.0 + 3.0 * rho)
    return _closed_form_series(pref, xi * xi, xi, N)


def duffing_series_nayfeh(rho: float, N: int) -> SeriesResult:
    """The textbook-frame series, ``xi = rho/(2 rho + 2)``; diverges on (-1, -2/3).

    Terms are returned for every rho > -1 so divergence is observable; the
    regime flag carries the verdict.
    """
    _require_oscillatory_rho(rho)
    xi = rho / (2.0 * rho + 2.0)
    pref = _SQRT2 * math.pi / math.sqrt(1.0 + rho)

    def coeffs(n):
        b = binom_minus_half(n)
        return pref * b * b

    return _summed_series(N, coeffs, xi, xi, abs(xi))


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
    flip = not shell.residual[1] > 0.0
    xm, xp = (-shell.x_plus, -shell.x_minus) if flip else (shell.x_minus, shell.x_plus)
    sum_sq = xp ** 2 + xp * xm + xm ** 2
    cross = xp ** 2 + 4.0 * xp * xm + xm ** 2
    omega_b = math.sqrt(-cross / (2.0 * sum_sq))
    xi = (xp ** 2 - xm ** 2) / cross
    if abs(xi) >= 1.0 - _BOUNDARY_TOL:
        raise SeparatrixError(f"|xi| = {abs(xi)} at or above 1: separatrix shell")
    pref = _SQRT2 * math.pi / omega_b
    return _closed_form_series(pref, xi * xi, -xi if flip else xi, N)


def period_from_series(series: SeriesResult, omega0: float = 1.0,
                       method: str = "series") -> PeriodResult:
    """Convert a series value of I into a period ``T = (sqrt 2 / omega0) I``."""
    scale = _SQRT2 / omega0
    return _period_result(scale * series.value, method, scale * series.truncation_error)


def duffing_balanced_large_rho_limit(N: int) -> float:
    """``lim sqrt(rho) T^(N)`` of the balanced quartic truncation (xi -> 1/3)."""
    coeffs = _alternating_pair_coeffs(N)
    powers = (1.0 / 9.0) ** np.arange(N + 1)
    return 4.0 * math.pi / math.sqrt(3.0) * float(coeffs @ powers)


# ---------------------------------------------------------------------------
# Convenience dispatch used by the CLI and demos
# ---------------------------------------------------------------------------

def best_series(shell: EnergyShell, frame: BalancedFrame, N: int) -> SeriesResult:
    """The closed-form series when the frame admits one, else the generic series."""
    if frame.strategy == NAYFEH:
        if shell.family != "quartic":
            raise DomainError("nayfeh series requires a canonical quartic shell")
        return duffing_series_nayfeh(shell.rho, N)
    if frame.strategy == BALANCED and shell.family == "quartic":
        return duffing_series_balanced(shell.rho, N)
    if frame.strategy == BALANCED and shell.family == "cubic":
        return cubic_series_balanced(shell, N)
    return period_series_generic(frame, N)
