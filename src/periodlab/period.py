"""Period evaluation by four routes: quadrature, series, and elliptic closed forms.

With ``x(theta) = mid + half*cos(theta)`` between the turning points, every route
evaluates ``T = (sqrt(2)/omega0) * int_0^pi dtheta / sqrt(R(x(theta)))``.  The exact
route is the nested trapezoid rule in theta, which converges exponentially on this
even, periodic, analytic integrand and reuses every value when it doubles.  The
series routes write ``2R = omega^2 (1 + Delta)`` and expand the integrand
binomially in the deviation; the canonical quartic and cubic wells also admit
complete-elliptic-integral closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._poly import _polyval_rows
from .errors import ConvergenceError, DomainError, PeriodLabError, SeparatrixError
from .frame import BALANCED, NAYFEH, BalancedFrame
from .potential import EnergyShell, _canonical_cubic, cubic_factorization

# Not called here any more: bench/spans.py counts quadrature nodes by rebinding
# this name, so it stays importable.
from .frame import delta_at  # noqa: F401

DEFAULT_QUAD_TOL = 1e-13
_QUAD_N0 = 16
_QUAD_NMAX = 4096

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


@dataclass(frozen=True)
class EllipticForm:
    """T = prefactor * K(modulus_m) with the complete elliptic integral K."""

    modulus_m: float
    prefactor: float


def _period_result(T: float, method: str, err: float) -> PeriodResult:
    if not T > 0.0:
        raise DomainError(f"non-positive period {T}")
    return PeriodResult(T=T, Omega=2.0 * math.pi / T, method=method, err_estimate=err)


# ---------------------------------------------------------------------------
# Elliptic integrals
# ---------------------------------------------------------------------------

def elliptic_K(m: float) -> float:
    """Complete elliptic integral of the first kind, parameter m = k^2 in [0, 1).

    Evaluated by the arithmetic-geometric mean; relative error below 1e-15.
    """
    if not 0.0 <= m < 1.0:
        raise DomainError(f"elliptic parameter m must lie in [0, 1), got {m}")
    a = 1.0
    b = math.sqrt(1.0 - m)
    # quadratic convergence: a handful of sweeps reach one ulp, where the
    # iterates may alternate forever; stop at 2 eps.
    for _ in range(60):
        if abs(a - b) <= 4.4e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    else:
        raise ConvergenceError(f"AGM did not converge for m = {m}")
    return math.pi / (2.0 * a)


# ---------------------------------------------------------------------------
# Nested trapezoid rule in theta
# ---------------------------------------------------------------------------

def _midpoint_cos(n: int) -> np.ndarray:
    """``cos((2i - 1) pi / (2n))`` for i = 1..n: ``cos theta`` at the midpoints of
    n equal intervals of [0, pi], which are also the Gauss-Chebyshev nodes."""
    i = np.arange(1, n + 1)
    return np.cos((2.0 * i - 1.0) * math.pi / (2.0 * n))


def period_quadratures(frames, omega0: float = 1.0, tol: float | None = None) -> list:
    """:func:`period_quadrature` of every frame in ``frames``, evaluated together.

    Slot ``i`` holds the :class:`PeriodResult` of ``frames[i]``, or the error
    that :func:`period_quadrature` raises for it.  Each level of the trapezoid
    rule evaluates ``1/sqrt(R)`` at its new nodes for every live shell in one
    array: the residuals are zero-padded at the top to a common degree and go
    through the Horner steps of ``npoly.polyval``.  A row leaves the live set
    once two successive levels agree to ``tol`` relative, so every value has
    the same bits as on its own.
    """
    tol = DEFAULT_QUAD_TOL if tol is None else float(tol)
    shells = [f.shell for f in frames]
    found: list = [None] * len(shells)
    coeffs = np.zeros((len(shells), max((s.residual.size for s in shells), default=1)))
    for i, s in enumerate(shells):
        coeffs[i, :s.residual.size] = s.residual
    # One (mid, half) row per live shell, for x = mid + half cos theta.
    mid_half = np.array([(0.5 * (s.x_plus + s.x_minus), 0.5 * (s.x_plus - s.x_minus))
                         for s in shells]).reshape(-1, 2)
    slots = list(range(len(shells)))
    prev = None
    n = _QUAD_N0
    u = np.cos(np.arange(n + 1) * (math.pi / n))  # the first level includes both ends
    # A non-positive radicand R makes its row's value inf or NaN; only such
    # rows are searched for one.
    with np.errstate(divide="ignore", invalid="ignore"):
        while slots:
            r = _polyval_rows(coeffs, mid_half[:, :1] + mid_half[:, 1:] * u)
            f = 1.0 / np.sqrt(r)
            if prev is None:  # the ends of [0, pi] weigh 1/2
                vals = (math.pi / n) * (0.5 * (f[:, 0] + f[:, -1]) + f[:, 1:-1].sum(axis=1))
            else:  # T_n = (T_(n/2) + (pi/(n/2)) * sum of f at the n/2 new midpoints) / 2
                vals = 0.5 * (np.array(prev) + (2.0 * math.pi / n) * f.sum(axis=1))
            vals = vals.tolist()
            keep = []
            for j, (i, val) in enumerate(zip(slots, vals)):
                if not math.isfinite(val) and (r[j] <= 0.0).any():
                    found[i] = SeparatrixError(
                        "non-positive radicand in the period integrand: separatrix shell"
                    )
                elif prev is not None and abs(val - prev[j]) <= tol * max(1e-300, abs(val)):
                    scale = _SQRT2 / omega0
                    try:
                        found[i] = _period_result(scale * val, "quadrature",
                                                  scale * abs(val - prev[j]))
                    except DomainError as exc:
                        found[i] = exc
                elif n < _QUAD_NMAX:
                    keep.append(j)
                else:
                    found[i] = ConvergenceError(
                        f"theta quadrature did not converge to {tol} within {_QUAD_NMAX} nodes"
                    )
            if len(keep) < len(slots):
                slots = [slots[j] for j in keep]
                if not slots:
                    break
                coeffs, mid_half = coeffs[keep], mid_half[keep]
            prev = [vals[j] for j in keep]
            u = _midpoint_cos(n)
            n *= 2
    return found


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
    (about 7.4162987): the modulus of :func:`duffing_elliptic` tends to 1/2."""
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
    shell = frame.shell
    deg = max(shell.residual.size - 1, 1)
    n_nodes = max(16, (N * deg) // 2 + 2)
    u = _midpoint_cos(n_nodes)
    x = 0.5 * (shell.x_plus + shell.x_minus) + 0.5 * (shell.x_plus - shell.x_minus) * u
    w2 = frame.omega * frame.omega
    delta_u = (2.0 * np.polynomial.polynomial.polyval(x, shell.residual) - w2) / w2
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
    """The balanced series for a quadratic-cubic shell; ``Delta = xi cos theta``.

    Converges for every sub-barrier energy; at the barrier ``|xi| = 1`` and the
    shell is rejected.  The series is summed in the canonical orientation; the
    reported ``xi`` is that of ``shell`` itself, as in its balanced frame.
    """
    s = _canonical_cubic(shell)
    xp, xm = s.x_plus, s.x_minus
    sum_sq = xp ** 2 + xp * xm + xm ** 2
    cross = xp ** 2 + 4.0 * xp * xm + xm ** 2
    omega_b = math.sqrt(-cross / (2.0 * sum_sq))
    xi = (xp ** 2 - xm ** 2) / cross
    if abs(xi) >= 1.0 - _BOUNDARY_TOL:
        raise SeparatrixError(f"|xi| = {abs(xi)} at or above 1: separatrix shell")
    pref = _SQRT2 * math.pi / omega_b
    return _closed_form_series(pref, xi * xi, xi if s is shell else -xi, N)


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
# Elliptic closed forms
# ---------------------------------------------------------------------------

def duffing_elliptic_form(rho: float, omega0: float = 1.0) -> EllipticForm:
    """The canonical quartic period as ``prefactor * K(m)`` with m in [0, 1)."""
    _require_oscillatory_rho(rho)
    m = rho / (2.0 * rho + 2.0)
    pref = 4.0 / (omega0 * math.sqrt(1.0 + rho))
    if m < 0.0:
        pref /= math.sqrt(1.0 - m)
        m = m / (m - 1.0)
    return EllipticForm(modulus_m=float(m), prefactor=float(pref))


def duffing_elliptic(rho: float, omega0: float = 1.0) -> PeriodResult:
    """Exact canonical-quartic period ``T = 4 K(rho/(2 rho + 2)) / sqrt(1 + rho)``."""
    form = duffing_elliptic_form(rho, omega0)
    T = form.prefactor * elliptic_K(form.modulus_m)
    return _period_result(T, "elliptic-duffing", 8.0 * np.finfo(float).eps * T)


def cubic_elliptic_form(shell: EnergyShell, omega0: float = 1.0) -> EllipticForm:
    """The quadratic-cubic period as ``prefactor * K(k^2)``,
    ``k^2 = (x_plus - x_minus)/(x_plus - x3)``."""
    s = _canonical_cubic(shell)
    _, b1, x3 = cubic_factorization(s)
    lam = 3.0 * b1
    k2 = (s.x_plus - s.x_minus) / (s.x_plus - x3)
    if k2 >= 1.0 - _BOUNDARY_TOL:
        raise SeparatrixError(f"k^2 = {k2} at or above 1: separatrix shell")
    pref = math.sqrt(3.0 / (2.0 * lam)) * 4.0 / (omega0 * math.sqrt(s.x_plus - x3))
    return EllipticForm(modulus_m=float(k2), prefactor=float(pref))


def cubic_elliptic(shell: EnergyShell, omega0: float = 1.0) -> PeriodResult:
    """Exact quadratic-cubic period through the complete elliptic integral."""
    form = cubic_elliptic_form(shell, omega0)
    T = form.prefactor * elliptic_K(form.modulus_m)
    return _period_result(T, "elliptic-cubic", 8.0 * np.finfo(float).eps * T)


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
