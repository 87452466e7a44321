"""Polynomial potential wells and their energy shells.

A well is described by a dimensionless potential ``U(x) = sum_k c_k x**k``
(units of length squared) whose reference minimum sits at ``U = 0``.  For a
given energy this module locates the turning points, peels the two simple
zeros off ``Q(x) = E - U(x)`` to expose the positive residual ``R(x)``, and
reports barrier/limit metadata for wells that are only locally confining.
A well is derived and checked once, in one pass: :func:`from_physical` hands
the well the U' and U'' and critical points it found its minimum with.

A well's :attr:`PolynomialPotential.family` decides which closed forms it
has.  The canonical quartic ``x^2/2 + lam x^4/4`` (the harmonic well at
lam = 0) has all of this in closed form: :func:`quartic_shells` and its
barrier solve no polynomial.  Nor does the canonical cubic ``x^2/2 + c3 x^3``
within a wide range of ``c3``: its barrier is the zero of a linear U'/x, and
its turning points come from the trigonometric roots of a cubic, finished by
one Newton step on a compensated Q (see :func:`_cubic_turning_points`).
Every other well finds the roots of ``E - U`` at a whole grid of its energies
with one stacked companion-matrix eigensolve and one Newton polish, picks the
turning points from them by masks, and computes what does not depend on the
energy once per well.  Where the companion matrix misses a shell's turning
points, as it does beside a leading coefficient far below ``c2``, Newton
polishes the harmonic ones instead.  A shell keeps only what the routes read:
the turning points, the residual and R's extrema on the shell, which a
residual of degree <= 2 finds at the critical point of R in closed form and
only a higher one by solving R'.

The shells of a grid are solved and checked as columns: :func:`shell_columns`
and :func:`rho_columns` return a :class:`ShellColumns`, one array per shell
field and one error slot per grid point, and every pick and check runs on a
whole column.  :func:`shells`, :func:`quartic_shells` and
:func:`turning_points` build their :class:`EnergyShell` objects from those
columns.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._poly import (
    _horner,
    as_coeffs,
    comp_horner,
    deflate,
    derivative,
    newton_polish,
    polyval,
    real_roots,
    real_roots_rows,
    two_product,
    two_sum,
)
from .errors import (
    ConvergenceError,
    DomainError,
    NoMinimumError,
    PeriodLabError,
    SeparatrixError,
)

# Energies this close (relative) to a barrier are treated as the separatrix.
SEPARATRIX_RTOL = 1e-12

_MIN_ENERGY = 1e-30

_SQRT_FLOAT_MAX = math.sqrt(sys.float_info.max)

# The canonical cubic takes its closed forms where |c3| lies in this range.
# There its barrier 1/(54 c3^2) lies in [2^-606, 2^594], so every energy that
# passes the checks has e = 54 c3^2 E in [2^-694, 1), and no operand of the
# error-free transforms of e nor of the compensated Q passes 2^996 or has a
# partial product below the normal range, where TwoProduct stops being exact.
_CUBIC_RANGE = (2.0 ** -300, 2.0 ** 300)
# The cubic's angles 2 pi/3 -+ phi/6 and phi/6 are a + b phi/6, exactly, for
# the columns (a, b) here; its roots next to 0 take the factors 2 and -2.
_CUBIC_ANGLES = np.array([[2.0 * math.pi / 3.0, 2.0 * math.pi / 3.0, -0.0], [-1.0, 1.0, 1.0]])
_CUBIC_SINES = np.array([2.0, -2.0])


class _Immutable:
    """Instances refuse to set or delete an attribute: ``__init__`` and the
    cached properties write ``__dict__`` directly."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: {name!r} is read-only")

    __delattr__ = __setattr__


class PolynomialPotential(_Immutable):
    """Dimensionless polynomial potential with provenance scaling.

    ``coeffs[k]`` multiplies ``x**k`` directly, so the canonical hardening
    quartic stores ``[0, 0, 1/2, 0, lam/4]``.  ``mass`` and ``omega0`` record
    the physical scaling used to build the dimensionless form; they do not
    enter any evaluation except the final conversion of periods to time.

    Construction derives and checks the well once, in one pass that checks
    U, U' and U'' at ``minimum_x`` on Python floats, and sets all the well's
    shells need that takes no eigensolve: ``slope_coeffs`` and
    ``curvature_coeffs``, the read-only coefficients of U' and U'';
    ``is_symmetric``, true when every odd coefficient is 0 and the minimum
    sits at 0; ``duffing_lambda``, the ``lam`` of a well whose coefficients
    are exactly ``[0, 0, 1/2, 0, lam/4]`` (``[0, 0, 1/2]`` at lam = 0), None
    for any other well, one that misses that pattern by rounding included;
    and ``family``, which decides the closed forms of its barrier and
    shells: ``"quartic"`` where ``duffing_lambda`` is set, ``"cubic"`` for
    coefficients exactly ``[0, 0, 1/2, c3]``, else ``"generic"``.  The barrier is found on first use and
    cached: in closed form for the quartic, and for a cubic with its minimum
    at 0 and ``|c3|`` in ``_CUBIC_RANGE``; for any other well from the
    critical points, the zeros of U' solved on first use and cached too.
    ``coeffs`` is read-only, so nothing goes stale.
    """

    def __init__(self, coeffs: np.ndarray, mass: float = 1.0, omega0: float = 1.0,
                 minimum_x: float = 0.0):
        c = as_coeffs(coeffs)
        _require_positive("mass", mass)
        _require_positive("omega0", omega0)
        self._build(c, *_derivatives(c), mass, omega0, minimum_x)

    def _build(self, c: np.ndarray, du: np.ndarray, d2u: np.ndarray, mass: float,
               omega0: float, minimum_x: float) -> None:
        """Set the fields of the well with the cut, finite, read-only
        coefficients ``c``, whose U' and U'' have the coefficients ``du`` and
        ``d2u``: check U, U' and U'' at ``minimum_x`` and tag the family, on
        the Python floats of ``c``."""
        self.__dict__.update(coeffs=c, mass=mass, omega0=omega0, minimum_x=minimum_x,
                             slope_coeffs=du, curvature_coeffs=d2u)
        x0, cs = minimum_x, c.tolist()
        scale = max(1.0, *map(abs, cs))
        u0 = polyval(cs, x0)
        if abs(u0) > 1e-8 * scale:
            raise DomainError(
                f"U(minimum_x) = {u0!r} is not zero; "
                "shift the coefficients so the reference minimum has zero potential"
            )
        if abs(polyval(du, x0)) > 1e-8 * scale:
            raise DomainError(f"minimum_x={x0} is not a critical point")
        curvature = polyval(d2u, x0)
        if not curvature > 0.0:
            raise NoMinimumError(
                f"U''({x0}) = {curvature} <= 0: reference point is not a local minimum"
            )
        symmetric = bool(abs(x0) <= 1e-14 and not any(cs[1::2]))
        lam = None
        if symmetric and len(cs) in (3, 5) and cs[0] == 0.0 and cs[2] == 0.5:
            lam = 4.0 * cs[4] if len(cs) == 5 else 0.0
        cubic = len(cs) == 4 and not any(cs[:2]) and cs[2] == 0.5
        family = "quartic" if lam is not None else "cubic" if cubic else "generic"
        self.__dict__.update(is_symmetric=symmetric, duffing_lambda=lam, family=family)

    def __call__(self, x):
        return polyval(self.coeffs, x)

    def slope(self, x):
        """First derivative U'(x)."""
        return polyval(self.slope_coeffs, x)

    def curvature(self, x):
        """Second derivative U''(x)."""
        return polyval(self.curvature_coeffs, x)

    @cached_property
    def critical_points(self) -> np.ndarray:
        """The real zeros of U', ascending."""
        crits = _solved(real_roots, self.slope_coeffs)
        crits.flags.writeable = False
        return crits

    def _keep_critical_points(self, crits: np.ndarray) -> None:
        """Cache ``crits``, the zeros of U' solved elsewhere, as :attr:`critical_points`."""
        crits.flags.writeable = False
        self.__dict__["critical_points"] = crits

    @cached_property
    def barrier(self) -> "BarrierInfo":
        """The finite barriers bounding the reference well, if any."""
        if self.duffing_lambda is not None:
            return quartic_barrier(self.duffing_lambda)
        u, d2u = self.coeffs.tolist(), self.curvature_coeffs.tolist()
        if _closed_cubic(self) is None:
            # The critical points next to the minimum, one on each side at
            # most.  The minimum is the critical point of positive curvature
            # nearest minimum_x, which construction accepts off it by up to
            # 1e-8 of the largest coefficient.
            crits, x0 = self.critical_points.tolist(), self.minimum_x
            minima = [x for x in crits if polyval(d2u, x) > 0.0]
            if minima:
                x0 = min(minima, key=lambda x: abs(x - self.minimum_x))
            sides = [*[x for x in crits if x < x0][-1:], *[x for x in crits if x > x0][:1]]
        else:
            # U' = x (c1 + c2 x): the critical point besides the minimum is -c1/c2.
            _, c1, c2 = self.slope_coeffs.tolist()
            sides = [-c1 / c2]
        # A critical point whose height overflows is not a finite barrier.
        heights = [(polyval(u, x), x) for x in sides if polyval(d2u, x) <= 0.0]
        candidates = [(e, x) for e, x in heights if 0.0 < e < math.inf]
        if not candidates:
            return BarrierInfo(has_barrier=False)
        energy, x = min(candidates)
        limit = abs(x) if self.is_symmetric else None
        return BarrierInfo(True, barrier_energy=energy, barrier_x=x, amplitude_limit=limit)


class EnergyShell(_Immutable):
    """One energy level of a well: turning points and the deflated residual.

    ``Q(x) = energy - U(x) = (x_plus - x)(x - x_minus) R(x)`` with ``R > 0``
    on the closed interval between the turning points.  ``residual_extrema``
    is ``(R_min, R_max, argmin, argmax)`` over the turning points and the
    zeros of R' strictly between them, in that order, first index winning a
    tie.  :func:`shells` passes it; when it is not given, it is computed from
    ``residual`` by the routine :func:`shells` uses.  ``family`` is the well's
    :attr:`PolynomialPotential.family`; a shell given none is ``"quartic"``
    where ``rho`` is set, ``"cubic"`` where R is linear, else ``"generic"``.
    ``residual_at_turning_points``, when set, is ``R(x_minus) = R(x_plus)``
    of a symmetric shell with an even quadratic residual, known more closely
    than evaluating ``residual`` there gives: next to the barrier of the
    softening quartic that evaluation cancels.  The quadrature then takes
    ``R`` at ``x = A cos theta`` as ``R_end + (R(0) - R_end) sin^2 theta``.
    """

    def __init__(self, energy: float, x_minus: float, x_plus: float, residual: np.ndarray,
                 amplitude: float | None = None, rho: float | None = None,
                 residual_extrema: tuple | None = None,
                 residual_at_turning_points: float | None = None, family: str | None = None):
        residual = as_coeffs(residual)
        if family is None:
            family = "quartic" if rho is not None else "cubic" if residual.size == 2 else "generic"
        if not x_minus < x_plus:
            raise DomainError(f"turning points out of order: {x_minus} >= {x_plus}")
        if residual_extrema is None:
            extrema, failed = _residual_extrema(residual[None, :], [x_minus], [x_plus])
            if failed:
                raise failed[0]
            residual_extrema = tuple(extrema[:, 0].tolist())
        self.__dict__.update(energy=energy, x_minus=x_minus, x_plus=x_plus, residual=residual,
                             amplitude=amplitude, rho=rho, residual_extrema=residual_extrema,
                             residual_at_turning_points=residual_at_turning_points, family=family)

    def residual_at(self, x):
        return polyval(self.residual, x)

    def q_at(self, x):
        """Reconstructed Q(x) = (x_plus - x)(x - x_minus) R(x)."""
        return (self.x_plus - x) * (x - self.x_minus) * self.residual_at(x)


class ShellColumns(NamedTuple):
    """The shells of a grid of slots, each slot one energy of a well, as columns.

    ``error[i]`` is the error that :func:`turning_points` raises for slot
    ``i``, or None when the slot has a shell.  Those slots are ``slots``,
    ascending, and row ``j`` of every column belongs to slot ``slots[j]``.
    The columns are arrays and hold what the slot's :class:`EnergyShell`
    holds: ``energy``, ``x_minus``, ``x_plus``; the rows of ``residual``,
    zero-padded to one width; and ``residual_extrema``, of shape
    ``(4, rows)``: the columns ``R_min``, ``R_max``, ``argmin`` and
    ``argmax``, so that ``residual_extrema[0]`` is ``R_min`` here as on a
    shell.  ``residual_at_turning_points`` is NaN where
    it is not known, and ``amplitude`` and ``rho`` are None where the shells
    do not set them.  All shells of the columns are of one ``family``, that
    of :class:`EnergyShell`; where it is None, each shell decides its own.
    """

    error: list
    slots: np.ndarray
    energy: np.ndarray
    x_minus: np.ndarray
    x_plus: np.ndarray
    residual: np.ndarray
    residual_extrema: np.ndarray
    residual_at_turning_points: np.ndarray
    amplitude: np.ndarray | None = None
    rho: np.ndarray | None = None
    family: str | None = None

    @classmethod
    def failed(cls, error: list, width: int = 1) -> "ShellColumns":
        """Columns whose every slot holds the error in ``error``."""
        empty = np.empty(0)
        return cls(list(error), np.empty(0, dtype=int), empty, empty, empty,
                   np.empty((0, width)), np.empty((4, 0)), empty)

    def shells(self) -> list:
        """Slot ``i`` holds the :class:`EnergyShell` of slot ``i``, or its error."""
        found = list(self.error)
        rows = len(self.slots)
        amplitude, rho = ([None] * rows if c is None else c.tolist()
                          for c in (self.amplitude, self.rho))
        r_end = [None if math.isnan(r) else r for r in self.residual_at_turning_points.tolist()]
        for j, (i, energy, lo, hi, extrema) in enumerate(zip(
                self.slots.tolist(), self.energy.tolist(), self.x_minus.tolist(),
                self.x_plus.tolist(), zip(*self.residual_extrema.tolist()))):
            found[i] = EnergyShell(
                energy=energy, x_minus=lo, x_plus=hi, residual=self.residual[j],
                amplitude=amplitude[j], rho=rho[j], residual_extrema=extrema,
                residual_at_turning_points=r_end[j], family=self.family,
            )
        return found

    def _failing(self, *checks) -> "ShellColumns":
        """These columns without the rows that fail one of ``checks``.

        A check is a pair ``(bad, error_of)``: a mask over the rows, and the
        error of a row ``j`` that it marks.  The slot of a failing row holds
        the error of the first check the row fails.
        """
        bad = checks[0][0]
        for mask, _ in checks[1:]:
            bad = bad | mask
        if not np.count_nonzero(bad):
            return self
        error = list(self.error)
        for j in bad.nonzero()[0].tolist():
            error[self.slots[j]] = next(error_of(j) for mask, error_of in checks if mask[j])
        keep = ~bad
        return ShellColumns(
            error, self.slots[keep], self.energy[keep], self.x_minus[keep], self.x_plus[keep],
            self.residual[keep], self.residual_extrema[:, keep], self.residual_at_turning_points[keep],
            None if self.amplitude is None else self.amplitude[keep],
            None if self.rho is None else self.rho[keep], self.family,
        )

    def _checked(self, *checks) -> "ShellColumns":
        """:meth:`_failing` of ``checks``, then of the checks every shell
        passes: turning points in order, and a residual positive on the shell."""
        lo, hi, r_min = self.x_minus, self.x_plus, self.residual_extrema[0]
        return self._failing(
            *checks,
            (~(lo < hi), lambda j: DomainError(
                f"turning points out of order: {float(lo[j])} >= {float(hi[j])}")),
            (r_min <= 0.0, lambda j: _residual_not_positive(float(r_min[j]))),
        )


class BarrierInfo(NamedTuple):
    """Barriers adjacent to the reference minimum, if any.

    ``barrier_energy`` is the lowest adjacent barrier height (``inf`` when the
    well confines in both directions).  ``amplitude_limit`` is only set for
    parity-symmetric wells, where it equals the barrier position.
    """

    has_barrier: bool
    barrier_energy: float = math.inf
    barrier_x: float | None = None
    amplitude_limit: float | None = None


def from_physical(v_coeffs, mass: float = 1.0, omega0: float = 1.0) -> PolynomialPotential:
    """Build the dimensionless well ``U = V/(m omega0^2)`` from physical coefficients.

    The reference minimum is the critical point of U with positive curvature
    nearest the origin; the constant coefficient, checked finite, is then
    replaced by ``-U0(m)``, ``U0`` the well with a constant of +0.0, so that
    ``U(minimum) = 0`` exactly and every constant gives the same well.  U'
    and U'' do not change, so the well keeps the derivatives and critical
    points found here and is derived and checked once: only the new constant
    is checked anew.  A scaling ``1/(m omega0^2)`` that is not a finite
    positive number, or that overflows a coefficient, raises
    :class:`DomainError`.
    """
    _require_positive("mass", mass)
    _require_positive("omega0", omega0)
    v = np.asarray(v_coeffs, dtype=float)
    try:
        scale = mass * omega0 ** 2
    except OverflowError:
        scale = math.inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u = v / scale
    finite = np.count_nonzero(np.isfinite(v))
    if not 0.0 < scale < math.inf or np.count_nonzero(np.isfinite(u)) < finite:
        raise DomainError(f"mass {mass} and omega0 {omega0} give no finite scaling "
                          f"1/(mass omega0^2) of the coefficients {v.tolist()}")
    u = as_coeffs(u)
    du, d2u = _derivatives(u)
    crits = _solved(real_roots, du)
    # A curvature that overflows still has its sign.
    minima = [c for c in crits.tolist() if polyval(d2u, c) > 0.0]
    if not minima:
        raise NoMinimumError(
            f"no local minimum with positive curvature; critical points: {crits.tolist()}"
        )
    m = min(minima, key=abs)
    cs = u.tolist()
    cs[0] = 0.0
    cs[0] = 0.0 - polyval(cs, m)
    if not math.isfinite(cs[0]):
        raise DomainError(f"potential coefficients must be finite, got {cs}")
    well = PolynomialPotential.__new__(PolynomialPotential)
    well._build(as_coeffs(cs), du, d2u, mass, omega0, m)
    well._keep_critical_points(crits)
    return well


def _solved(roots, coeffs):
    """``roots(coeffs)``, with a failed companion-matrix eigensolve, such as one
    on a matrix that overflows, raised as :class:`ConvergenceError`."""
    try:
        return roots(coeffs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"companion-matrix eigensolve failed: {exc}") from exc


def _solved_rows(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """:func:`real_roots_rows` of ``coeffs``, and the :class:`ConvergenceError`
    of :func:`_solved` of each row whose eigensolve fails, by row.

    A failed stacked solve is redone one row at a time, so one overflowing
    row fails only its own slot; its roots are all NaN padding.
    """
    try:
        return (*_solved(real_roots_rows, coeffs), {})
    except ConvergenceError as exc:
        if len(coeffs) == 1:
            return np.full((1, coeffs.shape[1] - 1), math.nan), np.zeros(1, dtype=int), {0: exc}
        parts = [_solved_rows(row[None, :]) for row in coeffs]
        return (np.concatenate([roots for roots, _, _ in parts]),
                np.concatenate([counts for _, counts, _ in parts]),
                {j: failed[0] for j, (_, _, failed) in enumerate(parts) if failed})


def _require_positive(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    if value <= 0.0:
        raise DomainError(f"{name} must be positive, got {value}")


def _derivatives(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The read-only coefficients of U' and U'' of the well with coefficients ``c``."""
    du, d2u, (error,) = _derivative_rows(c[None, :])
    if error is not None:
        raise error
    if c.size - 1 < 2:
        raise DomainError("potential must have degree >= 2")
    du, d2u = du[0], d2u[0]
    du.flags.writeable = d2u.flags.writeable = False
    return du, d2u


def _derivative_rows(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """The coefficients of U' and U'' of the well in each row of ``c``, and,
    per row, the :class:`DomainError` of coefficients that are not finite or
    that overflow U' or U'', or None."""
    # U'' is finite only if U' is; the overflow itself needs no warning.
    with np.errstate(over="ignore"):
        du = derivative(c)
        d2u = derivative(du)
    error = [None] * len(c)
    if np.count_nonzero(np.isfinite(c)) < c.size or np.count_nonzero(np.isfinite(d2u)) < d2u.size:
        finite = np.isfinite(c).all(axis=1)
        for i in (~finite | ~np.isfinite(d2u).all(axis=1)).nonzero()[0].tolist():
            row = as_coeffs(c[i]).tolist()
            error[i] = DomainError(
                f"potential coefficients must be finite, got {row}" if not finite[i] else
                f"the coefficients of U' and U'' must be finite; {row} overflows them")
    return du, d2u, error


def harmonic_potential(mass: float = 1.0, omega0: float = 1.0) -> PolynomialPotential:
    """The reference well U(x) = x^2/2."""
    return PolynomialPotential(np.array([0.0, 0.0, 0.5]), mass, omega0)


def duffing_potential(lam: float, mass: float = 1.0, omega0: float = 1.0) -> PolynomialPotential:
    """The canonical quartic well U(x) = x^2/2 + lam x^4/4 (lam = 0 is harmonic)."""
    return PolynomialPotential(np.array([0.0, 0.0, 0.5, 0.0, lam / 4.0]), mass, omega0)


def cubic_potential(lam: float, mass: float = 1.0, omega0: float = 1.0) -> PolynomialPotential:
    """The canonical asymmetric well U(x) = x^2/2 + lam x^3/3, lam != 0."""
    if lam == 0.0:
        raise DomainError("cubic potential requires lam != 0; use harmonic_potential")
    return PolynomialPotential(np.array([0.0, 0.0, 0.5, lam / 3.0]), mass, omega0)


def barrier_info(U: PolynomialPotential) -> BarrierInfo:
    """Locate the finite barriers bounding the reference well, if any.

    Computed once per well and cached on it (:attr:`PolynomialPotential.barrier`).
    """
    return U.barrier


_NO_BARRIER = BarrierInfo(has_barrier=False)


def quartic_barrier(lam: float) -> BarrierInfo:
    """The barrier of the canonical quartic ``x^2/2 + lam x^4/4``, in closed form.

    Only the softening well (lam < 0) has one: at ``x = +-1/sqrt(-lam)``, of
    height ``-1/(4 lam)``; ``barrier_x`` is the one at negative x.
    """
    if not lam < 0.0:
        return _NO_BARRIER
    limit = 1.0 / math.sqrt(-lam)
    return BarrierInfo(True, barrier_energy=-0.25 / lam, barrier_x=-limit, amplitude_limit=limit)


def _check_energy(energy: float, barrier: BarrierInfo) -> None:
    if not math.isfinite(energy):
        raise DomainError(f"energy must be finite, got {energy}")
    if not energy > 0.0:
        raise DomainError(f"energy must be positive, got {energy}")
    if energy < _MIN_ENERGY:
        raise DomainError(f"energy {energy} below the supported floor {_MIN_ENERGY}")
    if barrier.has_barrier and energy >= barrier.barrier_energy * (1.0 - SEPARATRIX_RTOL):
        raise SeparatrixError(
            f"energy {energy} at or above the barrier {barrier.barrier_energy}: "
            "the motion is unbounded/separatrix there"
        )


def _check_energies(energies: np.ndarray, barrier_energy, check, error: list) -> None:
    """Set ``error[i]``, where it is None, to the error that ``check(i)``
    raises, for each energy that the column form of :func:`_check_energy`
    finds failing.

    ``barrier_energy`` holds the barrier energies, one or one per energy: inf
    where there is no barrier, -inf to fail a slot whatever its energy.
    ``check(i)`` makes slot ``i``'s scalar checks, which give the error.
    """
    # An energy that is NaN, infinite, too small or at the barrier is suspect.
    with np.errstate(invalid="ignore"):
        suspect = (~(energies >= _MIN_ENERGY)
                   | (energies >= barrier_energy * (1.0 - SEPARATRIX_RTOL)))
    for i in suspect.nonzero()[0].tolist():
        if error[i] is None:
            try:
                check(i)
            except DomainError as exc:
                error[i] = exc


def turning_points(U: PolynomialPotential, energy: float) -> EnergyShell:
    """The energy shell at ``energy``: adjacent turning points and residual.

    Raises :class:`DomainError` for non-positive energies and
    :class:`SeparatrixError` for energies at or beyond an adjacent barrier
    (within ``SEPARATRIX_RTOL`` relative).  This is :func:`shells` on one
    energy.
    """
    shell = shells(U, [energy])[0]
    if isinstance(shell, PeriodLabError):
        raise shell
    return shell


def shells(U: PolynomialPotential, energies) -> list:
    """The energy shells of the well ``U`` at each of ``energies``, solved together.

    Slot ``i`` holds the shell at ``energies[i]``, or the error that
    :func:`turning_points` raises at that energy.  These are the shells of
    :func:`shell_columns`, and each is bit-identical to the one found on its
    own.
    """
    return shell_columns(U, energies).shells()


def shell_columns(U: PolynomialPotential, energies) -> ShellColumns:
    """The shells of the well ``U`` at each of ``energies``, as columns.

    A well whose coefficients are exactly the canonical quartic's takes its
    shells from the closed form of :func:`quartic_shells` and solves nothing.
    Any other well reads its barrier once.  A canonical cubic with ``c3`` in
    ``_CUBIC_RANGE`` forms its turning points in closed form and solves
    nothing either; for every other well the roots of ``E - U`` at all its
    energies come from one stacked companion-matrix solve, and the turning
    points are picked from them as arrays (see :func:`_solve_shells`).  The
    critical points of a residual of degree <= 2 come in closed form, those
    of higher ones from one more stacked solve.  Every column of the result
    is an array.
    """
    energies = np.array(energies, dtype=float)
    if U.duffing_lambda is not None:
        return _quartic_columns(np.full(energies.size, U.duffing_lambda), energies,
                                [None] * energies.size)
    try:
        barrier = U.barrier
    except ConvergenceError as exc:
        return ShellColumns.failed([exc] * energies.size)
    error: list = [None] * energies.size
    _check_energies(energies, barrier.barrier_energy,
                    lambda i: _check_energy(float(energies[i]), barrier), error)
    return _solve_shells(U, energies, error)


@np.errstate(invalid="ignore")  # a NaN turning point fails the checks quietly
def _solve_shells(U: PolynomialPotential, energies: np.ndarray, error: list) -> ShellColumns:
    """The shell columns of ``U`` at the ``energies`` whose ``error`` is None.

    Those energies passed :func:`_check_energy`.  The turning points come in
    closed form for a canonical cubic with ``c3`` in ``_CUBIC_RANGE``
    (:func:`_cubic_turning_points`), else from the companion roots
    (:func:`_picked_turning_points`).  Both are deflated off ``E - U`` in one
    :func:`deflate` loop and checked alike.  ``E - U`` and the energy column
    are formed once, and one mask of the rows that pass every check is split
    into the checks, in their order, only when a row fails.
    """
    error = list(error)
    slots = np.array([i for i, e in enumerate(error) if e is None], dtype=int)
    if not slots.size:
        return ShellColumns.failed(error, max(U.coeffs.size - 2, 1))
    energy = energies[slots]
    q = np.empty((slots.size, U.coeffs.size))
    q[:] = -U.coeffs
    q[:, 0] += energy
    c3 = _closed_cubic(U)
    if c3 is None:
        x_minus, x_plus, retried, retry_error = _picked_turning_points(U, q, energy)
    else:
        (x_minus, x_plus), retried = _cubic_turning_points(c3, q, U.slope_coeffs).T, None
    if U.is_symmetric:
        # Companion roots of an even polynomial are symmetric to rounding;
        # averaging pins the parity invariant exactly.
        half = 0.5 * (x_plus - x_minus)
        x_minus, x_plus = -half, half
    quot, rem_plus, rem_minus = deflate(q, x_plus, x_minus)
    residual = -quot
    extrema, crit_failed = _residual_extrema(residual, x_minus, x_plus)
    columns = ShellColumns(
        error, slots, energy, x_minus, x_plus, residual, extrema, np.full(slots.size, math.nan),
        amplitude=x_plus.copy() if U.is_symmetric else None, family=U.family,
    )
    tol = 1e-10 * np.maximum(1.0, energy)
    # Deflation and positivity pass, NaN failing; only a failing row splits the checks.
    passed = (np.maximum(np.abs(rem_plus), np.abs(rem_minus)) <= tol) & (extrema[0] > 0.0)
    if (retried is None and not crit_failed
            and np.count_nonzero(passed & (x_minus < x_plus)) == slots.size):
        return columns
    unsolved = np.zeros(slots.size, dtype=bool)
    unsolved[list(crit_failed)] = True
    checks = []
    if retried is not None:
        # A retried row keeps its pair, which is in order, only where every
        # check passes; elsewhere its slot keeps the error of the companion solve.
        checks.append((retried & ~(passed & ~unsolved), retry_error))
    if crit_failed:
        checks.append((unsolved, lambda j: crit_failed[j]))
    return columns._checked(*checks, (
        (np.abs(rem_plus) > tol) | (np.abs(rem_minus) > tol),
        lambda j: ConvergenceError(
            f"turning-point deflation left remainders ({float(rem_plus[j])}, "
            f"{float(rem_minus[j])}) above {float(tol[j])}"
        ),
    ))


# The root columns are NaN where a row holds no root, and a comparison with
# NaN is False with no warning owed.
@np.errstate(invalid="ignore")
def _picked_turning_points(U: PolynomialPotential, q: np.ndarray, energy: np.ndarray) -> tuple:
    """``(x_minus, x_plus, retried, retry_error)``: the turning points of each
    row of ``q``, ``E - U`` at the ``energy`` of the row, which passed the
    checks, picked from its companion roots.

    A row whose roots bracket no minimum is a failed solve.  Such a row, and
    one whose eigensolve fails, polishes the harmonic turning points ``x0 +-
    sqrt(2E/U''(x0))`` instead: where a leading coefficient far below ``c2``
    makes the companion matrix overflow or lose the small roots, Newton still
    finds them.  A pair that does not bracket ``x0`` is NaN.  ``retried``
    marks those rows, or is None where there are none, and ``retry_error(j)``
    is the error of row ``j``'s companion solve, which its slot holds unless
    the pair passes every check.
    """
    roots, counts, failed = _solved_rows(q)
    # The roots ascend, NaN padding last: x_minus is the root before the
    # first one at or above x0 (the last entry where there is none), and
    # x_plus the first one above x0.  Where either is missing, the entry
    # picked does not bracket x0.
    x0, rows = U.minimum_x, np.arange(len(q))
    x_minus = roots[rows, (roots >= x0).argmax(axis=1) - 1]
    x_plus = roots[rows, (roots > x0).argmax(axis=1)]
    retried = ~((x_minus < x0) & (x0 < x_plus))
    if not np.count_nonzero(retried):
        return x_minus, x_plus, None, None
    j = retried.nonzero()[0]
    with np.errstate(over="ignore"):
        reach = np.sqrt(2.0 * energy[j] / U.curvature(x0))
    lo, hi = newton_polish(q[j], derivative(q[j]), np.stack([x0 - reach, x0 + reach], axis=1)).T
    found = (lo < x0) & (x0 < hi) & np.isfinite(lo) & np.isfinite(hi)
    x_minus[j], x_plus[j] = np.where(found, lo, math.nan), np.where(found, hi, math.nan)
    return x_minus, x_plus, retried, lambda j: failed.get(j) or ConvergenceError(
        f"no turning points bracket the minimum at energy {float(energy[j])}; "
        f"real roots found: {roots[j, :counts[j]].tolist()}")


def _closed_cubic(U: PolynomialPotential) -> float | None:
    """``c3`` of a canonical cubic ``x^2/2 + c3 x^3`` with its minimum at 0 and
    ``|c3|`` in ``_CUBIC_RANGE``, whose barrier and shells take closed forms;
    None for any other well."""
    if U.family != "cubic" or U.minimum_x != 0.0:
        return None
    c3 = float(U.coeffs[3])
    return c3 if _CUBIC_RANGE[0] <= abs(c3) <= _CUBIC_RANGE[1] else None


def _cubic_turning_points(c3: float, q: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """The turning points ``(x_minus, x_plus)``, one row per row of ``q``, of the
    cubic ``x^2/2 + c3 x^3`` whose U' has the coefficients ``slope``; row ``i``
    of ``q`` is ``E - U`` at an energy below the barrier, and ``c3`` is in
    ``_CUBIC_RANGE``.

    With ``y = -3 c3 x``, ``U = E`` reads ``3 y^2 - 2 y^3 = e``, ``e = 54 c3^2
    E``, which is ``sin^2(phi/2)``.  ``e`` and ``g = 1 - e`` are formed in
    double-double by :func:`two_product` and :func:`two_sum` and rounded
    once, so ``g`` keeps its digits next to the barrier.  ``phi`` is ``2 asin
    sqrt(e)`` where ``e <= g`` and ``pi - 2 asin sqrt(g)`` elsewhere, and the
    roots next to 0 are ``y = 2 sin(2 pi/3 - phi/6) sin(phi/6)`` and ``y = -2
    sin(2 pi/3 + phi/6) sin(phi/6)``, free of cancellation.  The points ``x =
    y/(-3 c3)`` are a few ulp off; one Newton step on Q, evaluated by
    :func:`comp_horner`, takes both to within an ulp of the roots of ``E -
    U`` in float coefficients.
    """
    energy = q[:, 0]  # c0 = 0
    a, a_err = two_product(c3, c3)
    b, b_err = two_product(54.0, a)
    b_err += 54.0 * a_err
    p, p_err = two_product(b, energy)
    tail = p_err + b_err * energy
    t, t_err = two_sum(1.0, -p)
    e, g = p + tail, t + (t_err - tail)
    small = e <= g
    half = np.arcsin(np.sqrt(np.where(small, e, g)))
    phi6 = np.where(small, half, 0.5 * math.pi - half) / 3.0
    sines = np.sin(_CUBIC_ANGLES[0] + phi6[:, None] * _CUBIC_ANGLES[1])
    x = sines[:, :2] * (sines[:, 2:] * _CUBIC_SINES) / (-3.0 * c3)
    if c3 < 0.0:
        x = x[:, ::-1]
    # Q' = -U'
    return x + comp_horner(q, x) / _horner(slope, x)


def quartic_shells(lams, energies) -> list:
    """The shells of the canonical quartic ``x^2/2 + lam x^4/4`` at each pair
    of ``lams`` and ``energies``, in closed form.

    Slot ``i`` holds the shell, or the error that :func:`turning_points`
    raises for that well and energy.  With ``s = sqrt(1 + 4 lam E)`` the
    turning points are ``-A`` and ``A``, ``A^2 = 4E/(1 + s)``, and
    ``E - U = (A^2 - x^2) R`` with ``R = (1 + s)/4 + (lam/4) x^2``, whose
    critical point is 0 (none at lam = 0).  For lam < 0 the shell carries
    ``R(+-A) = s/2``, which evaluating R there cancels next to the barrier.
    No polynomial is solved, and no column is formed row by row (see :func:`_half_s`).
    """
    lams = np.array(lams, dtype=float)
    energies = np.array(energies, dtype=float)
    return _quartic_columns(lams, energies, [None] * energies.size).shells()


def _quartic_columns(lams: np.ndarray, energies: np.ndarray, error: list) -> ShellColumns:
    """The columns of :func:`quartic_shells` at the pairs whose ``error`` is None,
    formed on whole columns: ``s/2`` by :func:`_half_s`, rho by mapped C ``pow``."""
    error = list(error)

    def check(i):
        lam = float(lams[i])
        if not math.isfinite(lam):
            raise DomainError(f"lam must be finite, got {lam}")
        _check_energy(float(energies[i]), quartic_barrier(lam))

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        barrier_energy = np.where(lams < 0.0, -0.25 / lams, math.inf)
    barrier_energy[~np.isfinite(lams)] = -math.inf
    _check_energies(energies, barrier_energy, check, error)
    slots = np.array([i for i, e in enumerate(error) if e is None], dtype=int)
    if not slots.size:
        return ShellColumns.failed(error, 3)

    lam, energy = lams[slots], energies[slots]
    half_s = _half_s(lam, energy)
    # (1 + s)/2, and 2 sqrt((E/2)/((1 + s)/2)) is sqrt(4E/(1 + s)), bit for
    # bit, with neither 4E nor s overflowing.
    half_sum = 0.5 + half_s
    amplitude = 2.0 * np.sqrt((0.5 * energy) / half_sum)
    residual = np.zeros((slots.size, 3))
    residual[:, 0] = 0.5 * half_sum
    residual[:, 2] = lam / 4.0
    # a ** 2 is C pow, whose rounding numpy's square does not reproduce, and a
    # Python product overflows to inf with no warning.  Past sqrt(max float)
    # pow overflows, though rho = s - 1 does not: there rho is lam a a.
    squares = map(pow, np.minimum(amplitude, _SQRT_FLOAT_MAX).tolist(), [2] * lam.size)
    rho = np.array(list(map(float.__mul__, lam.tolist(), squares)))
    past = amplitude > _SQRT_FLOAT_MAX
    rho[past] = lam[past] * amplitude[past] * amplitude[past]
    # The extrema over the candidates -A, A and 0 (A and -A only at lam = 0)
    # in closed form: R(+-A) as _residual_extrema evaluates it, R(0) = R0, the
    # first candidate winning a tie.
    r0, r_a = residual[:, 0], polyval(residual, amplitude)
    extrema = np.array([np.minimum(r_a, r0), np.maximum(r_a, r0),
                        np.where(r_a > r0, 0.0, -amplitude), np.where(r_a < r0, 0.0, -amplitude)])
    return ShellColumns(
        error, slots, energy, -amplitude, amplitude, residual, extrema,
        np.where(lam < 0.0, half_s, math.nan), amplitude=amplitude, rho=rho, family="quartic",
    )._checked()


def rho_columns(rhos) -> tuple[ShellColumns, np.ndarray]:
    """The shell columns of a grid of rho values, and the coefficient rows of their wells.

    Any (lam, A) with lam A^2 = rho gives the same period, so a rho is the
    canonical quartic with lam = rho at amplitude 1, ``E = 1/2 + rho/4``,
    whose coefficients are row ``i`` of the returned ``(len(rhos), 5)``
    array.  A slot fails where that well cannot be built (:func:`_derivatives`),
    where :func:`quartic_shells` fails, and where amplitude 1 lies beyond the
    barrier, as ``period --amplitude 1`` does: the shell at E is there an
    inner one, of another rho.
    """
    rhos = np.array(rhos, dtype=float)
    coeffs = np.zeros((rhos.size, 5))
    coeffs[:, 2] = 0.5
    coeffs[:, 4] = rhos / 4.0
    _, _, error = _derivative_rows(coeffs)
    columns = _quartic_columns(rhos, 0.5 + rhos / 4.0, error)
    # The amplitude limit of quartic_barrier, inf where there is no barrier.
    lam = rhos[columns.slots]
    softening = lam < 0.0
    limit = np.full(lam.size, math.inf)
    limit[softening] = 1.0 / np.sqrt(-lam[softening])
    return columns._failing((1.0 >= limit * (1.0 - SEPARATRIX_RTOL),
                             lambda j: _amplitude_error(1.0, float(limit[j])))), coeffs


def _amplitude_error(a: float, limit: float | None) -> SeparatrixError | None:
    """The error of amplitude ``a`` in a well whose amplitudes are below
    ``limit`` (None: unlimited), or None where ``a`` is below it."""
    if limit is not None and a >= limit * (1.0 - SEPARATRIX_RTOL):
        return SeparatrixError(f"amplitude {a} at or beyond the limit {limit}")
    return None


def _half_s(lam: np.ndarray, energy: np.ndarray) -> np.ndarray:
    """:func:`_quartic_half_s` of each pair, bit for bit: ``1 + 4 lam E = t + u + e`` from
    ``(p, e) = two_product(4 lam, E)`` and ``(t, u) = two_sum(1, p)`` rounds once as ``t +
    RO(u + e)``, RO rounding to odd (Boldo & Melquiond, IEEE Trans. Comput. 57(4), 2008).
    A pair past 2^497 in ``|lam|`` or ``E``, where the product may overflow, is scalar."""
    past = np.maximum(np.abs(lam), energy) > 2.0 ** 497
    scalar = past.nonzero()[0]
    if scalar.size:
        found = list(map(_quartic_half_s, lam[scalar].tolist(), energy[scalar].tolist()))
        lam, energy = np.where(past, 0.0, lam), np.where(past, 0.0, energy)
    p, e = two_product(4.0 * lam, energy)
    t, u = two_sum(1.0, p)
    v, w = two_sum(u, e)
    # v to odd: truncated (a step toward zero where w has the other sign), last bit set if inexact.
    inexact = w != 0.0
    odd = (v.view(np.int64) - (inexact & (np.signbit(w) != np.signbit(v)))) | inexact
    half_s = np.sqrt(t + odd.view(np.float64)) * 0.5
    if scalar.size:
        half_s[scalar] = found
    return half_s


def _quartic_half_s(lam: float, energy: float) -> float:
    """``sqrt(1 + 4 lam E)/2``, with ``1 + 4 lam E`` formed exactly in
    integers and rounded once.

    Near the softening barrier ``1 + 4 lam E`` cancels.  Where it passes the
    float range, which its root does not, it is rounded scaled by ``2^-1200``.
    """
    (n_lam, d_lam), (n_e, d_e) = lam.as_integer_ratio(), energy.as_integer_ratio()
    num, den = d_lam * d_e + 4 * n_lam * n_e, d_lam * d_e
    try:
        return math.sqrt(num / (den << 2))
    except OverflowError:
        return math.sqrt(num / (den << 1202)) * 2.0 ** 600


# R' may have complex roots, NaN here, and a comparison with NaN is False;
# R overflows to inf or NaN without a warning, as in polyval.
@np.errstate(over="ignore", invalid="ignore")
def _residual_extrema(residuals: np.ndarray, x_minus, x_plus) -> tuple[np.ndarray, dict]:
    """The rows ``(R_min, R_max, argmin, argmax)``, one column per residual,
    and the :class:`ConvergenceError` of each row whose R' has no eigensolve,
    by row; row ``i`` of ``residuals`` lives on ``[x_minus[i], x_plus[i]]``.

    The candidates are the two turning points and the zeros of R' strictly
    between them, in that order, the first index winning a tie.  A constant
    R' (a linear residual) has no zero, and only the turning points are
    candidates; a linear one ``r1 + 2 r2 x`` has its zero ``-r1/(2 r2)``.  Any
    other R' has its zeros solved, all rows in one call.  R is evaluated once
    for the whole stack.
    """
    slope = derivative(residuals)
    candidates, failed = np.empty((len(residuals), 1 + max(1, slope.shape[1]))), {}
    candidates[:, 0] = x_minus
    candidates[:, 1] = x_plus
    if slope.shape[1] > 1:
        if slope.shape[1] == 2:
            crits = -slope[:, :1] / slope[:, 1:]
        else:
            crits, _, failed = _solved_rows(slope)
        inside = (candidates[:, :1] < crits) & (crits < candidates[:, 1:2])
        candidates[:, 2:] = np.where(inside, crits, math.nan)
    values = _horner(residuals, candidates)
    pad = np.isnan(candidates)
    i_min = np.where(pad, np.inf, values).argmin(axis=1)
    i_max = np.where(pad, -np.inf, values).argmax(axis=1)
    rows = np.arange(len(values))
    extrema = np.array([values[rows, i_min], values[rows, i_max],
                        candidates[rows, i_min], candidates[rows, i_max]]).reshape(4, -1)
    return extrema, failed


def _residual_not_positive(r_min: float) -> DomainError:
    return DomainError(
        f"residual R(x) is not positive on the shell (min {r_min}); "
        "the energy does not select a simple oscillatory band"
    )
