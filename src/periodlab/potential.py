"""Polynomial potential wells and their energy shells.

A well is described by a dimensionless potential ``U(x) = sum_k c_k x**k``
(units of length squared) whose reference minimum sits at ``U = 0``.  For a
given energy this module locates the turning points, peels the two simple
zeros off ``Q(x) = E - U(x)`` to expose the positive residual ``R(x)``, and
reports barrier/limit metadata for wells that are only locally confining.

A well whose coefficients are exactly the canonical quartic's,
``x^2/2 + lam x^4/4`` (the harmonic well at lam = 0), has all of this in
closed form: :func:`quartic_shells` and its barrier solve no polynomial.
Every other well finds its turning points by companion-matrix eigensolves,
solved for a whole grid of its energies at once by :func:`shells`, and
computes what does not depend on the energy once per well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import numpy.polynomial.polynomial as npoly

from ._poly import _polyval_rows, as_coeffs, deflate, derivative, real_roots, real_roots_rows
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


@dataclass(frozen=True)
class PolynomialPotential:
    """Dimensionless polynomial potential with provenance scaling.

    ``coeffs[k]`` multiplies ``x**k`` directly, so the canonical hardening
    quartic stores ``[0, 0, 1/2, 0, lam/4]``.  ``mass`` and ``omega0`` record
    the physical scaling used to build the dimensionless form; they do not
    enter any evaluation except the final conversion of periods to time.

    Construction derives, once, all the well's shells need that takes no
    eigensolve: ``slope_coeffs`` and ``curvature_coeffs``, the read-only
    coefficients of U' and U''; ``is_symmetric``, true when every odd
    coefficient is 0 and the minimum sits at 0; and ``duffing_lambda``, the
    ``lam`` of a well whose coefficients are exactly ``[0, 0, 1/2, 0, lam/4]``
    (``[0, 0, 1/2]`` at lam = 0), None for any other well, one that misses
    that pattern by rounding included.  The barrier is found on first use and
    cached: in closed form for a well with ``duffing_lambda`` set, from the
    critical points, the zeros of U' solved on first use and cached too, for
    any other well.  ``coeffs`` is read-only, so nothing goes stale.
    """

    coeffs: np.ndarray
    mass: float = 1.0
    omega0: float = 1.0
    minimum_x: float = 0.0

    def __post_init__(self):
        c = as_coeffs(self.coeffs)
        _require_positive("mass", self.mass)
        _require_positive("omega0", self.omega0)
        du, d2u = _derivatives(c)
        for name, value in (("coeffs", c), ("slope_coeffs", du), ("curvature_coeffs", d2u)):
            object.__setattr__(self, name, value)
        x0 = self.minimum_x
        scale = max(1.0, float(np.max(np.abs(c))))
        if abs(self(x0)) > 1e-8 * scale:
            raise DomainError(
                f"U(minimum_x) = {self(x0)!r} is not zero; "
                "shift the coefficients so the reference minimum has zero potential"
            )
        if abs(self.slope(x0)) > 1e-8 * scale:
            raise DomainError(f"minimum_x={x0} is not a critical point")
        if not self.curvature(x0) > 0.0:
            raise NoMinimumError(
                f"U''({x0}) = {self.curvature(x0)} <= 0: reference point is not a local minimum"
            )
        symmetric = bool(abs(x0) <= 1e-14 and not c[1::2].any())
        lam = None
        if symmetric and c.size in (3, 5) and c[0] == 0.0 and c[2] == 0.5:
            lam = 4.0 * float(c[4]) if c.size == 5 else 0.0
        object.__setattr__(self, "is_symmetric", symmetric)
        object.__setattr__(self, "duffing_lambda", lam)

    def __call__(self, x):
        return npoly.polyval(x, self.coeffs)

    def slope(self, x):
        """First derivative U'(x)."""
        return npoly.polyval(x, self.slope_coeffs)

    def curvature(self, x):
        """Second derivative U''(x)."""
        return npoly.polyval(x, self.curvature_coeffs)

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
        crits, x0 = self.critical_points, self.minimum_x
        # The critical points next to the minimum, one on each side at most.
        sides = [*crits[crits < x0 - 1e-14][-1:], *crits[crits > x0 + 1e-14][:1]]
        candidates = [(float(self(x)), float(x)) for x in sides
                      if self.curvature(x) <= 0.0 and self(x) > 0.0]
        if not candidates:
            return BarrierInfo(has_barrier=False)
        energy, x = min(candidates)
        limit = abs(x) if self.is_symmetric else None
        return BarrierInfo(True, barrier_energy=energy, barrier_x=x, amplitude_limit=limit)


@dataclass(frozen=True)
class EnergyShell:
    """One energy level of a well: turning points and the deflated residual.

    ``Q(x) = energy - U(x) = (x_plus - x)(x - x_minus) R(x)`` with ``R > 0``
    on the closed interval between the turning points.  ``extra_roots`` holds
    any remaining real zeros of Q outside that interval.
    ``residual_critical_points`` holds the zeros of R' strictly between the
    turning points, ascending, and ``residual_extrema`` is
    ``(R_min, R_max, argmin, argmax)`` over the turning points and those
    critical points, in that order, first index winning a tie.  :func:`shells`
    passes both; when either is not given, both are computed together from
    ``residual``, by the routines :func:`shells` uses.
    ``residual_at_turning_points``, when set, is ``R(x_minus) = R(x_plus)``
    of a symmetric shell with an even quadratic residual, known more closely
    than evaluating ``residual`` there gives: next to the barrier of the
    softening quartic that evaluation cancels.  The quadrature then takes
    ``R`` at ``x = A cos theta`` as ``R_end + (R(0) - R_end) sin^2 theta``.
    """

    energy: float
    x_minus: float
    x_plus: float
    residual: np.ndarray
    extra_roots: tuple = ()
    amplitude: float | None = None
    rho: float | None = None
    residual_critical_points: tuple | None = None
    residual_extrema: tuple | None = None
    residual_at_turning_points: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "residual", as_coeffs(self.residual))
        object.__setattr__(self, "extra_roots", tuple(float(r) for r in self.extra_roots))
        if not self.x_minus < self.x_plus:
            raise DomainError(f"turning points out of order: {self.x_minus} >= {self.x_plus}")
        if self.residual_critical_points is None or self.residual_extrema is None:
            residual = self.residual[None, :]
            crits = _residual_critical_points(residual, [self.x_minus], [self.x_plus])
            (extrema,) = _residual_extrema(residual, [self.x_minus], [self.x_plus], crits)
            object.__setattr__(self, "residual_critical_points", crits[0])
            object.__setattr__(self, "residual_extrema", extrema)

    @property
    def family(self) -> str:
        """The well family, which decides the closed forms that apply.

        ``"quartic"`` for the canonical quartic ``x^2/2 + lam x^4/4`` (``rho``
        set), ``"cubic"`` for a quadratic-cubic shell (linear residual), and
        ``"generic"`` otherwise.
        """
        if self.rho is not None:
            return "quartic"
        if self.residual.size == 2:
            return "cubic"
        return "generic"

    def residual_at(self, x):
        return npoly.polyval(x, self.residual)

    def q_at(self, x):
        """Reconstructed Q(x) = (x_plus - x)(x - x_minus) R(x)."""
        return (self.x_plus - x) * (x - self.x_minus) * self.residual_at(x)

    def reflect(self) -> "EnergyShell":
        """The shell of the parity-image potential: x -> -x.

        The critical points of the residual are carried over, negated and
        reordered, so nothing is solved.  Horner on the mirrored residual at a
        mirrored point gives exactly the value at the original point, so
        evaluating the extrema's candidates again only applies the
        first-index tie rule to their new order.
        """
        res = self.residual.copy()
        res[1::2] *= -1.0
        x_minus, x_plus = -self.x_plus, -self.x_minus
        crits = tuple(-c for c in reversed(self.residual_critical_points))
        (extrema,) = _residual_extrema(res[None, :], [x_minus], [x_plus], [crits])
        return EnergyShell(
            energy=self.energy,
            x_minus=x_minus,
            x_plus=x_plus,
            residual=res,
            extra_roots=tuple(-r for r in self.extra_roots),
            amplitude=self.amplitude,
            rho=self.rho,
            residual_critical_points=crits,
            residual_extrema=extrema,
            residual_at_turning_points=self.residual_at_turning_points,
        )


@dataclass(frozen=True)
class BarrierInfo:
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
    nearest the origin; the constant coefficient is shifted so that
    ``U(minimum) = 0`` exactly.  The shift leaves U' unchanged, so the well
    keeps the critical points solved here.
    """
    _require_positive("mass", mass)
    _require_positive("omega0", omega0)
    u = as_coeffs(np.asarray(v_coeffs, dtype=float) / (mass * omega0 ** 2))
    du, d2u = _derivatives(u)
    crits = _solved(real_roots, du)
    minima = [c for c in crits if npoly.polyval(c, d2u) > 0.0]
    if not minima:
        raise NoMinimumError(
            f"no local minimum with positive curvature; critical points: {crits.tolist()}"
        )
    m = min(minima, key=abs)
    u = u.copy()
    u[0] -= npoly.polyval(m, u)
    well = PolynomialPotential(u, mass=mass, omega0=omega0, minimum_x=float(m))
    well._keep_critical_points(crits)
    return well


def _solved(roots, coeffs):
    """``roots(coeffs)``, with a failed companion-matrix eigensolve, such as one
    on a matrix that overflows, raised as :class:`ConvergenceError`."""
    try:
        return roots(coeffs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"companion-matrix eigensolve failed: {exc}") from exc


def _solved_rows(coeffs: np.ndarray) -> list:
    """:func:`real_roots_rows` of ``coeffs``, with the :class:`ConvergenceError`
    of :func:`_solved` in the slot of each row whose eigensolve fails.

    A failed stacked solve is redone one row at a time, so one overflowing
    row fails only its own slot.
    """
    try:
        return _solved(real_roots_rows, coeffs)
    except ConvergenceError as exc:
        if len(coeffs) == 1:
            return [exc]
        return [_solved_rows(row[None, :])[0] for row in coeffs]


def _require_positive(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    if value <= 0.0:
        raise DomainError(f"{name} must be positive, got {value}")


def _derivatives(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The read-only coefficients of U' and U'' of the well with coefficients ``c``."""
    if not np.isfinite(c).all():
        raise DomainError(f"potential coefficients must be finite, got {c.tolist()}")
    if c.size - 1 < 2:
        raise DomainError("potential must have degree >= 2")
    # U'' is finite only if U' is; the overflow itself needs no warning.
    with np.errstate(over="ignore"):
        du = derivative(c)
        d2u = derivative(du)
    if not np.isfinite(d2u).all():
        raise DomainError(
            f"the coefficients of U' and U'' must be finite; {c.tolist()} overflows them"
        )
    du.flags.writeable = d2u.flags.writeable = False
    return du, d2u


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
    :func:`turning_points` raises at that energy.  A well whose coefficients
    are exactly the canonical quartic's takes its shells from
    :func:`quartic_shells` and solves nothing.  Any other well reads its
    barrier once; the turning points at all its energies come from one
    stacked companion-matrix solve of ``E - U`` and the critical points of
    their residuals from one more, and each shell is bit-identical to the one
    found on its own.
    """
    energies = [float(e) for e in energies]
    if U.duffing_lambda is not None:
        return quartic_shells([U.duffing_lambda] * len(energies), energies)
    try:
        barrier = U.barrier
    except ConvergenceError as exc:
        return [exc] * len(energies)
    found: list = [None] * len(energies)
    slots = []  # the energies left to solve
    for i, energy in enumerate(energies):
        try:
            _check_energy(energy, barrier)
        except DomainError as exc:
            found[i] = exc
        else:
            slots.append(i)
    if slots:
        _solve_shells(U, energies, slots, found)
    return found


def _solve_shells(U: PolynomialPotential, energies, slots, found) -> None:
    """Fill ``found[i]`` for each of ``slots`` with the shell of ``U`` at
    ``energies[i]``, or its error.  These energies passed :func:`_check_energy`,
    so a row whose roots bracket no minimum is a failed solve."""
    q = np.tile(-U.coeffs, (len(slots), 1))
    q[:, 0] += [energies[i] for i in slots]
    roots = _solved_rows(q)

    bracketed = []  # (slot, row of q, x_minus, x_plus)
    for row, (i, r) in enumerate(zip(slots, roots)):
        if isinstance(r, ConvergenceError):
            found[i] = r
            continue
        left = r[r < U.minimum_x]
        right = r[r > U.minimum_x]
        if left.size == 0 or right.size == 0:
            found[i] = ConvergenceError(
                f"no turning points bracket the minimum at energy {energies[i]}; "
                f"real roots found: {r.tolist()}"
            )
            continue
        x_minus = float(left.max())
        x_plus = float(right.min())
        if U.is_symmetric:
            # Companion roots of an even polynomial are symmetric to rounding;
            # averaging pins the parity invariant exactly.
            half = 0.5 * (x_plus - x_minus)
            x_minus, x_plus = -half, half
        bracketed.append((i, row, x_minus, x_plus))
    if not bracketed:
        return

    slots, rows, x_minus, x_plus = (list(col) for col in zip(*bracketed))
    quot, rem_plus = deflate(q[rows], np.array(x_plus))
    quot, rem_minus = deflate(quot, np.array(x_minus))
    residual = -quot
    crits = _residual_critical_points(residual, x_minus, x_plus)
    extrema = _residual_extrema(residual, x_minus, x_plus, crits)

    for j, i in enumerate(slots):
        energy = energies[i]
        tol = 1e-10 * max(1.0, energy)
        if abs(rem_plus[j]) > tol or abs(rem_minus[j]) > tol:
            found[i] = ConvergenceError(
                f"turning-point deflation left remainders ({float(rem_plus[j])}, "
                f"{float(rem_minus[j])}) above {tol}"
            )
            continue
        lo, hi = x_minus[j], x_plus[j]
        found[i] = _checked_shell(
            energy=energy,
            x_minus=lo,
            x_plus=hi,
            residual=residual[j],
            extra_roots=tuple(
                float(r) for r in roots[rows[j]] if r < lo - 1e-14 or r > hi + 1e-14
            ),
            amplitude=hi if U.is_symmetric else None,
            residual_critical_points=crits[j],
            residual_extrema=extrema[j],
        )


def quartic_shells(lams, energies) -> list:
    """The shells of the canonical quartic ``x^2/2 + lam x^4/4`` at each pair
    of ``lams`` and ``energies``, in closed form.

    Slot ``i`` holds the shell, or the error that :func:`turning_points`
    raises for that well and energy.  With ``s = sqrt(1 + 4 lam E)`` the
    turning points are ``-A`` and ``A``, ``A^2 = 4E/(1 + s)``, and
    ``E - U = (A^2 - x^2) R`` with ``R = (1 + s)/4 + (lam/4) x^2``, whose
    critical point is 0 (none at lam = 0).  For lam < 0 the other zeros of
    ``E - U`` are ``+-2 sqrt(E/-lam)/A``, and the shell carries
    ``R(+-A) = s/2``, which evaluating R there cancels next to the barrier.
    No polynomial is solved.
    """
    energies = [float(e) for e in energies]
    found: list = [None] * len(energies)
    rows = []  # (slot, lam, s/2) of the pairs with an oscillatory band
    for i, (lam, energy) in enumerate(zip(lams, energies)):
        lam = float(lam)
        try:
            if not math.isfinite(lam):
                raise DomainError(f"lam must be finite, got {lam}")
            _check_energy(energy, quartic_barrier(lam))
        except DomainError as exc:
            found[i] = exc
        else:
            rows.append((i, lam, _quartic_half_s(lam, energy)))
    if not rows:
        return found

    slots, lam, half_s = (list(col) for col in zip(*rows))
    energy = [energies[i] for i in slots]
    # (1 + s)/2, and 2 sqrt((E/2)/((1 + s)/2)) is sqrt(4E/(1 + s)), bit for
    # bit, with neither 4E nor s overflowing.
    half_sum = np.add(0.5, half_s)
    amplitude = 2.0 * np.sqrt(np.divide(np.multiply(0.5, energy), half_sum))
    residual = np.zeros((len(slots), 3))
    residual[:, 0] = 0.5 * half_sum
    residual[:, 2] = np.divide(lam, 4.0)
    crits = [() if c == 0.0 else (0.0,) for c in residual[:, 2].tolist()]
    extrema = _residual_extrema(residual, -amplitude, amplitude, crits)

    for j, (i, a) in enumerate(zip(slots, amplitude.tolist())):
        extra, r_end = (), None
        if lam[j] < 0.0:
            b = 2.0 * math.sqrt(energy[j] / -lam[j]) / a
            extra, r_end = (-b, b), half_s[j]
        found[i] = _checked_shell(
            energy=energy[j], x_minus=-a, x_plus=a, residual=residual[j], extra_roots=extra,
            amplitude=a, rho=lam[j] * a ** 2, residual_at_turning_points=r_end,
            residual_critical_points=crits[j], residual_extrema=extrema[j],
        )
    return found


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


def _checked_shell(**fields):
    """The :class:`EnergyShell` of ``fields``, or the :class:`DomainError` that
    building it raises or that a residual not positive on it gives."""
    try:
        shell = EnergyShell(**fields)
        _check_residual_positive(shell)
    except DomainError as exc:
        return exc
    return shell


def _residual_critical_points(residuals: np.ndarray, x_minus, x_plus) -> list:
    """The zeros of each residual's R' strictly inside its shell, as ascending
    tuples; row ``i`` of ``residuals`` lives on ``[x_minus[i], x_plus[i]]``.
    All rows' R' are solved in one call."""
    return [tuple(float(c) for c in row if lo < c < hi)
            for row, lo, hi in zip(real_roots_rows(derivative(residuals)), x_minus, x_plus)]


def _residual_extrema(residuals: np.ndarray, x_minus, x_plus, crits) -> list:
    """``(R_min, R_max, argmin, argmax)`` of each residual over its two turning
    points and its critical points ``crits``, in that order, the first index
    winning a tie.  R is evaluated once for the whole stack."""
    # NaN pads the candidate rows to one length.
    candidates = np.full((len(crits), 2 + max(map(len, crits))), np.nan)
    candidates[:, 0] = x_minus
    candidates[:, 1] = x_plus
    for j, row in enumerate(crits):
        candidates[j, 2:2 + len(row)] = row
    values = _polyval_rows(residuals, candidates)
    pad = np.isnan(candidates)
    i_min = np.where(pad, np.inf, values).argmin(axis=1)
    i_max = np.where(pad, -np.inf, values).argmax(axis=1)
    rows = np.arange(len(values))
    return list(zip(values[rows, i_min].tolist(), values[rows, i_max].tolist(),
                    candidates[rows, i_min].tolist(), candidates[rows, i_max].tolist()))


def _check_residual_positive(shell: EnergyShell) -> None:
    r_min = shell.residual_extrema[0]
    if r_min <= 0.0:
        raise DomainError(
            f"residual R(x) is not positive on the shell (min {r_min}); "
            "the energy does not select a simple oscillatory band"
        )


def _canonical_cubic(shell: EnergyShell) -> EnergyShell:
    """A quadratic-cubic shell in the canonical orientation ``R = b0 + b1 x``, ``b1 > 0``.

    Shells from a lam < 0 well are reflected; the parity map leaves the period
    unchanged.
    """
    if shell.family != "cubic":
        raise DomainError(
            "cubic factorization requires a quadratic-cubic shell with a linear residual"
        )
    return shell if shell.residual[1] > 0.0 else shell.reflect()


def cubic_factorization(shell: EnergyShell) -> tuple[float, float, float]:
    """Linear-residual parameters ``(b0, b1, x3)`` of a quadratic-cubic shell.

    ``R(x) = b0 + b1 x`` with ``b1 = lam/3 > 0`` after canonicalization, and
    ``x3 = -x_plus x_minus / (x_plus + x_minus)`` is the third real zero of Q,
    below ``x_minus``.  The returned values refer to the canonical orientation
    (see :func:`_canonical_cubic`).
    """
    s = _canonical_cubic(shell)
    b0, b1 = float(s.residual[0]), float(s.residual[1])
    x3 = -s.x_plus * s.x_minus / (s.x_plus + s.x_minus)
    return b0, b1, float(x3)
