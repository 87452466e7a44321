"""Polynomial potential wells and their energy shells.

A well is described by a dimensionless potential ``U(x) = sum_k c_k x**k``
(units of length squared) whose reference minimum sits at ``U = 0``.  For a
given energy this module locates the turning points, peels the two simple
zeros off ``Q(x) = E - U(x)`` to expose the positive residual ``R(x)``, and
reports barrier/limit metadata for wells that are only locally confining.
Everything that does not depend on the energy is computed once per well and
cached on it; :func:`shells` finds the shells of a whole energy grid at once.
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

_PATTERN_RTOL = 1e-12
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
    coefficients of U' and U''; ``is_symmetric``, true when U(-x) = U(x) and
    the minimum sits at 0; and ``duffing_lambda``, the ``lam`` of the
    canonical quartic ``x^2/2 + lam x^4/4`` (0 for the harmonic well), None
    for any other well.  The critical points and the barrier are solved on
    first use and cached.  ``coeffs`` is read-only, so nothing goes stale.
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
        tol = _PATTERN_RTOL * scale
        symmetric = bool(abs(x0) <= 1e-14 and np.all(np.abs(c[1::2]) <= tol))
        lam = None
        if symmetric and c.size in (3, 5) and abs(c[0]) <= tol and abs(c[2] - 0.5) <= tol:
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

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1


@dataclass(frozen=True)
class EnergyShell:
    """One energy level of a well: turning points and the deflated residual.

    ``Q(x) = energy - U(x) = (x_plus - x)(x - x_minus) R(x)`` with ``R > 0``
    on the closed interval between the turning points.  ``extra_roots`` holds
    any remaining real zeros of Q outside that interval.  ``reflected`` marks
    shells produced by the parity map from a lam < 0 cubic.
    ``residual_critical_points`` holds the zeros of R' strictly between the
    turning points, ascending, and ``residual_extrema`` is
    ``(R_min, R_max, argmin, argmax)`` over the turning points and those
    critical points, in that order, first index winning a tie.  :func:`shells`
    passes both; when either is not given, both are computed together from
    ``residual``, by the routine :func:`shells` uses.
    """

    energy: float
    x_minus: float
    x_plus: float
    residual: np.ndarray
    extra_roots: tuple = ()
    amplitude: float | None = None
    rho: float | None = None
    reflected: bool = False
    residual_critical_points: tuple | None = None
    residual_extrema: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "residual", as_coeffs(self.residual))
        object.__setattr__(self, "extra_roots", tuple(float(r) for r in self.extra_roots))
        if not self.x_minus < self.x_plus:
            raise DomainError(f"turning points out of order: {self.x_minus} >= {self.x_plus}")
        if self.residual_critical_points is None or self.residual_extrema is None:
            (crits,), (extrema,) = _residual_geometry(
                self.residual[None, :], [self.x_minus], [self.x_plus])
            object.__setattr__(self, "residual_critical_points", crits)
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
        """The shell of the parity-image potential: x -> -x."""
        res = self.residual.copy()
        res[1::2] *= -1.0
        return EnergyShell(
            energy=self.energy,
            x_minus=-self.x_plus,
            x_plus=-self.x_minus,
            residual=res,
            extra_roots=tuple(-r for r in self.extra_roots),
            amplitude=self.amplitude,
            rho=self.rho,
            reflected=not self.reflected,
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


def shells(U, energies) -> list:
    """The energy shells at each of ``energies``, solved together.

    ``U`` is one well for every energy, or a sequence of one well per energy.
    Slot ``i`` holds the shell at ``energies[i]``, or the error that
    :func:`turning_points` raises at that energy.  The turning points of all
    rows whose wells share a degree come from one stacked companion-matrix
    solve of ``E - U``, the critical points of their residuals from one more,
    and the U' of the distinct wells not yet solved from one per degree; each
    shell is bit-identical to the one found on its own.
    """
    energies = [float(e) for e in energies]
    wells = [U] * len(energies) if isinstance(U, PolynomialPotential) else list(U)
    if len(wells) != len(energies):
        raise ValueError(f"{len(wells)} wells for {len(energies)} energies")
    found: list = [None] * len(energies)
    barriers = _barriers(wells)
    by_degree: dict = {}  # degree of the well -> slots of the rows left to solve
    for i, (well, energy) in enumerate(zip(wells, energies)):
        barrier = barriers[id(well)]
        if isinstance(barrier, ConvergenceError):
            found[i] = barrier
            continue
        try:
            _check_energy(energy, barrier)
        except DomainError as exc:
            found[i] = exc
        else:
            by_degree.setdefault(well.degree, []).append(i)
    for slots in by_degree.values():
        _solve_shells(wells, energies, slots, found)
    return found


def _barriers(wells) -> dict:
    """``id(well)`` -> its :class:`BarrierInfo`, or the :class:`ConvergenceError`
    of its U' solve, for each distinct well of ``wells``.

    The U' of the wells that have not solved it yet go to one stacked solve
    per degree and are cached on each well; a lone well solves its own.
    """
    distinct = {id(w): w for w in wells}
    pending: dict = {}  # degree -> wells whose critical points are not cached
    for w in distinct.values():
        if "critical_points" not in w.__dict__:
            pending.setdefault(w.degree, []).append(w)
    barriers = {}
    for group in pending.values():
        if len(group) == 1:
            continue
        for w, crits in zip(group, _solved_rows(np.array([w.slope_coeffs for w in group]))):
            if isinstance(crits, ConvergenceError):
                barriers[id(w)] = crits
            else:
                w._keep_critical_points(crits)
    for key, w in distinct.items():
        if key not in barriers:
            try:
                barriers[key] = w.barrier
            except ConvergenceError as exc:
                barriers[key] = exc
    return barriers


def _solve_shells(wells, energies, slots, found) -> None:
    """Fill ``found[i]`` for each of ``slots``, rows whose wells share a degree."""
    q = -np.array([wells[i].coeffs for i in slots])
    q[:, 0] += [energies[i] for i in slots]
    roots = _solved_rows(q)
    # The softening quartic has closed-form turning points.
    lams = [wells[i].duffing_lambda for i in slots]
    soft = [row for row, lam in enumerate(lams) if lam is not None and lam < 0.0]
    amplitudes = dict(zip(soft, _softening_amplitudes(
        [lams[row] for row in soft], q[soft, 0]).tolist()))

    bracketed = []  # (slot, row of q, x_minus, x_plus)
    for row, (i, r) in enumerate(zip(slots, roots)):
        if isinstance(r, ConvergenceError):
            found[i] = r
            continue
        well = wells[i]
        left = r[r < well.minimum_x]
        right = r[r > well.minimum_x]
        if left.size == 0 or right.size == 0:
            found[i] = DomainError(
                f"no turning points bracket the minimum at energy {energies[i]}; "
                f"real roots found: {r.tolist()}"
            )
            continue
        x_minus = float(left.max())
        x_plus = float(right.min())
        if well.is_symmetric:
            # Companion roots of an even polynomial are symmetric to rounding;
            # averaging pins the parity invariant exactly.
            half = amplitudes[row] if row in amplitudes else 0.5 * (x_plus - x_minus)
            x_minus, x_plus = -half, half
        bracketed.append((i, row, x_minus, x_plus))
    if not bracketed:
        return

    slots, rows, x_minus, x_plus = (list(col) for col in zip(*bracketed))
    quot, rem_plus = deflate(q[rows], np.array(x_plus))
    quot, rem_minus = deflate(quot, np.array(x_minus))
    residual = -quot
    crits, extrema = _residual_geometry(residual, x_minus, x_plus)

    for j, i in enumerate(slots):
        energy = energies[i]
        tol = 1e-10 * max(1.0, energy)
        if abs(rem_plus[j]) > tol or abs(rem_minus[j]) > tol:
            found[i] = ConvergenceError(
                f"turning-point deflation left remainders ({float(rem_plus[j])}, "
                f"{float(rem_minus[j])}) above {tol}"
            )
            continue
        well = wells[i]
        lo, hi = x_minus[j], x_plus[j]
        amplitude = hi if well.is_symmetric else None
        lam = lams[rows[j]]
        try:
            shell = EnergyShell(
                energy=energy,
                x_minus=lo,
                x_plus=hi,
                residual=residual[j],
                extra_roots=tuple(
                    float(r) for r in roots[rows[j]] if r < lo - 1e-14 or r > hi + 1e-14
                ),
                amplitude=amplitude,
                rho=lam * amplitude ** 2 if (lam is not None and amplitude is not None) else None,
                residual_critical_points=crits[j],
                residual_extrema=extrema[j],
            )
            _check_residual_positive(shell)
        except DomainError as exc:
            found[i] = exc
        else:
            found[i] = shell


def _softening_amplitudes(lams: list, energies: np.ndarray) -> np.ndarray:
    """The turning point ``A`` of the softening quartic ``x^2/2 + lam x^4/4``
    (``lam < 0``) at each pair of ``lams`` and ``energies``:
    ``A^2 = 4E / (1 + sqrt(1 + 4 lam E))``.  Near the barrier ``1 + 4 lam E``
    cancels, so it is formed exactly in integers and rounded once.
    """
    d = [(d_lam * d_e + 4 * n_lam * n_e) / (d_lam * d_e)
         for (n_lam, d_lam), (n_e, d_e) in zip(map(float.as_integer_ratio, lams),
                                               map(float.as_integer_ratio, energies.tolist()))]
    return np.sqrt(4.0 * energies / (1.0 + np.sqrt(d)))


def _residual_geometry(residuals: np.ndarray, x_minus, x_plus) -> tuple[list, list]:
    """The critical points and extrema of each residual on its shell.

    Row ``i`` of ``residuals`` lives on ``[x_minus[i], x_plus[i]]``.  Returns
    the zeros of its R' strictly inside, as an ascending tuple, and
    ``(R_min, R_max, argmin, argmax)`` over the two turning points and those
    zeros, in that order, the first index winning a tie.  All rows' R' are
    solved in one call, and R is evaluated once for the whole stack.
    """
    crits = [tuple(float(c) for c in row if lo < c < hi)
             for row, lo, hi in zip(real_roots_rows(derivative(residuals)), x_minus, x_plus)]
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
    return crits, list(zip(values[rows, i_min].tolist(), values[rows, i_max].tolist(),
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
