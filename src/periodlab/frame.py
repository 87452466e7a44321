"""Reference-frequency frames for the period integral.

The period integrand is split against a harmonic reference
``Q0(x) = (omega^2/2)(x_plus - x)(x - x_minus)`` sharing the turning points.
What remains is the bounded deviation ``Delta = (2R - omega^2)/omega^2`` in
the angle variable ``x(theta) = mid + half*cos(theta)``.  Choosing
``omega^2 = R_max + R_min`` balances the deviation extrema symmetrically
around zero, which maximizes the convergence domain of the period series.

This module owns x(theta), Delta, its bound sup |Delta| and each closed form's
``(omega^2, xi)``, one function each, which :mod:`periodlab.period` reads.
:func:`frame_columns` gives each frame's ``(omega, xi)`` on one shell or the
:class:`~periodlab.potential.ShellColumns` of a grid.
"""

from typing import NamedTuple

import numpy as np

from ._poly import polyval, real_roots  # noqa: F401  (real_roots: a name layer tracers bind)
from .errors import DomainError
from .potential import EnergyShell, _require_positive

BALANCED = "balanced"
NAYFEH = "nayfeh"
FIXED = "fixed"


class BalancedFrame(NamedTuple):
    """A reference frequency together with the deviation it induces on a shell.

    ``xi`` carries the closed-form series parameter when the shell is of the
    canonical quartic (``Delta = xi cos 2 theta``) or cubic
    (``Delta = xi cos theta``) family; it is None for general polynomials.
    The residual extrema are the shell's; the deviation extrema follow from
    them and ``omega``.
    """

    shell: EnergyShell
    omega: float
    strategy: str
    xi: float | None = None

    @property
    def R_min(self) -> float:
        return self.shell.residual_extrema[0]

    @property
    def R_max(self) -> float:
        return self.shell.residual_extrema[1]

    @property
    def argmin_R(self) -> float:
        return self.shell.residual_extrema[2]

    @property
    def argmax_R(self) -> float:
        return self.shell.residual_extrema[3]

    @property
    def delta_min(self) -> float:
        return _deviation_extrema(self.R_min, self.R_max, self.omega * self.omega)[0]

    @property
    def delta_max(self) -> float:
        return _deviation_extrema(self.R_min, self.R_max, self.omega * self.omega)[1]

    @property
    def sup_abs_delta(self) -> float:
        return float(_deviation_extrema(self.R_min, self.R_max, self.omega * self.omega)[2])


def _angle_map(x_minus, x_plus) -> tuple:
    """``(mid, half)`` of ``x(theta) = mid + half cos(theta)`` on ``[x_minus, x_plus]``."""
    return 0.5 * (x_plus + x_minus), 0.5 * (x_plus - x_minus)


def _deviation(r, w2):
    """``Delta = (2R - omega^2)/omega^2`` where ``R = r`` and ``omega^2 = w2``."""
    return (2.0 * r - w2) / w2


def _deviation_extrema(r_min, r_max, w2) -> tuple:
    """``(delta_min, delta_max, sup |Delta|)`` of R's extrema ``r_min``, ``r_max`` and
    ``omega^2 = w2``; the bound is Python's ``max`` of their magnitudes."""
    d_min, d_max = 2.0 * r_min / w2 - 1.0, 2.0 * r_max / w2 - 1.0
    a, b = abs(d_min), abs(d_max)
    return d_min, d_max, np.where(b > a, b, a)


def _balanced_quartic(rho) -> tuple:
    """``(omega^2, xi)`` of the canonical quartic's closed form in the balanced
    frame: ``((4 + 3 rho)/4, rho/(4 + 3 rho))``, at amplitude 1."""
    d = 4.0 + 3.0 * rho
    return d / 4.0, rho / d


def _nayfeh_quartic(rho) -> tuple:
    """``(omega^2, xi) = (1 + rho, rho/(2 rho + 2))`` of the canonical quartic's nayfeh frame."""
    return 1.0 + rho, rho / (2.0 * rho + 2.0)


def x_of_theta(shell: EnergyShell, theta):
    """The angle substitution mapping theta = 0 to x_plus and theta = pi to x_minus."""
    mid, half = _angle_map(shell.x_minus, shell.x_plus)
    return mid + half * np.cos(theta)


# The key of the shells that _cubic_oriented read last, and its columns of them.
_last_oriented: list = [(None, None)]


def _cubic_oriented(shells) -> tuple:
    """Columns ``(omega^2, xi)`` of the closed form of canonical cubic shells,
    one or many: with ``xm = x_minus``, ``xp = x_plus`` and ``cross = xp^2 + 4
    xp xm + xm^2``, ``omega^2 = -cross/(2 (xp^2 + xp xm + xm^2))`` and ``xi =
    (xp^2 - xm^2)/cross``.  Each sum starts from the square of the turning
    point away from the barrier, which lies where the residual falls, so
    mirrored wells get exactly opposite xi and equal omega^2.

    The columns of the shells object last read are kept and returned again
    while it holds the same turning points and residual, so that a call's
    frame and series form them once (:func:`_orient`).  The key is the
    object's id and the bytes of what :func:`_orient` reads, so that no
    shells are kept alive and a shells object changed in place is read anew.
    """
    key = (id(shells), *(np.asarray(c).tobytes()
                         for c in (shells.x_minus, shells.x_plus, shells.residual)))
    last, columns = _last_oriented[0]
    if last != key:
        columns = _orient(shells)
        _last_oriented[0] = key, columns
    return columns


def _orient(shells) -> tuple:
    """The columns of :func:`_cubic_oriented`, formed.  The shells of one well
    share the side of their barrier: the sign of the residual's slope, c3."""
    rises = bool((shells.residual[..., 1] > 0.0).all())
    lo, hi = np.atleast_1d(shells.x_minus, shells.x_plus)
    far, near = (hi, lo) if rises else (lo, hi)
    cross = far * far + 4.0 * far * near + near * near
    w2 = -cross / (2.0 * (far * far + far * near + near * near))
    return w2, (far * far - near * near) / (cross if rises else -cross)


def frame_columns(strategy: str, shells, omega: float | None = None):
    """``(omega, xi)`` of the frame ``strategy`` on ``shells``.

    ``shells`` is one :class:`EnergyShell`, giving numbers, or the
    :class:`~periodlab.potential.ShellColumns` of shells of one family, giving
    one value per shell; ``omega`` is the ``fixed`` frame's frequency, which
    is the same for every shell.  ``xi`` is None where no closed form
    applies.  The ``nayfeh`` frame of a shell that is not a canonical
    quartic, and a ``fixed`` frequency that is not positive, raise
    :class:`DomainError`.
    """
    if strategy == FIXED:
        _require_positive("omega", omega)
        return float(omega), None
    if strategy == NAYFEH and shells.family != "quartic":
        raise DomainError("nayfeh_frame requires a canonical quartic (Duffing) shell")
    if strategy == NAYFEH:
        w2, xi = _nayfeh_quartic(shells.rho)
        return np.sqrt(w2), xi
    r_min, r_max = shells.residual_extrema[:2]
    omega = np.sqrt(r_min + r_max)
    if shells.family == "quartic":
        return omega, _balanced_quartic(shells.rho)[1]
    if shells.family == "cubic":
        xi = _cubic_oriented(shells)[1]
        return omega, float(xi[0]) if isinstance(shells, EnergyShell) else xi
    return omega, None


def balanced_frame(shell: EnergyShell) -> BalancedFrame:
    """The frame with ``omega^2 = R_max + R_min``, making ``delta_max = -delta_min``."""
    omega, xi = frame_columns(BALANCED, shell)
    return BalancedFrame(shell, float(omega), BALANCED, xi)


def nayfeh_frame(shell: EnergyShell) -> BalancedFrame:
    """The textbook quartic choice ``omega = sqrt(1 + rho)``, ``xi = rho/(2 rho + 2)``.

    Only defined for shells of the canonical quartic family (``family`` ``"quartic"``).
    The induced deviation is ``-xi sin^2 theta`` scaled into the standard
    compact integrand; its series diverges for rho in (-1, -2/3).
    """
    omega, xi = frame_columns(NAYFEH, shell)
    return BalancedFrame(shell, float(omega), NAYFEH, xi)


def fixed_frame(shell: EnergyShell, omega: float) -> BalancedFrame:
    """A user-supplied reference frequency; no closed-form series parameter."""
    omega, xi = frame_columns(FIXED, shell, omega)
    return BalancedFrame(shell, omega, FIXED, xi)


def delta_at(frame: BalancedFrame, theta):
    """The deviation ``(2 R(x(theta)) - omega^2)/omega^2``; accepts arrays."""
    r = polyval(frame.shell.residual, x_of_theta(frame.shell, theta))
    return _deviation(r, frame.omega * frame.omega)
