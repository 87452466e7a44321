"""Reference-frequency frames for the period integral.

The period integrand is split against a harmonic reference
``Q0(x) = (omega^2/2)(x_plus - x)(x - x_minus)`` sharing the turning points.
What remains is the bounded deviation ``Delta = (2R - omega^2)/omega^2`` in
the angle variable ``x(theta) = mid + half*cos(theta)``.  Choosing
``omega^2 = R_max + R_min`` balances the deviation extrema symmetrically
around zero, which maximizes the convergence domain of the period series.

This module owns x(theta), Delta, its bound sup |Delta| and the canonical
quartic's frame parameters, one function each, which :mod:`periodlab.period`
reads.  :func:`frame_columns` gives each frame's ``(omega, xi)`` on one shell
or the :class:`~periodlab.potential.ShellColumns` of a grid.
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
    """``(d, xi)`` of the canonical quartic's balanced frame: ``d = 4 + 3 rho = 4
    omega^2`` at amplitude 1, and ``xi = rho/d``."""
    d = 4.0 + 3.0 * rho
    return d, rho / d


def _nayfeh_quartic(rho) -> tuple:
    """``(omega, xi)`` of the canonical quartic's nayfeh frame at ``rho``."""
    return np.sqrt(1.0 + rho), rho / (2.0 * rho + 2.0)


def x_of_theta(shell: EnergyShell, theta):
    """The angle substitution mapping theta = 0 to x_plus and theta = pi to x_minus."""
    mid, half = _angle_map(shell.x_minus, shell.x_plus)
    return mid + half * np.cos(theta)


# The shells that _cubic_oriented read last, and its columns of them.
_last_oriented: list = [(None, None)]


def _cubic_oriented(shells) -> tuple:
    """Columns ``(xm, xp, cross, xi)`` of canonical cubic shells, one or many,
    taken where the residual rises: x -> -x flips a falling one, ``xm = -x_plus``
    and ``xp = -x_minus``.  There ``xi = (xp^2 - xm^2)/cross``, ``cross = xp^2 +
    4 xp xm + xm^2``; ``xi`` is negated back where flipped, so it is the shell's
    own and mirrored wells get exactly opposite xi.

    The columns of the shells object last read are kept and returned again,
    so that a call's frame and series orient its shells once (:func:`_orient`).
    """
    last, columns = _last_oriented[0]
    if last is not shells:
        columns = _orient(shells)
        _last_oriented[0] = shells, columns
    return columns


def _orient(shells) -> tuple:
    """The columns of :func:`_cubic_oriented`, formed."""
    flip = ~(np.array(shells.residual[..., 1], ndmin=1) > 0.0)
    lo, hi = shells.x_minus, shells.x_plus
    xm, xp = np.where(flip, -hi, lo), np.where(flip, -lo, hi)
    cross = xp * xp + 4.0 * xp * xm + xm * xm
    xi = (xp * xp - xm * xm) / cross
    return xm, xp, cross, np.where(flip, -xi, xi)


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
        return _nayfeh_quartic(shells.rho)
    r_min, r_max = shells.residual_extrema[:2]
    omega = np.sqrt(r_min + r_max)
    if shells.family == "quartic":
        return omega, _balanced_quartic(shells.rho)[1]
    if shells.family == "cubic":
        xi = _cubic_oriented(shells)[3]
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
