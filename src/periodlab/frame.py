"""Reference-frequency frames for the period integral.

The period integrand is split against a harmonic reference
``Q0(x) = (omega^2/2)(x_plus - x)(x - x_minus)`` sharing the turning points.
What remains is the bounded deviation ``Delta = (2R - omega^2)/omega^2`` in
the angle variable ``x(theta) = mid + half*cos(theta)``.  Choosing
``omega^2 = R_max + R_min`` balances the deviation extrema symmetrically
around zero, which maximizes the convergence domain of the period series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

# Not called here any more: bench/spans.py traces the poly.real_roots layer by
# rebinding this name, so it stays importable.
from ._poly import real_roots  # noqa: F401
from .errors import DomainError
from .potential import EnergyShell

BALANCED = "balanced"
NAYFEH = "nayfeh"
FIXED = "fixed"


@dataclass(frozen=True)
class BalancedFrame:
    """A reference frequency together with the deviation it induces on a shell.

    ``xi`` carries the closed-form series parameter when the shell is of the
    canonical quartic (``Delta = xi cos 2 theta``) or cubic
    (``Delta = xi cos theta``) family; it is None for general polynomials.
    """

    shell: EnergyShell
    omega: float
    strategy: str
    R_min: float
    R_max: float
    argmin_R: float
    argmax_R: float
    delta_min: float
    delta_max: float
    xi: float | None = None

    @property
    def sup_abs_delta(self) -> float:
        return max(abs(self.delta_min), abs(self.delta_max))


def x_of_theta(shell: EnergyShell, theta):
    """The angle substitution mapping theta = 0 to x_plus and theta = pi to x_minus."""
    mid = 0.5 * (shell.x_plus + shell.x_minus)
    half = 0.5 * (shell.x_plus - shell.x_minus)
    return mid + half * np.cos(theta)


def extrema_of_R(shell: EnergyShell) -> tuple[float, float, float, float]:
    """Global extrema of the residual on the closed turning-point interval.

    Returns ``(R_min, R_max, argmin, argmax)``.  Candidates are the interval
    endpoints plus every real critical point of R inside; the shell carries
    the result (``residual_extrema``).
    """
    return shell.residual_extrema


def _closed_form_xi(shell: EnergyShell) -> float | None:
    if shell.family == "quartic":
        return shell.rho / (4.0 + 3.0 * shell.rho)
    if shell.family == "cubic":
        xp, xm = shell.x_plus, shell.x_minus
        return (xp ** 2 - xm ** 2) / (xp ** 2 + 4.0 * xp * xm + xm ** 2)
    return None


def _build(shell: EnergyShell, omega: float, strategy: str, xi, extrema) -> BalancedFrame:
    r_min, r_max, arg_min, arg_max = extrema
    w2 = omega * omega
    return BalancedFrame(
        shell=shell,
        omega=omega,
        strategy=strategy,
        R_min=r_min,
        R_max=r_max,
        argmin_R=arg_min,
        argmax_R=arg_max,
        delta_min=2.0 * r_min / w2 - 1.0,
        delta_max=2.0 * r_max / w2 - 1.0,
        xi=xi,
    )


def balanced_frame(shell: EnergyShell) -> BalancedFrame:
    """The frame with ``omega^2 = R_max + R_min``, making ``delta_max = -delta_min``."""
    extrema = extrema_of_R(shell)
    r_min, r_max = extrema[0], extrema[1]
    omega = math.sqrt(r_min + r_max)
    return _build(shell, omega, BALANCED, _closed_form_xi(shell), extrema)


def nayfeh_frame(shell: EnergyShell) -> BalancedFrame:
    """The textbook quartic choice ``omega = sqrt(1 + rho)``, ``xi = rho/(2 rho + 2)``.

    Only defined for shells of the canonical quartic family (``rho`` set).
    The induced deviation is ``-xi sin^2 theta`` scaled into the standard
    compact integrand; its series diverges for rho in (-1, -2/3).
    """
    if shell.family != "quartic":
        raise DomainError("nayfeh_frame requires a canonical quartic (Duffing) shell")
    rho = shell.rho
    omega = math.sqrt(1.0 + rho)
    xi = rho / (2.0 * rho + 2.0)
    return _build(shell, omega, NAYFEH, xi, extrema_of_R(shell))


def fixed_frame(shell: EnergyShell, omega: float) -> BalancedFrame:
    """A user-supplied reference frequency; no closed-form series parameter."""
    if omega <= 0.0:
        raise DomainError(f"omega must be positive, got {omega}")
    return _build(shell, float(omega), FIXED, None, extrema_of_R(shell))


def delta_at(frame: BalancedFrame, theta):
    """The deviation ``(2 R(x(theta)) - omega^2)/omega^2``; accepts arrays."""
    w2 = frame.omega * frame.omega
    r = npoly.polyval(x_of_theta(frame.shell, theta), frame.shell.residual)
    return (2.0 * r - w2) / w2
