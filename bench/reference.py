"""mpmath reference periods for the benchmark's correctness checks.

Every reference is computed at ``DPS`` decimal digits from the exact binary
values of the float inputs the program worked with: the dimensionless well
coefficients and the energy printed in its records.  Canonical quartic and
cubic wells use complete elliptic integrals (``mpmath.ellipk``) with turning
points from ``mpmath.polyroots``; any other well integrates the angle form
``T = sqrt(2) * int_0^pi dtheta / sqrt(R(x(theta)))`` with ``mpmath.quad``.

Results are cached on disk, keyed by the exact ``repr`` of the inputs and the
precision, so a repeated seed costs nothing.
"""

from __future__ import annotations

import json
import os
import tempfile

import mpmath
from mpmath import mp

DPS = 40

# Values printed in the repository README: the rho = 1 period of the
# hardening quartic and the large-rho limit of sqrt(rho) * T.
README_RHO1_PERIOD = 4.768022029102461
README_LARGE_RHO_CONSTANT = 7.4162987

# Split points for the angle integral near both endpoints, where a turning
# point close to a third root of Q makes the integrand sharply peaked.
_EDGE_SPLITS = (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)


class ReferenceFailure(RuntimeError):
    """The reference could not reach its own precision target."""


def _family(c: tuple) -> str:
    if len(c) == 5 and c[0] == c[1] == c[3] == 0.0 and c[2] == 0.5 and c[4] != 0.0:
        return "quartic"
    if len(c) == 4 and c[0] == c[1] == 0.0 and c[2] == 0.5 and c[3] != 0.0:
        return "cubic"
    return "generic"


def _real_sorted(roots, tol):
    return sorted(mp.re(r) for r in roots if abs(mp.im(r)) <= tol * max(1, abs(r)))


def _quartic_period(c4, E):
    # Q = E - x^2/2 - c4 x^4 is a quadratic in y = x^2.
    y = _real_sorted(mp.polyroots([-c4, mp.mpf(-0.5), E], maxsteps=200,
                                  extraprec=4 * mp.prec), mp.mpf(10) ** (-mp.dps // 2))
    if c4 > 0:
        a2, b2 = y[-1], -y[0]
        return 4 / mp.sqrt(2 * c4) * mpmath.ellipk(a2 / (a2 + b2)) / mp.sqrt(a2 + b2)
    a2, b2 = y[0], y[1]
    return 4 / mp.sqrt(-2 * c4) * mpmath.ellipk(a2 / b2) / mp.sqrt(b2)


def _cubic_period(c3, E):
    c3 = abs(c3)  # the parity image x -> -x has the same period
    x3, xm, xp = _real_sorted(
        mp.polyroots([-c3, mp.mpf(-0.5), 0, E], maxsteps=200, extraprec=4 * mp.prec),
        mp.mpf(10) ** (-mp.dps // 2))
    return (2 * mp.sqrt(2) / mp.sqrt(c3) * mpmath.ellipk((xp - xm) / (xp - x3))
            / mp.sqrt(xp - x3))


def _polyval(c, x):
    acc = mp.zero
    for a in reversed(c):
        acc = acc * x + a
    return acc


def _deflate(c, r):
    """Quotient of c(x) / (x - r), coefficients low to high."""
    out = []
    acc = mp.zero
    for a in reversed(c):
        acc = acc * r + a
        out.append(acc)
    return list(reversed(out[:-1]))


def _generic_period(c, E):
    deriv = [k * c[k] for k in range(1, len(c))]
    second = [k * deriv[k] for k in range(1, len(deriv))]
    tol = mp.mpf(10) ** (-mp.dps // 2)
    crits = _real_sorted(mp.polyroots(list(reversed(deriv)), maxsteps=400,
                                      extraprec=4 * mp.prec), tol)
    minima = [x for x in crits if _polyval(second, x) > 0]
    x_min = min(minima, key=abs)
    q = [E - c[0]] + [-a for a in c[1:]]
    roots = _real_sorted(mp.polyroots(list(reversed(q)), maxsteps=400,
                                      extraprec=4 * mp.prec), tol)
    xm = max(r for r in roots if r < x_min)
    xp = min(r for r in roots if r > x_min)
    residual = [-a for a in _deflate(_deflate(q, xp), xm)]
    mid, half = (xp + xm) / 2, (xp - xm) / 2

    def f(theta):
        return 1 / mp.sqrt(_polyval(residual, mid + half * mp.cos(theta)))

    pts = ([mp.zero] + [mp.mpf(s) for s in _EDGE_SPLITS] + [mp.pi / 2]
           + [mp.pi - mp.mpf(s) for s in reversed(_EDGE_SPLITS)] + [mp.pi])
    val, err = mp.quad(f, pts, error=True)
    if err > abs(val) * mp.mpf(10) ** (8 - mp.dps):
        raise ReferenceFailure(f"mp.quad error {err} too large for coeffs {c}, E {E}")
    return mp.sqrt(2) * val


def reference_period(coeffs, energy: float, omega0: float = 1.0, dps: int = DPS,
                     route: str | None = None):
    """The exact period (an mpf) of the well ``sum coeffs[k] x^k`` at ``energy``.

    ``route`` forces ``"generic"`` for self-checks; by default the canonical
    quartic and cubic use their elliptic closed forms.
    """
    c = tuple(float(a) for a in coeffs)
    with mp.workdps(dps):
        cm = [mp.mpf(a) for a in c]
        E = mp.mpf(float(energy))
        family = route or _family(c)
        if family == "quartic":
            T = _quartic_period(cm[4], E)
        elif family == "cubic":
            T = _cubic_period(cm[3], E)
        else:
            T = _generic_period(cm, E)
        return +(T / mp.mpf(float(omega0)))


class ReferenceCache:
    """Reference periods on disk, keyed by the exact repr of the inputs and ``DPS``."""

    def __init__(self, path: str):
        self.path = path
        self.hits = 0
        self.misses = 0
        try:
            with open(path, encoding="utf-8") as fh:
                self._data = json.load(fh)
        except (OSError, ValueError):
            self._data = {}

    def period(self, coeffs, energy: float, omega0: float = 1.0):
        key = repr((tuple(float(a) for a in coeffs), float(energy), float(omega0), DPS))
        text = self._data.get(key)
        if text is not None:
            self.hits += 1
            with mp.workdps(DPS):
                return mp.mpf(text)
        self.misses += 1
        T = reference_period(coeffs, energy, omega0)
        with mp.workdps(DPS):
            self._data[key] = mp.nstr(T, DPS + 5, strip_zeros=False)
        return T

    def save(self) -> None:
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(self.path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(self._data, fh)
            os.replace(tmp, self.path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)


def self_check() -> list[str]:
    """Check the reference against the README values; returns the failures."""
    problems = []
    quartic_rho1 = ([0.0, 0.0, 0.5, 0.0, 0.25], 0.75)
    for route in ("quartic", "generic"):
        T = float(reference_period(*quartic_rho1, route=route))
        if abs(T - README_RHO1_PERIOD) > 2e-15 * README_RHO1_PERIOD:
            problems.append(f"{route} route gives T(rho=1) = {T!r}, "
                            f"README says {README_RHO1_PERIOD!r}")
    # Cubic closed form against the generic angle integral, off the canonical
    # quartic, so that both closed forms are checked by an independent route.
    cubic = ([0.0, 0.0, 0.5, 1.0 / 3.0], 0.1)
    a = reference_period(*cubic)
    b = reference_period(*cubic, route="generic")
    if abs(a - b) > abs(a) * mp.mpf(10) ** (10 - DPS):
        problems.append(f"cubic closed form {a} disagrees with the angle integral {b}")
    rho = 1e12  # A = 1, lam = rho: sqrt(rho) T tends to the constant as 1/rho
    T = reference_period([0.0, 0.0, 0.5, 0.0, rho / 4.0], 0.5 + rho / 4.0)
    limit = float(mp.sqrt(rho) * T)
    if abs(limit - README_LARGE_RHO_CONSTANT) > 1e-7:
        problems.append(f"sqrt(rho) T at rho = 1e12 is {limit!r}, "
                        f"README says {README_LARGE_RHO_CONSTANT}")
    return problems
