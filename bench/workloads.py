"""Seeded inputs for the periodlab benchmark.

Each workload turns a seed into an endless stream of operations.  An operation is one
call into ``periodlab.cli.main``; the program receives nothing but its argv.
Inputs are drawn in stratified cycles: every cycle visits each stratum (a
well family, or a well family at one distance from the barrier) once, in a
fixed order, with seeded parameters.  Runs with different seeds therefore do
the same mix of work, which keeps the end-to-end figures steady across seeds.

Every input lies strictly inside the oscillatory band of its well, so every
operation is expected to succeed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

DEFAULT_SEED = 1
HELD_OUT_SEED = 2

# Points per sweep call in sweep-energy and sweep-rho.
SWEEP_POINTS = 50
# Points per sweep call in sweep-separatrix: one decade of relative gap each.
SEPARATRIX_POINTS = 5
# Smallest relative gap (E_b - E)/E_b of the timed sweeps.  Below about 5e-9
# node doubling reaches its 4096-node cap on a growing share of wells and the
# point raises ConvergenceError, which aborts its whole sweep (about 1.5% of
# wells at 2e-9, 4% at 1e-9, 38% at 1e-10).  Timed operations must not fail,
# so that region is measured off the clock by the probe below instead.
GAP_FLOOR = 1e-8
SEPARATRIX_DECADES = tuple(range(1, 9))
NEAR_GAP = 1e-6
# Below-floor probe of sweep-separatrix: single `period` calls at relative gaps
# 10^-d * U(1, 2), PROBE_WELLS seeded wells per well family and decade.
PROBE_DECADES = (9, 10)
PROBE_WELLS = 4
# Largest series ratio (see series_ratio) of a generic well in verify-oracle.
# `verify` exits 3 when its routes disagree by more than 1e-6, and the N = 30
# series of a generic well does so when the ratio nears 1: over 6000 seeded
# sextic inputs, none below 0.6 deviated by more than 2.2e-9, and 1 of the 10
# at 0.6 or above (0.77) by 9e-6.  Timed operations must not fail, so inputs at
# or above the ceiling are redrawn and measured off the clock by the series
# probe instead: PROBE_SERIES_CALLS seeded sextic inputs at or above it.
SERIES_RATIO_MAX = 0.6
PROBE_SERIES_CALLS = 20


@dataclass(frozen=True)
class Op:
    """One call into the CLI and what it counts for."""

    argv: tuple
    points: int          # operations this call counts for
    stratum: str
    well: str | None     # identity of the well, None when every point is a new well
    gaps: tuple = field(default=())  # relative barrier gaps of the grid ends, if tracked


def _f(x: float) -> str:
    # Shortest round-trip digits in positional notation: argparse takes
    # "-6.9e-05" for an option flag, so exponent notation cannot carry a
    # negative coefficient on the command line.
    return np.format_float_positional(float(x), unique=True, trim="-")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def barrier_energy(coeffs) -> float:
    """Lowest barrier adjacent to the minimum at x = 0, or inf when none.

    Computed here, not by periodlab: critical points from ``numpy.roots``.
    """
    deriv = [k * coeffs[k] for k in range(1, len(coeffs))]
    roots = np.roots(deriv[::-1])
    crit = sorted(float(r.real) for r in roots if abs(r.imag) <= 1e-9 * max(1.0, abs(r)))
    left = [x for x in crit if x < -1e-12]
    right = [x for x in crit if x > 1e-12]
    heights = []
    for x in (max(left) if left else None, min(right) if right else None):
        if x is None:
            continue
        second = sum(k * (k - 1) * coeffs[k] * x ** (k - 2) for k in range(2, len(coeffs)))
        height = sum(a * x ** k for k, a in enumerate(coeffs))
        if second <= 0.0 and height > 0.0:
            heights.append(height)
    return min(heights) if heights else math.inf


# ---------------------------------------------------------------------------
# Wells: (preset flags, dimensionless coefficients, barrier energy)
# ---------------------------------------------------------------------------

def _quartic(lam: float):
    return ["--preset", "duffing", "--lambda", _f(lam)], \
        (1.0 / (4.0 * -lam) if lam < 0 else math.inf)


def _cubic(lam: float):
    return ["--preset", "cubic", "--lambda", _f(lam)], 1.0 / (6.0 * lam * lam)


def _poly(coeffs):
    return ["--preset", "poly", "--coeffs", *(_f(c) for c in coeffs)], barrier_energy(coeffs)


def _poly_quartic_confining(rng):
    a4 = rng.uniform(0.05, 0.5)
    # 9 a3^2 < 16 a4 keeps x = 0 the only critical point.
    a3 = rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 0.8) * math.sqrt(16.0 * a4 / 9.0)
    return _poly([0.0, 0.0, 0.5, a3, a4])


def _poly_sextic(rng):
    return _poly([0.0, 0.0, 0.5, rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.3),
                  rng.uniform(-0.1, 0.1), rng.uniform(0.02, 0.2)])


def _poly_quartic_barrier(rng):
    return _poly([0.0, 0.0, 0.5, rng.uniform(-0.3, 0.3), -rng.uniform(0.05, 0.5)])


def _poly_sextic_barrier(rng):
    return _poly([0.0, 0.0, 0.5, rng.uniform(-0.2, 0.2), rng.uniform(-0.1, 0.2),
                  rng.uniform(-0.05, 0.05), -rng.uniform(0.02, 0.2)])


def series_ratio(coeffs, energy: float) -> float:
    """sup |Delta| of the balanced frame: (R_max - R_min)/(R_max + R_min) on the shell.

    R = (E - V(x)) / ((x - x_-)(x_+ - x)) between the turning points x_- < 0 < x_+.
    The N = 30 series converges like this ratio to the power N.  Computed
    here, not by periodlab: turning points from ``numpy.roots``, R on a grid.
    """
    poly = np.array(coeffs, dtype=float)
    poly[0] -= energy
    real = [float(r.real) for r in np.roots(poly[::-1]) if abs(r.imag) <= 1e-9]
    x_minus = max(x for x in real if x < 0.0)
    x_plus = min(x for x in real if x > 0.0)
    x = np.linspace(x_minus, x_plus, 2001)[1:-1]
    r = (energy - np.polynomial.polynomial.polyval(x, coeffs)) / ((x - x_minus) * (x_plus - x))
    return float((r.max() - r.min()) / (r.max() + r.min()))


def _poly_coeffs(flags) -> list[float] | None:
    return [float(c) for c in flags[3:]] if flags[1] == "poly" else None


def _signed(rng, lo, hi, sign):
    return sign * _log_uniform(rng, lo, hi)


_BAND_WELLS = {
    "quartic+": lambda rng: _quartic(_signed(rng, 0.1, 10.0, 1.0)),
    "quartic-": lambda rng: _quartic(_signed(rng, 0.1, 10.0, -1.0)),
    "cubic+": lambda rng: _cubic(_signed(rng, 0.2, 5.0, 1.0)),
    "cubic-": lambda rng: _cubic(_signed(rng, 0.2, 5.0, -1.0)),
    "poly4": _poly_quartic_confining,
    "poly6": _poly_sextic,
}

_SEPARATRIX_WELLS = {
    "quartic-": _BAND_WELLS["quartic-"],
    "cubic+": _BAND_WELLS["cubic+"],
    "cubic-": _BAND_WELLS["cubic-"],
    "poly4b": _poly_quartic_barrier,
    "poly6b": _poly_sextic_barrier,
}


def _top_energy(rng, e_b: float, frac_lo: float, frac_hi: float) -> float:
    """An energy in the band interior: a fraction of E_b, or O(1) without a barrier."""
    if math.isinf(e_b):
        return rng.uniform(0.5, 2.0)
    return rng.uniform(frac_lo, frac_hi) * e_b


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _sweep_energy(rng):
    for name, make in _BAND_WELLS.items():
        flags, e_b = make(rng)
        hi = _top_energy(rng, e_b, 0.5, 0.9)
        lo = hi * rng.uniform(0.001, 0.05)
        argv = ["sweep", *flags, "--param", "energy", "--from", _f(lo), "--to", _f(hi),
                "--steps", str(SWEEP_POINTS)]
        yield Op(tuple(argv), SWEEP_POINTS, name, " ".join(flags))


def _sweep_rho(rng):
    lo, hi = 10.0 ** rng.uniform(-2.0, 0.0), 10.0 ** rng.uniform(6.0, 8.0)
    yield Op(("sweep", "--preset", "duffing", "--param", "rho", "--from", _f(lo),
              "--to", _f(hi), "--steps", str(SWEEP_POINTS), "--log"),
             SWEEP_POINTS, "hardening-log", None)
    lo, hi = rng.uniform(-0.99, -0.9), rng.uniform(-0.3, -0.01)
    yield Op(("sweep", "--preset", "duffing", "--param", "rho", "--from", _f(lo),
              "--to", _f(hi), "--steps", str(SWEEP_POINTS)),
             SWEEP_POINTS, "softening-lin", None)


def _sweep_separatrix(rng):
    for name, make in _SEPARATRIX_WELLS.items():
        for d in SEPARATRIX_DECADES:
            flags, e_b = make(rng)
            gap_far = 0.9 * 10.0 ** (1 - d)
            gap_near = max(GAP_FLOOR, 10.0 ** -d * rng.uniform(1.0, 2.0))
            argv = ["sweep", *flags, "--param", "energy",
                    "--from", _f(e_b * (1.0 - gap_far)), "--to", _f(e_b * (1.0 - gap_near)),
                    "--steps", str(SEPARATRIX_POINTS)]
            yield Op(tuple(argv), SEPARATRIX_POINTS, f"{name}/1e-{d}", " ".join(flags),
                     (gap_far, gap_near))


def below_floor_probe(seed: int) -> list[tuple]:
    """Seeded `period` calls below the separatrix floor, as (label, argv)."""
    rng = random.Random(f"probe:{seed}")
    calls = []
    for d in PROBE_DECADES:
        for make in _SEPARATRIX_WELLS.values():
            for _ in range(PROBE_WELLS):
                flags, e_b = make(rng)
                gap = 10.0 ** -d * rng.uniform(1.0, 2.0)
                calls.append((f"at gap 1-2e-{d}",
                              ("period", *flags, "--energy", _f(e_b * (1.0 - gap)))))
    return calls


def _verify_input(rng, make):
    flags, e_b = make(rng)
    energy = _top_energy(rng, e_b, 0.05, 0.6)
    return flags, energy, ("verify", *flags, "--energy", _f(energy), "--format", "json")


def series_probe(seed: int) -> list[tuple]:
    """Seeded sextic `verify` calls at or above the series-ratio ceiling, as (label, argv)."""
    rng = random.Random(f"series-probe:{seed}")
    calls = []
    while len(calls) < PROBE_SERIES_CALLS:
        flags, energy, argv = _verify_input(rng, _poly_sextic)
        if series_ratio(_poly_coeffs(flags), energy) >= SERIES_RATIO_MAX:
            calls.append((f"with series ratio >= {SERIES_RATIO_MAX:g}", argv))
    return calls


def _verify_oracle(rng):
    for name, make in _BAND_WELLS.items():
        while True:
            flags, energy, argv = _verify_input(rng, make)
            coeffs = _poly_coeffs(flags)
            if coeffs is None or series_ratio(coeffs, energy) < SERIES_RATIO_MAX:
                break
        yield Op(argv, 1, name, " ".join(flags))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cycle: object            # rng -> iterable of Op, one stratified cycle
    warmup: tuple            # fixed argv of the untimed warm-up call
    tail_percentile: float   # fixed so that parent and change report the same percentile
    warmup_rc: int = 0       # exit code the warm-up call is expected to return
    probe: object = None     # seed -> [(label, argv)]: off-clock calls beyond the workload's limits


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "sweep-energy",
            "energy sweeps over one well per call: per-energy shell work dominates; "
            "the well is reused by 98% of points",
            _sweep_energy,
            ("sweep", "--preset", "cubic", "--lambda", "1", "--param", "energy",
             "--from", "0.001", "--to", "0.15", "--steps", str(SWEEP_POINTS)),
            90.0,
        ),
        Workload(
            "sweep-rho",
            "duffing rho sweeps, log hardening to 1e8 and linear softening to -0.99: "
            "every point is a new well, so per-well caching cannot help",
            _sweep_rho,
            ("sweep", "--preset", "duffing", "--param", "rho", "--from", "-0.99",
             "--to", "-0.01", "--steps", str(SWEEP_POINTS)),
            90.0,
        ),
        Workload(
            "sweep-separatrix",
            "energy sweeps closing in on the barrier, one decade of gap per call down "
            "to 1e-8: Gauss-Legendre node doubling is exercised",
            _sweep_separatrix,
            # 1e-11 below the cubic barrier node doubling reaches its 4096-node cap
            # and raises ConvergenceError (exit 3), so every Gauss-Legendre rule a
            # sweep can need is built before timing starts.
            ("period", "--preset", "cubic", "--lambda", "1", "--energy",
             repr(1.0 / 6.0 - 1e-11)),
            95.0,
            3,
            below_floor_probe,
        ),
        Workload(
            "verify-oracle",
            "verify calls in the band interior: quadrature, series N=30, elliptic "
            "and the RK4 oracle, which dominates",
            _verify_oracle,
            ("verify", "--preset", "poly", "--coeffs", "0", "0", "0.5", "-0.2", "-0.1",
             "-0.09", "0.09", "--energy", "0.6", "--format", "json"),
            95.0,
            probe=series_probe,
        ),
    )
}


def stream(workload: str, seed: int):
    """The workload's operations for ``seed``: stratified cycles without end."""
    rng = random.Random(f"{workload}:{seed}")
    make = WORKLOADS[workload].cycle
    while True:
        yield from make(rng)


def generate(workload: str, seed: int, n: int) -> list[Op]:
    """The first ``n`` operations of the workload's stream."""
    return list(itertools.islice(stream(workload, seed), n))


def cycle_length(workload: str) -> int:
    return sum(1 for _ in WORKLOADS[workload].cycle(random.Random(0)))


def grid_gaps(op: Op) -> list[float]:
    """Relative gaps of every grid point of a separatrix sweep (linear grid)."""
    if not op.gaps:
        return []
    far, near = op.gaps
    n = op.points
    return [far + (near - far) * i / (n - 1) for i in range(n)]


def properties(ops: list[Op]) -> dict:
    """Input properties that later claims rely on, measured on the generated ops."""
    points = sum(op.points for op in ops)
    reused = 0
    prev = None
    for op in ops:
        if op.well is not None:
            reused += op.points - 1 + (op.well == prev)
        prev = op.well
    gaps = [g for op in ops for g in grid_gaps(op)]
    return {
        "calls": len(ops),
        "points": points,
        "points_per_call": sorted({op.points for op in ops}),
        "well_reuse_frac": reused / points,
        "near_barrier_frac": (sum(g <= NEAR_GAP for g in gaps) / len(gaps)) if gaps else None,
        "min_gap": min(gaps) if gaps else None,
        "strata": sorted({op.stratum for op in ops}),
    }
