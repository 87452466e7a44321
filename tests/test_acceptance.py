"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
per criterion.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from periodlab import (
    CONVERGENT,
    DIVERGENT,
    EnergyShell,
    SeparatrixError,
    balanced_frame,
    cubic_elliptic,
    cubic_potential,
    cubic_series_balanced,
    delta_at,
    duffing_balanced_large_rho_limit,
    duffing_elliptic,
    duffing_large_rho_constant,
    duffing_potential,
    duffing_series_balanced,
    duffing_series_nayfeh,
    elliptic_period,
    measure_period,
    period_quadrature,
    period_series_generic,
    turning_points,
)
from tests.conftest import random_wells

SQRT2 = math.sqrt(2.0)


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {name}: {status}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _duffing_shell(rho: float):
    U = duffing_potential(rho)
    return U, float(U(1.0)), turning_points(U, float(U(1.0)))


def test_criterion_1_large_rho_constant():
    duffing_large_rho_constant()  # warm the cached quadrature nodes
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        value = duffing_large_rho_constant()
        times.append(time.perf_counter() - t0)
    runtime = min(times)
    ok = abs(value - 7.4162987) <= 5e-7 and runtime < 1e-3
    _report("1 large-rho constant", ok,
            f"value={value:.9f}, runtime={runtime * 1e3:.3f} ms")


def test_criterion_2_closed_form_truncations():
    ok = True
    for rho in [0.0, 0.5, 1.0, 10.0]:
        t0 = SQRT2 * duffing_series_balanced(rho, 0).partial_sums[0]
        t1 = SQRT2 * duffing_series_balanced(rho, 1).partial_sums[-1]
        ref0 = 4.0 * math.pi / math.sqrt(4.0 + 3.0 * rho)
        ref1 = math.pi * (147.0 * rho ** 2 + 384.0 * rho + 256.0) / (
            4.0 * (4.0 + 3.0 * rho) ** 2.5)
        ok &= abs(t0 - ref0) <= 1e-12 * ref0
        ok &= abs(t1 - ref1) <= 1e-12 * ref1
    lim0 = duffing_balanced_large_rho_limit(0)
    lim1 = duffing_balanced_large_rho_limit(1)
    ok &= abs(lim0 - 7.26) <= 0.005
    ok &= abs(lim1 - 7.406) <= 0.0005
    _report("2 closed-form truncations", ok,
            f"lim0={lim0:.4f}, lim1={lim1:.4f}")


def test_criterion_3_convergence_domains():
    ok = True
    for rho in [-0.95, -0.8, -0.7]:
        ok &= duffing_series_nayfeh(rho, 4).regime == DIVERGENT
    for rho in [-0.6, 0.0, 5.0]:
        ok &= duffing_series_nayfeh(rho, 4).regime == CONVERGENT
    for rho in [-0.95, -0.8, -0.7, -0.6, 0.0, 5.0]:
        ok &= duffing_series_balanced(rho, 4).regime == CONVERGENT
    _report("3 convergence domains", ok)


def test_criterion_4_cross_method_oracle_equivalence():
    t_start = time.perf_counter()
    ok = True
    worst_analytic = 0.0
    worst_oracle = 0.0

    cases = []
    for rho in [-0.9, 0.5, 1.0, 10.0]:
        U, energy, shell = _duffing_shell(rho)
        cases.append((U, energy, shell, duffing_elliptic(rho).T))
    for energy in [0.01, 0.1, 0.15]:
        U = cubic_potential(1.0)
        shell = turning_points(U, energy)
        cases.append((U, energy, shell, cubic_elliptic(shell).T))

    for U, energy, shell, t_elliptic in cases:
        t_quad = period_quadrature(balanced_frame(shell)).T
        if shell.rho is not None:
            series = duffing_series_balanced(shell.rho, 30)
        else:
            series = cubic_series_balanced(shell, 30)
        ok &= series.converged
        t_series = SQRT2 * series.partial_sums[-1]
        t_oracle = measure_period(U, energy).period

        analytic = [t_quad, t_elliptic, t_series]
        for i in range(3):
            for j in range(i + 1, 3):
                dev = abs(analytic[i] - analytic[j]) / max(analytic[i], analytic[j])
                worst_analytic = max(worst_analytic, dev)
        everything = analytic + [t_oracle]
        for i in range(4):
            for j in range(i + 1, 4):
                dev = abs(everything[i] - everything[j]) / max(
                    everything[i], everything[j])
                worst_oracle = max(worst_oracle, dev)

    runtime = time.perf_counter() - t_start
    ok &= worst_analytic <= 1e-10 and worst_oracle <= 1e-6 and runtime < 1.0
    _report("4 cross-method oracle equivalence", ok,
            f"analytic={worst_analytic:.2e}, with-oracle={worst_oracle:.2e}, "
            f"runtime={runtime:.2f} s")


def test_criterion_5_separatrix_behavior():
    ok = True
    U = cubic_potential(1.0)
    try:
        turning_points(U, 1.0 / 6.0)
        ok = False
    except SeparatrixError:
        pass

    # Exact barrier factorization Q = (x+1)^2 (1-2x)/6: xi = 1 and k^2 = 1.
    limit_shell = EnergyShell(
        energy=1.0 / 6.0, x_minus=-1.0, x_plus=0.5,
        residual=np.array([1.0 / 3.0, 1.0 / 3.0]), family="cubic",
    )
    xi = balanced_frame(limit_shell).xi
    k2 = (limit_shell.x_plus - limit_shell.x_minus) / (limit_shell.x_plus - (-1.0))
    ok &= abs(xi - 1.0) <= 1e-14 and abs(k2 - 1.0) <= 1e-14
    for route in (lambda: elliptic_period(limit_shell),
                  lambda: cubic_elliptic(limit_shell),
                  lambda: cubic_series_balanced(limit_shell, 8)):
        try:
            route()
            ok = False
        except SeparatrixError:
            pass

    periods = []
    for n in range(2, 7):
        shell = turning_points(U, 1.0 / 6.0 - 10.0 ** (-n))
        periods.append(period_quadrature(balanced_frame(shell)).T)
    ok &= all(a < b for a, b in zip(periods, periods[1:]))
    _report("5 separatrix behavior", ok,
            "T(n=2..6) = " + ", ".join(f"{p:.3f}" for p in periods))


def test_criterion_6_balance_property():
    rng = np.random.default_rng(6150533)
    theta = np.linspace(0.0, np.pi, 4097)
    ok = True
    for U, energy, shell in random_wells(rng, 100):
        fr = balanced_frame(shell)
        values = delta_at(fr, theta)
        top = max(float(values.max()), fr.delta_max)
        bottom = min(float(values.min()), fr.delta_min)
        ok &= abs(top + bottom) <= 1e-12
        ok &= max(abs(top), abs(bottom)) < 1.0
    _report("6 balance property", ok)


def test_criterion_7_generic_equals_closed_form():
    def first_nonzero(terms, n):
        floor = 1e-13 * abs(terms[0])
        return [t for t in terms if abs(t) > floor][:n]

    ok = True
    for rho in [1.0, -0.5, 4.0]:
        _, _, shell = _duffing_shell(rho)
        generic = first_nonzero(
            period_series_generic(balanced_frame(shell), 24).terms, 10)
        closed = list(duffing_series_balanced(rho, 12).terms)[:len(generic)]
        ok &= all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(generic, closed))
    for energy in [0.05, 0.15]:
        shell = turning_points(cubic_potential(1.0), energy)
        generic = first_nonzero(
            period_series_generic(balanced_frame(shell), 24).terms, 10)
        closed = list(cubic_series_balanced(shell, 12).terms)[:len(generic)]
        ok &= all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(generic, closed))
    _report("7 generic series = closed form", ok)


def test_criterion_8_oracle_quality_gates():
    from periodlab import TrajectoryState, harmonic_potential, integrate

    U = harmonic_potential()
    report = measure_period(U, 0.5)
    harmonic_ok = abs(report.period - 2.0 * math.pi) <= 1e-13

    # The stepper's order, 2k = 12, in 40-digit arithmetic, where the error
    # has room to fall by 2^12 per halving of the step: the 13-19 band
    # around 2^4 of the fourth-order stepper, scaled to 4096 * [13/16, 19/16].
    with mp.workdps(40):
        def error(steps):
            states = integrate(U, TrajectoryState(mp.mpf(0), mp.mpf(1), mp.mpf(0)),
                               mp.mpf(2) / steps, steps)
            return max(abs(s.x - mp.cos(s.tau)) for s in states)
        ratio = float(error(8) / error(16))
    order_ok = 3328.0 <= ratio <= 4864.0
    _report("8 oracle quality gates", harmonic_ok and order_ok,
            f"|T - 2pi| = {abs(report.period - 2 * math.pi):.2e}, ratio = {ratio:.2f}")
