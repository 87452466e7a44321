"""Batched quadrature: the same bits as one frame at a time, and the same errors in their slots."""

import io
import math

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from periodlab import (
    ConvergenceError,
    DomainError,
    EnergyShell,
    NoMinimumError,
    PeriodLabError,
    SeparatrixError,
    balanced_frame,
    barrier_info,
    cubic_potential,
    delta_at,
    duffing_potential,
    fixed_frame,
    from_physical,
    nayfeh_frame,
    period_quadrature,
    period_quadratures,
    shells,
)
from periodlab.cli import main
from periodlab.period import _QUAD_N0, _QUAD_NMAX, DEFAULT_QUAD_TOL, _gl_rule
from periodlab.potential import _check_residual_positive

WELLS = {
    "duffing+": duffing_potential(0.5),
    "duffing-": duffing_potential(-0.5),
    "cubic+": cubic_potential(1.0),
    "cubic-": cubic_potential(-1.0),
    "sextic": from_physical([0.0, 0.0, 0.8, -0.6, 0.4, 0.1, 0.02], mass=2.0),
    "sextic-barrier": from_physical([0.0, 0.0, 0.5, 0.05, 0.1, -0.02, -0.1]),
    "double": from_physical([0.0, 0.0, 0.5, -0.6, 0.1]),
}


def _cap(U):
    b = barrier_info(U)
    return b.barrier_energy if b.has_barrier else 4.0


def _scalar_reference(frame, omega0=1.0, tol=None):
    """One frame by the scalar route: ``delta_at`` at each doubling level."""
    tol = DEFAULT_QUAD_TOL if tol is None else tol
    prev = None
    n = _QUAD_N0
    while n <= _QUAD_NMAX:
        theta, w = _gl_rule(n)
        radicand = 1.0 + delta_at(frame, theta)
        if np.any(radicand <= 0.0):
            return SeparatrixError
        val = float(w @ (1.0 / np.sqrt(radicand)))
        if prev is not None and abs(val - prev) <= tol * max(1e-300, abs(val)):
            scale = 2.0 / (omega0 * frame.omega)
            return (scale * val).hex(), (scale * abs(val - prev)).hex()
        prev = val
        n *= 2
    return ConvergenceError


def _bits(result):
    """The bits of T and err_estimate, or the class of the error."""
    if isinstance(result, PeriodLabError):
        return type(result)
    return result.T.hex(), result.err_estimate.hex()


def _one_at_a_time(frames, omega0=1.0, tol=None):
    out = []
    for frame in frames:
        try:
            out.append(_bits(period_quadrature(frame, omega0, tol)))
        except PeriodLabError as exc:
            out.append(type(exc))
    return out


def _assert_same(frames, omega0=1.0, tol=None):
    batch = period_quadratures(frames, omega0, tol)
    assert len(batch) == len(frames)
    bits = [_bits(r) for r in batch]
    assert bits == _one_at_a_time(frames, omega0, tol)
    assert bits == [_scalar_reference(f, omega0, tol) for f in frames]
    return batch


def _frames(U, energies):
    return [balanced_frame(s) for s in shells(U, energies)]


@pytest.mark.parametrize("name", sorted(WELLS))
def test_batch_matches_one_frame_at_a_time(name):
    U = WELLS[name]
    batch = _assert_same(_frames(U, np.linspace(0.01, 0.98, 50) * _cap(U)), omega0=1.7)
    assert all(r.method == "quadrature" and r.T > 0.0 for r in batch)


def test_batch_matches_in_every_frame_strategy():
    frames = []
    for s in shells(WELLS["duffing-"], np.linspace(0.02, 0.9, 7) * _cap(WELLS["duffing-"])):
        frames += [balanced_frame(s), nayfeh_frame(s), fixed_frame(s, 0.8)]
    _assert_same(frames)


def test_batch_of_mixed_wells_matches():
    # a rho grid (one well per point) plus every other well: residuals of
    # degree 0 (harmonic), 1, 2 and 4 padded into one stack
    frames = []
    for rho in (-0.95, -0.5, 0.0, 1.0, 1e4, 1e8):
        U = duffing_potential(rho)
        frames += _frames(U, [float(U(1.0))])
    for U in WELLS.values():
        frames += _frames(U, [0.3 * _cap(U), 0.9 * _cap(U)])
    assert {f.shell.residual.size for f in frames} == {1, 2, 3, 5}
    _assert_same(frames)
    _assert_same(frames[::-1])


def test_non_positive_radicand_fails_only_its_own_slot():
    # R(x) = c + x^2 on [-1, 1] is negative in the middle for c < 0
    cs = [-0.5, 0.3, -0.1, 0.5, -0.01, 0.2]
    frames = [fixed_frame(EnergyShell(energy=1.0, x_minus=-1.0, x_plus=1.0,
                                      residual=[c, 0.0, 1.0]), 1.0) for c in cs]
    batch = _assert_same(frames)
    for c, r in zip(cs, batch):
        if c < 0.0:
            assert type(r) is SeparatrixError
            assert "non-positive radicand" in str(r)
        else:
            assert r.T > 0.0


def test_frame_at_the_node_cap_fails_while_its_neighbours_converge():
    # the energy of the sweep-separatrix warm-up, 1e-11 below the barrier at 1/6
    frames = _frames(cubic_potential(1.0), [0.1, 1.0 / 6.0 - 1e-11, 0.16666])
    batch = period_quadratures(frames)
    assert type(batch[1]) is ConvergenceError
    assert "4096 nodes" in str(batch[1])
    assert batch[0].T > 0.0 and batch[2].T > 0.0
    with pytest.raises(ConvergenceError):
        period_quadrature(frames[1])
    assert [_bits(batch[0]), _bits(batch[2])] == _one_at_a_time([frames[0], frames[2]])


def test_empty_batch():
    assert period_quadratures([]) == []
    assert period_quadratures(iter([])) == []


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-15])
def test_batch_honours_the_tolerance(tol):
    frames = _frames(WELLS["sextic"], np.linspace(0.05, 0.95, 9) * _cap(WELLS["sextic"]))
    _assert_same(frames, tol=tol)


@settings(max_examples=40, deadline=None)
@given(
    middle=st.lists(st.floats(-0.4, 0.4), min_size=3, max_size=3),
    sextic=st.booleans(),
    lead=st.floats(-0.3, 0.3).filter(lambda a: abs(a) > 1e-3),
    fractions=st.lists(st.floats(0.001, 0.999), min_size=1, max_size=12),
)
def test_batch_matches_one_at_a_time_on_random_wells(middle, sextic, lead, fractions):
    try:
        U = from_physical([0.0, 0.0, 0.5, *(middle if sextic else middle[:1]), lead])
    except NoMinimumError:
        assume(False)
    found = [s for s in shells(U, [f * _cap(U) for f in fractions])
             if not isinstance(s, PeriodLabError)]
    assume(found)
    _assert_same([balanced_frame(s) for s in found])


# ---------------------------------------------------------------------------
# The residual is evaluated once per shell
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WELLS))
def test_carried_extrema_match_evaluating_the_residual(name):
    U = WELLS[name]
    for s in shells(U, np.linspace(0.01, 0.98, 25) * _cap(U)):
        xs = [s.x_minus, s.x_plus, *s.residual_critical_points]
        values = [float(npoly.polyval(x, s.residual)) for x in xs]
        i_min, i_max = int(np.argmin(values)), int(np.argmax(values))
        expected = (values[i_min], values[i_max], xs[i_min], xs[i_max])
        assert [v.hex() for v in s.residual_extrema] == [v.hex() for v in expected]
        reflected = s.reflect()  # computes its own extrema
        assert reflected.residual_extrema[:2] == pytest.approx(expected[:2], rel=1e-12)


def test_non_positive_carried_minimum_rejects_the_shell():
    bad = EnergyShell(energy=1.0, x_minus=-1.0, x_plus=1.0, residual=[-0.5, 0.0, 1.0])
    assert bad.residual_extrema == (-0.5, 0.5, 0.0, -1.0)
    with pytest.raises(DomainError, match=r"min -0\.5\)"):
        _check_residual_positive(bad)


# ---------------------------------------------------------------------------
# A sweep record is the period record at the same energy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("flags", [
    ["--preset", "cubic", "--lambda", "-1"],
    ["--preset", "poly", "--coeffs", "0", "0", "0.8", "-0.6", "0.4", "0.1", "0.02", "--mass", "2"],
])
def test_sweep_record_equals_period_record_byte_for_byte(flags):
    U = cubic_potential(-1.0) if flags[1] == "cubic" else WELLS["sextic"]
    top = 0.95 * _cap(U)
    out = io.StringIO()
    assert main(["sweep", *flags, "--param", "energy", "--from", repr(top / 50), "--to",
                 repr(top), "--steps", "50", "--format", "csv"], out=out) == 0
    header, *rows = out.getvalue().splitlines()
    assert len(rows) == 50
    energy_col = header.split(",").index("energy")
    for row in rows:
        energy = row.split(",")[energy_col]
        one = io.StringIO()
        assert main(["period", *flags, "--energy", energy, "--format", "csv"], out=one) == 0
        assert one.getvalue().splitlines()[1] == "period" + row[len("sweep"):]


def test_duffing_sweep_record_equals_period_record_apart_from_sqrt_rho_T():
    out = io.StringIO()
    assert main(["sweep", "--preset", "duffing", "--lambda", "0.5", "--param", "energy",
                 "--from", "0.02", "--to", "3", "--steps", "50", "--format", "csv"],
                out=out) == 0
    header, *rows = out.getvalue().splitlines()
    fields = header.split(",")
    for row in rows:
        cells = row.split(",")
        assert math.isclose(float(cells[fields.index("sqrt_rho_T")]),
                            math.sqrt(float(cells[fields.index("rho")]))
                            * float(cells[fields.index("T")]), rel_tol=1e-15)
        cells[fields.index("sqrt_rho_T")] = ""
        one = io.StringIO()
        assert main(["period", "--preset", "duffing", "--lambda", "0.5", "--energy",
                     cells[fields.index("energy")], "--format", "csv"], out=one) == 0
        assert one.getvalue().splitlines()[1] == ",".join(["period", *cells[1:]])
