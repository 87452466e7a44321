"""Each polynomial is solved once per CLI call, and the canonical wells not at all.

A well's U', each energy's E - U and the R' of each residual of degree 3 or
more are solved by ``_poly.real_roots_rows``, which every root finder goes
through; an R' of degree 1 or less has its zero in closed form.  Wrapping it
where ``_poly`` and ``potential`` look it up records every coefficient row
solved; within one CLI call, no row of degree >= 1 may come back in a later
solve.  The canonical quartic's and the canonical cubic's shells and barriers
have closed forms, so a call on the duffing or the cubic preset solves
nothing.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import periodlab._poly as _poly
import periodlab.frame as frame
import periodlab.potential as potential
from periodlab import duffing_large_rho_constant
from periodlab.cli import main
from tests.test_quartic_shells import _quartic_half_s

WELLS = {
    "duffing": ["--preset", "duffing", "--lambda", "0.7"],
    "cubic": ["--preset", "cubic", "--lambda", "-1"],
    "poly": ["--preset", "poly", "--coeffs", "0", "0", "0.5", "0.1", "0.05"],
}
COMMANDS = {
    "period": ["period", "--energy", "0.12", "--method", "all"],
    "verify": ["verify", "--energy", "0.12"],
    "converge": ["converge", "--energy", "0.12", "--Nmax", "4"],
    "sweep": ["sweep", "--param", "energy", "--from", "0.02", "--to", "0.15", "--steps", "5"],
    "sweep-oracle": ["sweep", "--param", "energy", "--from", "0.02", "--to", "0.15",
                     "--steps", "3", "--method", "oracle"],
}


@pytest.fixture
def solved(monkeypatch):
    """The rows of degree >= 1 of each ``real_roots_rows`` call, as bytes."""
    calls = []
    solve = _poly.real_roots_rows

    def recording(coeffs):
        calls.append({row.tobytes() for row in np.asarray(coeffs) if row.size > 1})
        return solve(coeffs)

    monkeypatch.setattr(_poly, "real_roots_rows", recording)
    monkeypatch.setattr(potential, "real_roots_rows", recording)
    return calls


@pytest.mark.parametrize("well", sorted(WELLS))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_no_polynomial_is_solved_twice_in_one_call(command, well, solved):
    argv = COMMANDS[command][:1] + WELLS[well] + COMMANDS[command][1:]
    assert main(argv + ["--format", "json"], out=io.StringIO()) == 0
    assert (solved == []) if well in ("duffing", "cubic") else solved
    seen, again = set(), 0
    for rows in solved:
        again += len(rows & seen)
        seen |= rows
    assert again == 0


def test_a_cubic_call_solves_u_prime_and_e_minus_u_once_each(solved):
    counts = []
    for lam in ("1", "-1"):
        solved.clear()
        argv = ["period", "--preset", "cubic", "--lambda", lam, "--energy", "0.1",
                "--method", "all"]
        assert main(argv, out=io.StringIO()) == 0
        counts.append(len(solved))
    # U' and E - U have closed forms, and the constant R' of the linear
    # residual has no zero to solve for
    assert counts == [0, 0]


# ---------------------------------------------------------------------------
# A rho sweep solves its grid of wells in a fixed number of stacked calls
# ---------------------------------------------------------------------------

def _rho_sweep(*grid):
    out = io.StringIO()
    assert main(["sweep", "--preset", "duffing", "--param", "rho", *grid,
                 "--format", "json"], out=out) == 0
    return json.loads(out.getvalue())


@pytest.mark.parametrize("grid, calls", [
    # every rho point is a canonical quartic, whose shell has a closed form
    (["--from", "0.01", "--to", "1e3", "--log"], 0),
    # the harmonic well at rho = 0 included
    (["--from", "-0.75", "--to", "0.75"], 0),
])
def test_rho_sweep_solve_calls_do_not_grow_with_the_grid(grid, calls, solved):
    counts = []
    for steps in ("5", "51"):
        solved.clear()
        records = _rho_sweep(*grid, "--steps", steps)
        assert all(r["error"] is None for r in records)
        counts.append(len(solved))
    assert counts == [calls, calls]
    seen, again = set(), 0
    for rows in solved:
        again += len(rows & seen)
        seen |= rows
    assert again == 0


def test_rho_sweep_failing_point_fails_only_its_own_slot(capsys):
    # rho = -1.5 puts amplitude 1 beyond the barrier; U'' of the well at
    # rho = 1e308 overflows; rho = 5e307 has a shell.
    records = _rho_sweep("--from", "-1.5", "--to", "1e308", "--steps", "3")
    assert [r["error_kind"] for r in records] == ["separatrix", None, "domain"]
    assert [r["rho"] for r in records] == [-1.5, 5e307, 1e308]
    assert main(["period", "--preset", "duffing", "--lambda", "-1.5", "--amplitude", "1"],
                out=io.StringIO()) == 2
    assert capsys.readouterr().err == f"separatrix error: {records[0]['error']}\n"
    assert records[2]["error"] == ("the coefficients of U' and U'' must be finite; "
                                   "[0.0, 0.0, 0.5, 0.0, 2.5e+307] overflows them")
    assert records[1]["coeffs"] == [0.0, 0.0, 0.5, 0.0, 1.25e307]
    assert records[1]["sqrt_rho_T"] == pytest.approx(duffing_large_rho_constant(), rel=1e-13)


# ---------------------------------------------------------------------------
# A sweep by any method goes from the shell solve to the output in columns
# ---------------------------------------------------------------------------

SWEEPS = {
    "duffing-energy": ["--preset", "duffing", "--lambda", "-0.7", "--param", "energy",
                       "--from", "0.01", "--to", "0.35"],
    "duffing-rho": ["--preset", "duffing", "--param", "rho", "--from", "-0.99", "--to", "1e8"],
    "cubic": ["--preset", "cubic", "--lambda", "1", "--param", "energy",
              "--from", "0.001", "--to", "0.16"],
    "poly": ["--preset", "poly", "--coeffs", "0", "0", "0.5", "0.05", "0.1", "-0.02", "-0.1",
             "--param", "energy", "--from", "0.01", "--to", "0.6"],
}


@pytest.fixture
def built(monkeypatch):
    """Counts of the shells and frames built and of the well checks made."""
    counts = {"shells": 0, "frames": 0, "derivatives": 0}

    def counting(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(potential.EnergyShell, "__init__",
                        counting("shells", potential.EnergyShell.__init__))
    monkeypatch.setattr(frame.BalancedFrame, "__init__",
                        counting("frames", frame.BalancedFrame.__init__))
    monkeypatch.setattr(potential, "_derivatives", counting("derivatives", potential._derivatives))
    return counts


@pytest.mark.parametrize("sweep, method", [
    (sweep, method) for sweep in sorted(SWEEPS)
    for method in ("quadrature", "series", "elliptic", "oracle")
    # the sextic has no elliptic period
    if (sweep, method) != ("poly", "elliptic")])
def test_quadrature_sweep_builds_no_shell_frame_or_well_per_point(sweep, method, built):
    out = io.StringIO()
    assert main(["sweep", *SWEEPS[sweep], "--steps", "50", "--method", method], out=out) == 0
    rows = out.getvalue().splitlines()[1:]
    assert len(rows) == 50 and all(row.endswith(",,") for row in rows)  # no error
    assert built["shells"] == built["frames"] == 0
    # the well of an energy sweep is derived and checked once, a poly well
    # from its physical coefficients too; a rho point builds a well only for
    # the oracle, which integrates its motion
    rho_wells = 50 if method == "oracle" else 0
    assert built["derivatives"] == {"duffing-rho": rho_wells}.get(sweep, 1)


@pytest.mark.parametrize("grid, past", [
    # the two halves of the benchmark's rho sweeps, at the ends of their ranges
    (["--from", "0.01", "--to", "1e8", "--log"], 0),
    (["--from", "-0.99", "--to", "-0.01"], 0),
    # E = 1/2 + rho/4 of rho = 5e307 is past 2^497, where _half_s scales lam and E
    (["--from", "-1.5", "--to", "1e308"], 1),
])
def test_rho_sweep_forms_s_on_columns(grid, past, monkeypatch):
    calls = []
    half_s = potential._half_s

    def recorded(lam, energy):
        found = half_s(lam, energy)
        calls.append((lam.tolist(), energy.tolist(), found.tolist()))
        return found

    monkeypatch.setattr(potential, "_half_s", recorded)
    steps = 50 if past == 0 else 3
    out = io.StringIO()
    assert main(["sweep", "--preset", "duffing", "--param", "rho", *grid, "--steps", str(steps)],
                out=out) == 0
    assert len(out.getvalue().splitlines()) == 1 + steps
    # One call on the column of the slots that pass the energy checks; the
    # slot of rho = 1e308, whose U'' overflows, is not among them.
    ((lam, energy, found),) = calls
    assert len(found) == (steps if past == 0 else 2)
    assert sum(max(abs(a), e) > 2.0 ** 497 for a, e in zip(lam, energy)) == past
    assert [v.hex() for v in found] == [_quartic_half_s(*pair).hex() for pair in zip(lam, energy)]


# Each well's flags and an energy a little above its barrier, or a top for a
# well without one, so that grids cross into error rows.
ROUTE_WELLS = {
    "cubic+": (["--preset", "cubic", "--lambda", "1"], 0.2),
    "cubic-": (["--preset", "cubic", "--lambda", "-1"], 0.2),
    "quartic+": (["--preset", "duffing", "--lambda", "0.7"], 2.0),
    "quartic-": (["--preset", "duffing", "--lambda", "-0.7"], 0.4),
    "poly4": (["--preset", "poly", "--coeffs", "0", "0", "0.5", "-0.2", "0.3"], 1.0),
    "sextic": (["--preset", "poly", "--coeffs", "0", "0", "0.5", "0.05", "0.1", "-0.02",
                "-0.1"], 0.7),
}


def _json_records(argv):
    out = io.StringIO()
    with contextlib.redirect_stderr(io.StringIO()):
        main(argv + ["--format", "json"], out=out)
    records = json.loads(out.getvalue())
    return records if isinstance(records, list) else [records]


def _hex(v):
    return v.hex() if isinstance(v, float) else v


# A rho grid: through rho = 0, where the residual has degree 0, or on a log
# scale down to rho whose series terms underflow to zero.
RHO_GRIDS = st.one_of(
    st.tuples(st.floats(0.01, 0.9), st.sampled_from([3, 5])).map(
        lambda g: ["--from", repr(-g[0]), "--to", repr(g[0]), "--steps", str(g[1])]),
    st.tuples(st.integers(-300, 6), st.integers(1, 150), st.integers(2, 4)).map(
        lambda g: ["--from", f"1e{g[0]}", "--to", f"1e{g[0] + g[1]}", "--steps", str(g[2]),
                   "--log"]))


@settings(max_examples=80, deadline=None)
# rows of two residual degrees, the harmonic one at rho = 0, in the generic series
@example(well="rho", method="series", frame="fixed:1.1", N=16, span=[0.5, 1.0], steps=2,
         rho_grid=["--from", "-0.5", "--to", "0.5", "--steps", "3"])
@given(well=st.sampled_from(sorted(ROUTE_WELLS) + ["rho"]),
       method=st.sampled_from(["series", "elliptic"]),
       frame=st.one_of(st.sampled_from(["balanced", "nayfeh"]),
                       st.floats(0.3, 3.0).map(lambda w: f"fixed:{w!r}")),
       N=st.sampled_from([0, 1, 4, 16, 30]),
       span=st.tuples(st.floats(0.001, 1.0), st.floats(0.001, 1.0)).map(sorted),
       steps=st.integers(2, 5), rho_grid=RHO_GRIDS)
def test_series_and_elliptic_sweep_rows_are_the_period_records(well, method, frame, N, span,
                                                              steps, rho_grid):
    """Each row of a series or elliptic sweep is the ``period`` record at its grid
    value, to the bit: T, Omega, err_estimate, N and regime, or the error."""
    assume(not (method == "elliptic" and well == "sextic"))  # no elliptic period
    common = ["--frame", frame, "--N", str(N), "--method", method]
    if well == "rho":
        rows = _json_records(["sweep", "--preset", "duffing", *common, "--param", "rho",
                              *rho_grid])
        point = [["--preset", "duffing", "--lambda", repr(row["lambda"]), "--amplitude", "1"]
                 for row in rows]
    else:
        flags, top = ROUTE_WELLS[well]
        assume(span[0] < span[1])
        rows = _json_records(["sweep", *flags, *common, "--param", "energy", "--from",
                              repr(span[0] * top), "--to", repr(span[1] * top),
                              "--steps", str(steps)])
        point = [flags + ["--energy", repr(row["energy"])] for row in rows]
    for row, at in zip(rows, point):
        (record,) = _json_records(["period", *at, *common])
        if row["error"] is not None:
            assert (record["error"], record["error_kind"]) == (row["error"], row["error_kind"])
            continue
        assert record["error"] is None
        for field in ("T", "Omega", "err_estimate", "N", "regime"):
            assert _hex(record[field]) == _hex(row[field]), field
