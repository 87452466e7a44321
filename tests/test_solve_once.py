"""Each polynomial is solved once per CLI call.

A well's U', each energy's E - U and each shell's R' are solved by
``_poly.real_roots_rows``, which every root finder goes through.  Wrapping it
where ``_poly`` and ``potential`` look it up records every coefficient row
solved; within one CLI call, no row of degree >= 1 may come back in a later
solve.
"""

import io
import json

import numpy as np
import pytest

import periodlab._poly as _poly
import periodlab.potential as potential
from periodlab.cli import main

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
    assert solved
    seen, again = set(), 0
    for rows in solved:
        again += len(rows & seen)
        seen |= rows
    assert again == 0


# ---------------------------------------------------------------------------
# A rho sweep solves its grid of wells in a fixed number of stacked calls
# ---------------------------------------------------------------------------

def _rho_sweep(*grid):
    out = io.StringIO()
    assert main(["sweep", "--preset", "duffing", "--param", "rho", *grid,
                 "--format", "json"], out=out) == 0
    return json.loads(out.getvalue())


@pytest.mark.parametrize("grid, calls", [
    # U', E - U and R' of the quartic wells
    (["--from", "0.01", "--to", "1e3", "--log"], 3),
    # the harmonic well at rho = 0 solves its own U', E - U and R'
    (["--from", "-0.75", "--to", "0.75"], 6),
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


def test_rho_sweep_failing_eigensolve_fails_only_its_own_point():
    # rho = 1e-320 overflows the eigensolve of U'; the next two wells leave no
    # turning point bracketing the minimum; rho = 1 has a shell.
    records = _rho_sweep("--from", "1e-320", "--to", "1", "--steps", "4", "--log")
    assert [r["error_kind"] for r in records] == ["numerical", "domain", "domain", None]
    assert [r["rho"] for r in records] == [
        9.9998886718268301e-321, 4.6415543842422231e-214, 2.1544266950263641e-107, 1.0]
    assert records[0]["error"] == (
        "companion-matrix eigensolve failed: Array must not contain infs or NaNs")
    assert [r["error"] for r in records[1:3]] == [
        "no turning points bracket the minimum at energy 0.5; real roots found: [0.0, 0.0]"] * 2
    assert records[3]["coeffs"] == [0.0, 0.0, 0.5, 0.0, 0.25]
    assert records[3]["T"] == pytest.approx(4.7680220291024602, rel=1e-14)
