"""Each polynomial is solved once per CLI call.

A well's U', each energy's E - U and each shell's R' are solved by
``_poly.real_roots_rows``, which every root finder goes through.  Wrapping it
where ``_poly`` and ``potential`` look it up records every coefficient row
solved; within one CLI call, no row of degree >= 1 may come back in a later
solve.
"""

import io

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
