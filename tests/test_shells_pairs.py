"""Shells over (well, energy) pairs: each slot as :func:`turning_points` gives it on its own.

Each stack is built twice from the same recipes, so the wells solved in the
stack have not seen a one-at-a-time solve and their critical points come from
the stacked U' solve.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from periodlab import (
    ConvergenceError,
    DomainError,
    NoMinimumError,
    PolynomialPotential,
    SeparatrixError,
    barrier_info,
    cubic_potential,
    duffing_potential,
    from_physical,
    shells,
    turning_points,
)


def _fresh(coeffs):
    """The well of ``from_physical(coeffs)`` without the critical points it solved."""
    U = from_physical(coeffs)
    return PolynomialPotential(U.coeffs, minimum_x=U.minimum_x)


# name -> a function building a fresh well
RECIPES = {
    "duffing+": lambda: duffing_potential(0.7),
    "duffing-": lambda: duffing_potential(-0.7),
    "duffing-0.9": lambda: duffing_potential(-0.9),
    "harmonic": lambda: duffing_potential(0.0),
    "cubic+": lambda: cubic_potential(1.0),
    "cubic-": lambda: cubic_potential(-1.0),
    "sextic": lambda: _fresh([0.0, 0.0, 0.5, 0.1, -0.05, 0.02, 0.1]),
    "sextic-solved": lambda: from_physical([0.0, 0.0, 0.5, 0.05, 0.1, -0.02, -0.1]),
    "double": lambda: _fresh([0.0, 0.0, 0.5, -0.6, 0.1]),
    # E - U overflows its companion matrix
    "overflow-shell": lambda: from_physical([0.0, 0.0, 1e-320]),
    # U' overflows its companion matrix, so the well has no barrier
    "overflow-well": lambda: cubic_potential(3e-320),
}

# (recipe, energy); the duffing- barrier sits at E = 1/(4 * 0.7)
PAIRS = [
    ("duffing+", 0.3),
    ("duffing-", 0.2),
    ("harmonic", 0.5),
    ("cubic+", 0.1),
    ("duffing-", 1.0 / 2.8),  # the separatrix
    ("sextic", 0.05),
    ("overflow-shell", 0.5),
    ("cubic-", 0.15),
    ("duffing-0.9", 0.25),
    ("overflow-well", 0.5),
    ("double", 0.03),
    ("sextic-solved", 0.1),
    ("duffing+", -1.0),
    ("harmonic", 2.0),
    ("cubic+", 0.2),  # above the barrier at 1/6
    ("sextic", 0.2),
    ("duffing-", 0.01),
    ("double", 0.06),
    ("double", 0.1),  # above its barrier
]


def _hexes(values):
    return tuple(None if v is None else float(v).hex() for v in values)


def _bits(x):
    """The bits of a shell's fields, or the type and message of an error."""
    if isinstance(x, Exception):
        return type(x), str(x)
    return (
        _hexes([x.x_minus, x.x_plus, x.rho, x.amplitude]), _hexes(x.residual),
        _hexes(x.residual_critical_points), _hexes(x.residual_extrema),
        _hexes(x.extra_roots),
    )


def _one_at_a_time(wells, energies):
    out = []
    for U, energy in zip(wells, energies):
        try:
            out.append(turning_points(U, energy))
        except (DomainError, ConvergenceError) as exc:
            out.append(exc)
    return out


def _build(names):
    """Fresh wells for ``names``, one object per distinct name, as a CLI grid reuses them."""
    built = {}
    return [built.setdefault(n, RECIPES[n]()) for n in names]


def _assert_pairs_match(names, energies):
    batch = shells(_build(names), energies)
    alone = _one_at_a_time(_build(names), energies)
    assert len(batch) == len(energies)
    assert [_bits(s) for s in batch] == [_bits(s) for s in alone]
    return batch


def test_pairs_match_turning_points_slot_for_slot():
    names, energies = zip(*PAIRS)
    batch = _assert_pairs_match(names, energies)
    kinds = {n: type(s) for n, s in zip(names, batch) if isinstance(s, Exception)}
    assert kinds == {"duffing-": SeparatrixError, "overflow-shell": ConvergenceError,
                     "overflow-well": ConvergenceError, "duffing+": DomainError,
                     "cubic+": SeparatrixError, "double": SeparatrixError}
    assert sum(not isinstance(s, Exception) for s in batch) == 13


def test_pairs_in_reverse_order_match_too():
    names, energies = zip(*PAIRS[::-1])
    _assert_pairs_match(names, energies)


def test_stacked_critical_points_are_those_of_the_well_alone():
    names = ["duffing+", "duffing-", "duffing-0.9", "cubic+", "cubic-", "harmonic"]
    wells = _build(names)
    shells(wells, [0.1] * len(wells))
    for name, U in zip(names, wells):
        alone = RECIPES[name]()
        assert U.critical_points.tobytes() == alone.critical_points.tobytes()
        assert not U.critical_points.flags.writeable
        assert barrier_info(U) == barrier_info(alone)


def test_a_sequence_of_one_well_matches_the_well():
    U = duffing_potential(-0.7)
    energies = list(np.linspace(-0.05, 0.4, 10))
    assert ([_bits(s) for s in shells([U] * len(energies), energies)]
            == [_bits(s) for s in shells(U, energies)])


def test_every_well_failing_its_eigensolve_fails_only_its_own_slots():
    names = ["overflow-well", "overflow-shell", "duffing+", "overflow-well", "sextic"]
    batch = _assert_pairs_match(names, [0.5, 0.5, 0.3, 0.2, 0.05])
    assert [type(s) for s in batch[:2]] == [ConvergenceError, ConvergenceError]
    assert str(batch[0]).startswith("companion-matrix eigensolve failed: ")
    assert batch[0] is batch[3]
    assert not isinstance(batch[2], Exception) and not isinstance(batch[4], Exception)


def test_pairs_need_one_well_per_energy():
    with pytest.raises(ValueError):
        shells([duffing_potential(0.5)] * 2, [0.1, 0.2, 0.3])


def test_no_pairs_is_empty():
    assert shells([], []) == []


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(
        st.lists(st.floats(-0.4, 0.4), min_size=3, max_size=3),
        st.booleans(),
        st.floats(-0.3, 0.3).filter(lambda a: abs(a) > 1e-3),
        st.floats(0.001, 1.2),
    ),
    min_size=1, max_size=10,
))
def test_pairs_match_turning_points_on_random_wells(draws):
    # each well is x^2/2 plus a cubic term and a quartic lead, or three middle
    # terms and a sextic lead; the energy is a fraction of its barrier or of 4
    coeffs, energies = [], []
    for middle, sextic, lead, fraction in draws:
        coeffs.append([0.0, 0.0, 0.5, *(middle if sextic else middle[:1]), lead])
        try:
            b = barrier_info(from_physical(coeffs[-1]))
        except NoMinimumError:
            assume(False)
        energies.append(fraction * (b.barrier_energy if b.has_barrier else 4.0))
    batch = shells([_fresh(c) for c in coeffs], energies)
    alone = _one_at_a_time([_fresh(c) for c in coeffs], energies)
    assert [_bits(s) for s in batch] == [_bits(s) for s in alone]
