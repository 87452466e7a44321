"""CLI: subcommands, formats, round-trips, exit codes."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import pytest

from periodlab.cli import CONVERGE_FIELDS, RECORD_FIELDS, emit, main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*argv, env_tol=None, monkeypatch=None):
    out = io.StringIO()
    if env_tol is not None:
        monkeypatch.setenv("PERIODLAB_TOL", env_tol)
    code = main(list(argv), out=out)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# period
# ---------------------------------------------------------------------------

def test_period_series_truncation_matches_formula():
    code, out = run_cli(
        "period", "--preset", "duffing", "--lambda", "1", "--amplitude", "1",
        "--method", "series", "--N", "1", "--frame", "balanced", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    expected = math.pi * (147.0 + 384.0 + 256.0) / (4.0 * 7.0 ** 2.5)
    assert record["T"] == pytest.approx(expected, rel=1e-12)
    assert record["rho"] == pytest.approx(1.0, rel=1e-12)
    assert record["N"] == 1


def test_period_harmonic_all_methods_two_pi():
    code, out = run_cli(
        "period", "--preset", "duffing", "--lambda", "0", "--amplitude", "1",
        "--method", "all", "--format", "json",
    )
    assert code == 0
    records = json.loads(out)
    assert [r["method"] for r in records] == ["quadrature", "series", "elliptic", "oracle"]
    for r in records:
        assert r["T"] == pytest.approx(2.0 * math.pi, abs=1e-9)


def test_period_cubic_all_methods_agree():
    code, out = run_cli(
        "period", "--preset", "cubic", "--lambda", "1", "--energy", "0.15",
        "--method", "all", "--N", "40", "--format", "json",
    )
    assert code == 0
    records = json.loads(out)
    assert len(records) == 4
    periods = [r["T"] for r in records]
    spread = (max(periods) - min(periods)) / max(periods)
    assert spread < 1e-8


def test_period_energy_and_amplitude_are_exclusive():
    code, _ = run_cli("period", "--preset", "duffing", "--lambda", "1")
    assert code == 1
    code, _ = run_cli("period", "--preset", "duffing", "--lambda", "1",
                      "--energy", "0.5", "--amplitude", "1")
    assert code == 1


def test_period_amplitude_rejected_for_asymmetric():
    code, _ = run_cli("period", "--preset", "cubic", "--lambda", "1",
                      "--amplitude", "0.5")
    assert code == 1


def test_period_elliptic_unavailable_for_poly():
    # A sextic well has no elliptic period: a usage error.
    code, _ = run_cli("period", "--preset", "poly", "--coeffs", "0", "0", "0.5",
                      "0.1", "-0.05", "0.02", "0.1", "--energy", "0.1", "--method", "elliptic")
    assert code == 1


@pytest.mark.parametrize("coeffs", [["0.1", "0.05"], ["-0.399", "0.457"], ["0.2", "-0.3"]])
def test_period_elliptic_for_degree_four_poly(coeffs):
    argv = ["period", "--preset", "poly", "--coeffs", "0", "0", "0.5", *coeffs,
            "--energy", "0.05", "--format", "json"]
    code, out = run_cli(*argv, "--method", "elliptic")
    assert code == 0
    record = json.loads(out)
    assert record["method"] == "elliptic" and record["error"] is None
    _, out = run_cli(*argv)
    assert record["T"] == pytest.approx(json.loads(out)["T"], rel=1e-14)


def test_period_separatrix_exit_code():
    code, out = run_cli("period", "--preset", "cubic", "--lambda", "1",
                        "--energy", str(1.0 / 6.0), "--format", "json")
    assert code == 2
    record = json.loads(out)
    assert record["error_kind"] == "separatrix"


def test_period_fixed_frame():
    code, out = run_cli(
        "period", "--preset", "duffing", "--lambda", "1", "--amplitude", "1",
        "--frame", "fixed:1.0", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["omega_ref"] == pytest.approx(1.0)
    assert record["T"] == pytest.approx(4.768022029102461, rel=1e-10)


def test_period_unknown_frame_is_usage_error():
    code, _ = run_cli("period", "--preset", "duffing", "--lambda", "1",
                      "--amplitude", "1", "--frame", "wobbly")
    assert code == 1


def test_period_poly_preset_round_trip():
    code, out = run_cli(
        "period", "--preset", "poly", "--coeffs", "0", "0", "1", "0", "2",
        "--mass", "2", "--energy", "0.3", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["coeffs"] == [0.0, 0.0, 0.5, 0.0, 1.0]


def test_json_round_trip_bit_exact():
    code, out = run_cli(
        "period", "--preset", "duffing", "--lambda", "0.7317315982168345",
        "--energy", "0.123456789012345678", "--method", "series",
        "--show-terms", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["energy"] == 0.123456789012345678
    assert record["lambda"] == 0.7317315982168345
    # re-serialize from the parsed record: every float survives the trip
    again = io.StringIO()
    emit([record], RECORD_FIELDS, "json", again)
    assert again.getvalue().strip() == out.strip()


def test_show_terms_includes_partial_sums():
    code, out = run_cli(
        "period", "--preset", "duffing", "--lambda", "1", "--amplitude", "1",
        "--method", "series", "--N", "6", "--show-terms", "--format", "json",
    )
    record = json.loads(out)
    sums = record["partial_sums"]
    assert len(sums) == 7
    assert sums[-1] == pytest.approx(record["T"], rel=1e-15)


def test_table_format_runs():
    code, out = run_cli("period", "--preset", "duffing", "--lambda", "1",
                        "--amplitude", "1")
    assert code == 0
    assert "quadrature" in out and "T" in out.splitlines()[0]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_csv_header_stable():
    code, out = run_cli(
        "sweep", "--preset", "duffing", "--lambda", "1", "--param", "rho",
        "--from", "0.5", "--to", "2", "--steps", "4",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == RECORD_FIELDS
    assert len(rows) == 5


def test_sweep_rho_log_grid_sqrt_rho_T_column():
    code, out = run_cli(
        "sweep", "--preset", "duffing", "--lambda", "1", "--param", "rho",
        "--from", "100", "--to", "1000000", "--steps", "5", "--log",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    values = [float(r["sqrt_rho_T"]) for r in rows]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert abs(values[-1] - 7.4162987) < 1e-5


def test_sweep_energy_monotone_toward_barrier():
    code, out = run_cli(
        "sweep", "--preset", "cubic", "--lambda", "1", "--param", "energy",
        "--from", "0.01", "--to", "0.16", "--steps", "6",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    periods = [float(r["T"]) for r in rows]
    assert all(a < b for a, b in zip(periods, periods[1:]))


def test_sweep_separatrix_points_become_error_records():
    code, out = run_cli(
        "sweep", "--preset", "cubic", "--lambda", "1", "--param", "energy",
        "--from", "0.1", "--to", "0.2", "--steps", "6",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    good = [r for r in rows if r["error"] == ""]
    bad = [r for r in rows if r["error"] != ""]
    assert good and bad
    assert all(r["error_kind"] == "separatrix" for r in bad)
    assert all(r["T"] != "" for r in good)


def test_sweep_degenerate_range_is_usage_error():
    code, _ = run_cli("sweep", "--preset", "duffing", "--lambda", "1",
                      "--param", "rho", "--from", "0", "--to", "0", "--steps", "3")
    assert code == 1
    code, _ = run_cli("sweep", "--preset", "duffing", "--lambda", "1",
                      "--param", "rho", "--from", "0", "--to", "1", "--steps", "1")
    assert code == 1
    code, _ = run_cli("sweep", "--preset", "duffing", "--lambda", "1",
                      "--param", "rho", "--from", "0", "--to", "1", "--steps", "3", "--log")
    assert code == 1


def test_sweep_rho_requires_duffing():
    code, _ = run_cli("sweep", "--preset", "cubic", "--lambda", "1",
                      "--param", "rho", "--from", "0.1", "--to", "1", "--steps", "3")
    assert code == 1


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------

def test_converge_balanced_duffing_error_decay():
    code, out = run_cli(
        "converge", "--preset", "duffing", "--lambda", "1", "--amplitude", "1",
        "--Nmax", "8", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == CONVERGE_FIELDS
    data = list(csv.DictReader(io.StringIO(out)))
    devs = [float(r["abs_dev_quadrature"]) for r in data]
    # xi^2 = 1/49 decay per added term until the quadrature floor
    for n in range(1, 5):
        assert devs[n] / devs[n - 1] < 0.05
    assert data[0]["regime"] == "convergent"


def test_converge_harmonic_all_zero_error():
    code, out = run_cli(
        "converge", "--preset", "duffing", "--lambda", "0", "--amplitude", "1",
        "--Nmax", "3", "--format", "csv",
    )
    assert code == 0
    for row in csv.DictReader(io.StringIO(out)):
        assert float(row["abs_dev_quadrature"]) < 1e-13


def test_converge_divergent_nayfeh_flagged_and_growing():
    code, out = run_cli(
        "converge", "--preset", "duffing", "--lambda", "-0.8", "--amplitude", "1",
        "--frame", "nayfeh", "--Nmax", "10", "--format", "csv",
    )
    assert code == 0
    data = list(csv.DictReader(io.StringIO(out)))
    assert all(r["regime"] == "divergent" for r in data)
    devs = [float(r["abs_dev_quadrature"]) for r in data]
    assert devs[-1] > devs[3] > devs[0]


def test_converge_table_has_regime_header():
    code, out = run_cli(
        "converge", "--preset", "duffing", "--lambda", "1", "--amplitude", "1",
        "--Nmax", "4",
    )
    assert code == 0
    assert out.startswith("# regime: convergent")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_duffing_ok():
    code, out = run_cli(
        "verify", "--preset", "duffing", "--lambda", "1", "--amplitude", "1",
        "--format", "json",
    )
    assert code == 0
    records = json.loads(out)
    summary = records[-1]
    assert summary["method"] == "max-deviation"
    assert summary["max_rel_deviation"] < 1e-8


def test_verify_harmonic_all_methods_two_pi():
    code, out = run_cli(
        "verify", "--preset", "duffing", "--lambda", "0", "--amplitude", "1",
        "--format", "json",
    )
    assert code == 0
    for r in json.loads(out)[:-1]:
        assert r["T"] == pytest.approx(2.0 * math.pi, abs=1e-9)


def test_verify_separatrix_exit_two():
    code, _ = run_cli("verify", "--preset", "cubic", "--lambda", "1",
                      "--energy", str(1.0 / 6.0))
    assert code == 2


def test_verify_poly_runs_without_elliptic():
    # A sextic well has no elliptic period; verify checks the other routes.
    code, out = run_cli(
        "verify", "--preset", "poly", "--coeffs", "0", "0", "0.5", "0.1", "-0.05", "0.02",
        "0.1", "--energy", "0.2", "--format", "json",
    )
    assert code == 0
    methods = [r["method"] for r in json.loads(out)]
    assert "elliptic" not in methods
    assert methods[-1] == "max-deviation"


def test_verify_degree_four_poly_checks_elliptic():
    code, out = run_cli(
        "verify", "--preset", "poly", "--coeffs", "0", "0", "0.5", "0.2", "0.1",
        "--energy", "0.2", "--format", "json",
    )
    assert code == 0
    records = json.loads(out)
    assert [r["method"] for r in records] == [
        "quadrature", "series", "elliptic", "oracle", "max-deviation"]
    assert records[-1]["max_rel_deviation"] <= 1e-12


# ---------------------------------------------------------------------------
# environment and misc
# ---------------------------------------------------------------------------

def test_env_tolerance_override(monkeypatch):
    code, out = run_cli(
        "period", "--preset", "duffing", "--lambda", "1", "--amplitude", "1",
        "--format", "json", env_tol="1e-4", monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out)["T"] == pytest.approx(4.768022029102461, rel=1e-4)


def test_env_tolerance_invalid_is_usage_error(monkeypatch):
    for raw in ("not-a-number", "2"):
        code, _ = run_cli(
            "period", "--preset", "duffing", "--lambda", "1", "--amplitude", "1",
            env_tol=raw, monkeypatch=monkeypatch,
        )
        assert code == 1


def test_no_subcommand_prints_help():
    code, out = run_cli()
    assert code == 1
    assert "period" in out and "sweep" in out


# ---------------------------------------------------------------------------
# negative numbers in exponent notation, numerical sweep points
# ---------------------------------------------------------------------------

def test_negative_lambda_in_exponent_notation():
    tail = ["--energy", "0.1", "--format", "json"]
    code, out = run_cli("period", "--preset", "duffing", "--lambda", "-1e-1", *tail)
    assert code == 0
    assert (code, out) == run_cli("period", "--preset", "duffing", "--lambda", "-0.1", *tail)


def test_negative_coefficient_in_exponent_notation():
    tail = ["0.25", "--energy", "0.1", "--format", "json"]
    code, out = run_cli("period", "--preset", "poly", "--coeffs", "0", "0", "0.5", "-6.9e-05",
                        *tail)
    assert code == 0
    assert (code, out) == run_cli("period", "--preset", "poly", "--coeffs", "0", "0", "0.5",
                                  "-0.000069", *tail)


def test_sweep_numerical_point_becomes_error_record():
    # The last grid point sits 1e-11 below the barrier, where quadrature
    # exhausts its node cap.
    code, out = run_cli(
        "sweep", "--preset", "cubic", "--lambda", "1", "--param", "energy",
        "--from", "0.1", "--to", repr(1.0 / 6.0 - 1e-11), "--steps", "3",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len([r for r in rows if r["error"] == "" and r["T"] != ""]) == 2
    assert [r["error_kind"] for r in rows if r["error"] != ""] == ["numerical"]


# ---------------------------------------------------------------------------
# one well per energy sweep, one parser per process
# ---------------------------------------------------------------------------

# The canonical quartic's barrier has a closed form, so its U' is never solved.
@pytest.mark.parametrize("preset, factory, solves", [("duffing", "duffing_potential", 0),
                                                     ("cubic", "cubic_potential", 1)])
def test_energy_sweep_builds_and_solves_the_well_once(monkeypatch, preset, factory, solves):
    import numpy as np

    import periodlab.cli as cli
    import periodlab.potential as potential

    wells, solved = [], []
    build, solve = getattr(cli, factory), potential.real_roots

    def counting_build(*args, **kwargs):
        wells.append(build(*args, **kwargs))
        return wells[-1]

    def counting_solve(coeffs, *args, **kwargs):
        solved.append(np.array(coeffs))
        return solve(coeffs, *args, **kwargs)

    monkeypatch.setattr(cli, factory, counting_build)
    monkeypatch.setattr(potential, "real_roots", counting_solve)
    code, out = run_cli("sweep", "--preset", preset, "--lambda", "-0.5", "--param", "energy",
                        "--from", "0.01", "--to", "0.3", "--steps", "50")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 50 and all(r["error"] == "" for r in rows)
    assert len(wells) == 1
    assert sum(np.array_equal(c, wells[0].slope_coeffs) for c in solved) == solves


def test_sweep_of_a_well_without_minimum_gives_one_record_per_point():
    code, out = run_cli("sweep", "--preset", "poly", "--coeffs", "0", "0", "-1",
                        "--param", "energy", "--from", "0.1", "--to", "1", "--steps", "4")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [float(r["energy"]) for r in rows] == [0.1, 0.4, 0.7, 1.0]
    assert [r["error_kind"] for r in rows] == ["domain"] * 4
    assert len({r["error"] for r in rows}) == 1 and "minimum" in rows[0]["error"]


def test_parser_is_reused_without_carrying_state():
    # verify raises N to 30 on its own arguments; the next parse starts from the defaults.
    problem = ["--preset", "duffing", "--lambda", "-0.8", "--amplitude", "1"]
    assert run_cli("verify", *problem)[0] == 0
    code, out = run_cli("period", *problem, "--method", "series", "--format", "json")
    assert code == 0
    assert json.loads(out)["N"] == 16


# ---------------------------------------------------------------------------
# Non-finite input and the reported xi
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("problem", [
    ("--preset", "duffing", "--lambda", "nan", "--energy", "0.5"),
    ("--preset", "duffing", "--lambda", "inf", "--energy", "0.5"),
    ("--preset", "cubic", "--lambda", "nan", "--energy", "0.1"),
    ("--preset", "poly", "--coeffs", "0", "0", "1", "nan", "--energy", "0.5"),
    ("--preset", "poly", "--coeffs", "0", "0", "1", "inf", "--energy", "0.5"),
    ("--preset", "duffing", "--lambda", "1", "--mass", "nan", "--energy", "0.5"),
    ("--preset", "duffing", "--lambda", "1", "--omega0", "inf", "--energy", "0.5"),
    ("--preset", "duffing", "--lambda", "1", "--energy", "inf"),
    ("--preset", "duffing", "--lambda", "1", "--energy", "nan"),
    ("--preset", "duffing", "--lambda", "1", "--amplitude", "inf"),
    ("--preset", "duffing", "--lambda", "1", "--energy", "0.5", "--frame", "fixed:nan"),
    ("--preset", "duffing", "--lambda", "1", "--energy", "0.5", "--frame", "fixed:inf"),
])
def test_non_finite_input_is_a_domain_error(problem, capsys):
    code, out = run_cli("period", *problem, "--format", "json")
    assert code == 2
    assert json.loads(out)["error_kind"] == "domain"
    assert "Traceback" not in capsys.readouterr().err


def test_negative_lambda_cubic_reports_the_frame_xi_on_every_record():
    problem = ("--preset", "cubic", "--lambda", "-1", "--energy", "0.15")
    code, out = run_cli("period", *problem, "--method", "all", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert [r["method"] for r in records] == ["quadrature", "series", "elliptic", "oracle"]
    xis = {r["xi"] for r in records}
    assert len(xis) == 1 and xis.pop() < 0.0
    code, out = run_cli("converge", *problem, "--Nmax", "4", "--format", "json")
    assert code == 0
    assert {r["xi"] for r in json.loads(out)} == {records[0]["xi"]}


# ---------------------------------------------------------------------------
# A companion matrix that overflows is a numerical error
# ---------------------------------------------------------------------------

# A subnormal leading coefficient: the first well overflows in its shells'
# eigensolve, the second already in finding the critical points of the well.
OVERFLOWING_WELLS = [("0", "0", "1e-320"), ("0", "0", "1", "0", "1e-320")]


@pytest.mark.parametrize("coeffs", OVERFLOWING_WELLS)
def test_overflowing_companion_matrix_is_a_numerical_error(coeffs, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli("period", "--preset", "poly", "--coeffs", *coeffs,
                            "--energy", "0.5", "--format", "json")
    assert code == 3
    assert json.loads(out)["error_kind"] == "numerical"
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and err.count("\n") == 1


@pytest.mark.parametrize("coeffs", OVERFLOWING_WELLS)
def test_overflowing_well_gives_one_numerical_record_per_sweep_point(coeffs, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli("sweep", "--preset", "poly", "--coeffs", *coeffs, "--param",
                            "energy", "--from", "0.1", "--to", "0.5", "--steps", "5",
                            "--format", "json")
    assert code == 0
    assert [r["error_kind"] for r in json.loads(out)] == ["numerical"] * 5
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# Non-finite sweep bounds and wells whose derivatives overflow
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("grid", [
    ("--param", "energy", "--from", "0.1", "--to", "inf"),
    ("--param", "energy", "--from", "nan", "--to", "1"),
    ("--param", "energy", "--from=-inf", "--to", "1"),
    ("--param", "rho", "--from", "0.5", "--to", "inf", "--log"),
    # finite bounds whose difference overflows
    ("--param", "energy", "--from=-1e308", "--to", "1e308"),
])
def test_non_finite_sweep_bound_is_a_usage_error(grid, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli("sweep", "--preset", "duffing", "--lambda", "1", *grid,
                            "--steps", "3")
    assert (code, out) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "finite" in err and err.count("\n") == 1


# U'' (and for the last, U') has a coefficient beyond the float range.
OVERFLOWING_DERIVATIVES = [
    ("--preset", "duffing", "--lambda", "1e308"),
    ("--preset", "cubic", "--lambda", "1e308"),
    ("--preset", "poly", "--coeffs", "0", "0", "0.5", "0", "1e308"),
]


@pytest.mark.parametrize("well", OVERFLOWING_DERIVATIVES)
def test_well_whose_derivatives_overflow_is_a_domain_error(well, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli("period", *well, "--energy", "0.5", "--format", "json")
    assert code == 2
    assert json.loads(out)["error_kind"] == "domain"
    err = capsys.readouterr().err
    assert err.startswith("domain error: ") and "finite" in err and err.count("\n") == 1


@pytest.mark.parametrize("well", OVERFLOWING_DERIVATIVES)
def test_well_whose_derivatives_overflow_gives_one_domain_record_per_sweep_point(well, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli("sweep", *well, "--param", "energy", "--from", "0.1",
                            "--to", "0.5", "--steps", "4", "--format", "json")
    assert code == 0
    assert [r["error_kind"] for r in json.loads(out)] == ["domain"] * 4
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("scaling", [("--omega0", "1e200"), ("--omega0", "1e-300"),
                                     ("--mass", "1e-320")])
def test_scaling_out_of_the_float_range_is_a_domain_error(scaling, capsys):
    well = ("--preset", "poly", "--coeffs", "0", "0", "0.5", *scaling)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli("period", *well, "--energy", "1", "--format", "json")
        assert code == 2
        record = json.loads(out)
        assert record["error_kind"] == "domain" and "scaling" in record["error"]
        assert capsys.readouterr().err == f"domain error: {record['error']}\n"
        code, out = run_cli("sweep", *well, "--param", "energy", "--from", "0.5", "--to", "1",
                            "--steps", "3", "--format", "json")
    assert code == 0
    assert [(r["error"], r["error_kind"]) for r in json.loads(out)] == \
        [(record["error"], "domain")] * 3
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("preset, grid", [
    ("cubic", ("--lambda", "1", "--param", "energy", "--from", "0.1", "--to", "0.2")),
    ("duffing", ("--param", "rho", "--from", "0.1", "--to", "0.2")),
])
def test_sweep_with_zero_omega0_gives_the_period_error_in_every_slot(preset, grid, capsys):
    # No slot has a shell, so no method runs, the quadrature's 1/omega0 included.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli("period", "--preset", preset, "--lambda", "1", "--omega0", "0",
                            "--energy", "0.1", "--format", "json")
        assert code == 2
        record = json.loads(out)
        assert record["error"] == "omega0 must be positive, got 0.0"
        assert capsys.readouterr().err == f"domain error: {record['error']}\n"
        code, out = run_cli("sweep", "--preset", preset, "--omega0", "0", *grid, "--steps", "3",
                            "--format", "json")
    assert code == 0
    assert [(r["error"], r["error_kind"], r["T"]) for r in json.loads(out)] == \
        [(record["error"], "domain", None)] * 3
    assert capsys.readouterr().err == ""


def test_amplitude_whose_energy_overflows_is_one_domain_error(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli("period", "--preset", "duffing", "--lambda", "0.25",
                            "--amplitude", "1e100", "--format", "json")
    assert code == 2
    assert json.loads(out)["error"] == "energy must be finite, got inf"
    assert capsys.readouterr().err == "domain error: energy must be finite, got inf\n"


@pytest.mark.parametrize("argv", [
    ("period", "--preset", "duffing", "--lambda", "0", "--energy", "1e308"),
    ("period", "--preset", "duffing", "--lambda", "1e-320", "--energy", "1e308"),
    ("sweep", "--preset", "poly", "--coeffs", "0", "0", "0.5", "--param", "energy",
     "--from", "1", "--to", "1e308", "--steps", "3"),
])
def test_quartic_shell_whose_amplitude_squared_overflows_has_a_period(argv, capsys):
    # Past A = sqrt(max float) ~ 1.34e154, A^2 overflows but rho = lam A^2 does not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(*argv, "--format", "json")
    assert code == 0 and capsys.readouterr().err == ""
    records = json.loads(out)
    for r in records if isinstance(records, list) else [records]:
        assert r["error"] is None and 0.0 <= r["rho"] < 1e-11
        assert r["T"] == pytest.approx(2.0 * math.pi, rel=1e-15 if r["rho"] == 0.0 else 1e-11)


def test_critical_point_that_the_polish_overflows_is_dropped_without_a_warning():
    # Newton sends the far critical point of this quartic, whose leading
    # coefficient is 9e-204, to inf; evaluating U'' there would warn, and
    # under PYTHONWARNINGS=error end the run.
    argv = ["period", "--preset", "poly", "--coeffs", "0", "0", "0.2983580513257455",
            "-0.1151646968818325", "9.046116866145732e-204", "--energy", "0.1",
            "--format", "json"]
    env = dict(os.environ, PYTHONWARNINGS="error")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from periodlab.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["T"] == 8.6046278715021263


@pytest.mark.parametrize("coeffs, energy, kind, message", [
    # U' = 1e300 + 2e-12 x has its one root near -5e311, out of the float range.
    (["0", "1e300", "1e-12"], "1", "domain",
     "no local minimum with positive curvature; critical points: []"),
    # U'' overflows at the far critical point, near 7.5e299.
    (["0", "0", "0.5", "1e300", "-1"], "0.1", "numerical",
     "no turning points bracket the minimum at energy 0.1; real roots found: [0.0, 0.0, 0.0]"),
])
def test_well_at_the_edge_of_the_float_range_gives_its_record_without_a_warning(
        coeffs, energy, kind, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli("period", "--preset", "poly", "--coeffs", *coeffs,
                            "--energy", energy, "--format", "json")
    assert (code, json.loads(out)) == ({"domain": 2, "numerical": 3}[kind], {
        "command": "error", "error": message, "error_kind": kind})
    assert capsys.readouterr().err == f"{kind} error: {message}\n"


@pytest.mark.parametrize("coeffs, energy, kind, message", [
    # U at the minimum overflows, so the shift leaves a constant that is not finite.
    (["0", "0", "-1.6167813222507048", "1e-300"], "1.954015849347992", "domain",
     "potential coefficients must be finite, got [inf, 0.0, -1.6167813222507048, 1e-300]"),
    # R overflows at a candidate extremum of a shell whose deflation fails.
    (["0", "0", "3.3529151871171885e-140", "6.488747709602148e+281", "5e-324",
      "-0.06781932533612922"], "0.03427679073579659", "numerical",
     "turning-point deflation left remainders (-3.2079677338380684e+143, 0.0) above 1e-10"),
])
def test_verify_of_a_well_whose_polynomials_overflow_gives_its_record_without_a_warning(
        coeffs, energy, kind, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli("verify", "--preset", "poly", "--coeffs", *coeffs,
                            "--energy", energy, "--format", "json")
    assert (code, json.loads(out)) == ({"domain": 2, "numerical": 3}[kind], {
        "command": "error", "error": message, "error_kind": kind})
    assert capsys.readouterr().err == f"{kind} error: {message}\n"


def test_importing_the_cli_loads_no_numpy_polynomial_module():
    # numpy 1.x imports numpy.polynomial itself; only what periodlab adds counts.
    script = ("import sys, numpy\n"
              "def loaded(): return {m for m in sys.modules if m.startswith('numpy.polynomial')}\n"
              "before = loaded()\n"
              "import periodlab.cli\n"
              "print(sorted(loaded() - before))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# ---------------------------------------------------------------------------
# Cubic wells other than x^2/2 + c3 x^3 take the generic series
# ---------------------------------------------------------------------------

NON_CANONICAL_CUBICS = [
    ("--coeffs", "0", "0", "2", "0.3"),
    ("--coeffs", "0", "0", "0.5", "0.1", "--mass", "2"),
    ("--coeffs", "0", "0.1", "0.5", "0.3"),
]


@pytest.mark.parametrize("well", NON_CANONICAL_CUBICS)
def test_series_of_a_non_canonical_cubic_is_the_elliptic_period(well):
    problem = ("--preset", "poly", *well, "--energy", "0.05", "--format", "json")
    code, out = run_cli("period", *problem, "--method", "series", "--N", "30")
    assert code == 0
    series = json.loads(out)
    code, out = run_cli("period", *problem, "--method", "elliptic")
    assert code == 0
    elliptic = json.loads(out)["T"]
    assert series["xi"] is None and series["regime"] == "convergent"
    assert abs(series["T"] - elliptic) <= 1e-12 * elliptic


@pytest.mark.parametrize("argv", [
    ("verify", "--preset", "poly", "--coeffs", "0", "0", "-1", "1",
     "--energy", "0.01261747788900447"),
    ("converge", "--preset", "poly", "--coeffs", "0", "0", "-1", "0.5", "--energy", "0.5",
     "--Nmax", "8"),
])
def test_verify_and_converge_on_a_non_canonical_cubic_give_their_records(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(*argv, "--format", "json")
    assert (code, capsys.readouterr().err) == (0, "")
    records = json.loads(out)
    assert all(r["xi"] is None and r["regime"] in (None, "convergent") for r in records)
    if argv[0] == "verify":
        assert records[-1]["max_rel_deviation"] <= 1e-12


# ---------------------------------------------------------------------------
# Message text does not depend on numpy's scalar repr; sqrt_rho_T follows rho
# ---------------------------------------------------------------------------

def test_no_minimum_message_lists_plain_floats(capsys):
    code, out = run_cli("period", "--preset", "poly", "--coeffs", "0", "0", "-1",
                        "--energy", "0.5", "--format", "json")
    assert code == 2
    assert json.loads(out)["error"].endswith("critical points: [0.0]")
    assert capsys.readouterr().err.endswith("critical points: [0.0]\n")


def test_poly_canonical_quartic_sweep_reports_sqrt_rho_T():
    grid = ("--param", "energy", "--from", "0.1", "--to", "0.5", "--steps", "3",
            "--format", "json")
    _, poly = run_cli("sweep", "--preset", "poly", "--coeffs", "0", "0", "0.5", "0", "0.25",
                      *grid)
    _, duffing = run_cli("sweep", "--preset", "duffing", "--lambda", "1", *grid)
    poly, duffing = json.loads(poly), json.loads(duffing)
    assert all(r["sqrt_rho_T"] == math.sqrt(r["rho"]) * r["T"] for r in poly)
    assert [r["sqrt_rho_T"] for r in poly] == [r["sqrt_rho_T"] for r in duffing]


# ---------------------------------------------------------------------------
# Each sweep point's lambda, series that overflow, and the remaining guards
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("grid, lambdas, kinds", [
    (("--param", "rho", "--from", "0.5", "--to", "2", "--steps", "3"),
     [0.5, 1.25, 2.0], [None, None, None]),
    # U'' of the second point's well overflows, so that well cannot be built.
    (("--param", "rho", "--from", "1", "--to", "1e308", "--steps", "2", "--log"),
     [1.0, 1e308], [None, "domain"]),
    (("--param", "energy", "--from", "0.5", "--to", "2", "--steps", "3"),
     [3.0, 3.0, 3.0], [None, None, None]),
])
def test_sweep_records_report_the_lambda_of_their_point(grid, lambdas, kinds):
    code, out = run_cli("sweep", "--preset", "duffing", "--lambda", "3", *grid,
                        "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert [r["lambda"] for r in records] == lambdas
    assert [r["error_kind"] for r in records] == kinds


def test_overflowing_series_is_a_numerical_error_without_warnings(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli("sweep", "--preset", "duffing", "--param", "rho",
                            "--from", "-1e300", "--to", "1e300", "--steps", "5",
                            "--frame", "fixed:1.1", "--method", "series", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert [r["error_kind"] for r in records] == ["domain", "domain", None, "numerical",
                                                  "numerical"]
    assert all("not finite" in r["error"] for r in records[3:])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, code, message", [
    (("period", "--preset", "duffing", "--lambda", "1", "--energy", "1e-31"), 2,
     "domain error: energy 1e-31 below the supported floor"),
    (("sweep", "--preset", "duffing", "--lambda", "1", "--param", "energy",
      "--from", "0.1", "--to", "1", "--steps", "3", "--method", "all"), 1,
     "usage error: argument --method: invalid choice: 'all'"),
])
def test_rejected_input_exits_with_its_code_and_one_message(argv, code, message, capsys):
    assert run_cli(*argv)[0] == code
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


# ---------------------------------------------------------------------------
# Rho points in closed form, and failed methods as their own records
# ---------------------------------------------------------------------------

def test_rho_sweep_point_whose_amplitude_passes_the_barrier_is_a_separatrix(capsys):
    # Amplitude 1 lies beyond the barrier at 1/sqrt(-rho) for rho < -1; the
    # shell at E = U(1) would be an inner one, of rho' = -2 - rho.
    code, out = run_cli("sweep", "--preset", "duffing", "--param", "rho", "--from", "-2.2",
                        "--to", "-0.9", "--steps", "7", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert [r["error_kind"] for r in records] == ["domain"] + ["separatrix"] * 5 + [None]
    assert records[0]["error"] == "energy must be positive, got -0.050000000000000044"
    for r in records[1:6]:
        assert r["T"] is None and -2.0 < r["rho"] == r["lambda"] < -1.0
        argv = ["period", "--preset", "duffing", "--lambda", repr(r["rho"]), "--amplitude", "1"]
        assert run_cli(*argv)[0] == 2
        assert capsys.readouterr().err == f"separatrix error: {r['error']}\n"
    _, period = run_cli("period", "--preset", "duffing", "--lambda", repr(records[6]["lambda"]),
                        "--amplitude", "1", "--format", "json")
    assert records[6]["T"] == json.loads(period)["T"]


def test_tiny_rho_has_the_harmonic_period():
    code, out = run_cli("sweep", "--preset", "duffing", "--param", "rho", "--from", "1e-120",
                        "--to", "1e-24", "--steps", "25", "--log", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 25
    assert all(r["T"] == pytest.approx(2.0 * math.pi, rel=1e-15) for r in records)
    code, out = run_cli("period", "--preset", "duffing", "--lambda", "1e-60", "--amplitude", "1",
                        "--format", "json")
    assert code == 0 and json.loads(out)["T"] == pytest.approx(2.0 * math.pi, rel=1e-15)


# The oracle is unreliable next to the barrier, where the other methods are not.
NEAR_BARRIER = ("--preset", "duffing", "--lambda", "-0.9999", "--amplitude", "1",
                "--format", "json")
ORACLE_MESSAGE = ("oracle integration unreliable "
                  "(energy drift, error bound or period cap exceeded)")


def test_failed_method_is_its_own_record(capsys):
    code, out = run_cli("period", *NEAR_BARRIER, "--method", "all")
    assert code == 3
    records = json.loads(out)
    assert [r["method"] for r in records] == ["quadrature", "series", "elliptic", "oracle"]
    assert [r["error_kind"] for r in records] == [None, None, None, "numerical"]
    assert records[3]["error"] == ORACLE_MESSAGE and records[3]["T"] is None
    assert records[0]["T"] == pytest.approx(records[2]["T"], rel=1e-13)
    assert all(r["rho"] == records[0]["rho"] for r in records)
    assert capsys.readouterr().err == f"numerical error: oracle: {ORACLE_MESSAGE}\n"


def test_verify_deviation_covers_the_methods_that_succeeded():
    code, out = run_cli("verify", *NEAR_BARRIER)
    assert code == 3
    *records, deviation = json.loads(out)
    assert [r["error_kind"] for r in records] == [None, None, None, "numerical"]
    periods = [r["T"] for r in records[:3]]
    assert deviation["method"] == "max-deviation"
    assert deviation["max_rel_deviation"] == max(
        abs(a - b) / max(abs(a), abs(b)) for a in periods for b in periods)


def test_well_matching_the_quartic_only_within_rounding_is_solved_as_it_is():
    # 0.6 x^2 + 1e12 x^4 is not the canonical quartic, though its 0.1 off c2
    # is small beside 1e12: its shell comes from its own coefficients.
    code, out = run_cli("period", "--preset", "poly", "--coeffs", "0", "0", "0.6", "0", "1e12",
                        "--energy", "1e-15", "--method", "quadrature", "--format", "json")
    assert code == 0
    c2, c4, energy = mp.mpf(0.6), mp.mpf(1e12), mp.mpf(1e-15)
    with mp.workdps(40):
        a2 = (mp.sqrt(c2 ** 2 + 4 * c4 * energy) - c2) / (2 * c4)
        # E - U = (A^2 - x^2)(c2 + c4 (A^2 + x^2)); x = A sin(phi)
        ref = 4 * mp.quad(lambda phi: 1 / mp.sqrt(2 * (c2 + c4 * a2 * (1 + mp.sin(phi) ** 2))),
                          [0, mp.pi / 2])
        assert abs(json.loads(out)["T"] - ref) <= 1e-13 * ref


# Wells close to the canonical quartic relative to their largest coefficient;
# the second is asymmetric, with an odd coefficient small beside 1e12.
NEAR_QUARTIC_WELLS = [("0", "0", "0.6", "0", "1e12"), ("0", "0", "0.6", "0.9", "1e12")]


@pytest.mark.parametrize("coeffs", NEAR_QUARTIC_WELLS)
def test_wells_near_the_quartic_are_generic_and_every_route_agrees(coeffs):
    problem = ("--preset", "poly", "--coeffs", *coeffs, "--energy", "1e-15", "--format", "json")
    code, out = run_cli("period", *problem, "--method", "all")
    assert code == 0
    records = json.loads(out)
    assert [r["method"] for r in records] == ["quadrature", "series", "elliptic", "oracle"]
    quadrature = records[0]["T"]
    assert records[1]["T"] == pytest.approx(quadrature, rel=1e-12)
    assert records[2]["T"] == pytest.approx(quadrature, rel=1e-14)
    assert abs(records[3]["T"] - quadrature) <= records[3]["err_estimate"] * quadrature
    assert all(r["rho"] is None and r["xi"] is None for r in records)
    symmetric = coeffs[3] == "0"
    assert (records[0]["x_minus"] == -records[0]["x_plus"]) is symmetric
    assert run_cli("verify", *problem)[0] == 0


def _mp_period(coeffs, energy, x_minus, x_plus):
    """The period of the well ``coeffs`` at ``energy`` to 40 digits: the
    turning points refined from ``x_minus`` and ``x_plus`` by ``findroot``,
    then ``sqrt(2) int_0^pi dtheta / sqrt(R)`` over the deflated residual."""
    with mp.workdps(40):
        c = [mp.mpf(float(a)) for a in coeffs]
        q = [-a for a in c[:0:-1]] + [mp.mpf(float(energy)) - c[0]]  # E - U, highest first
        lo, hi = (mp.findroot(lambda x: mp.polyval(q, x), mp.mpf(x)) for x in (x_minus, x_plus))
        for root in (hi, lo):
            acc, quot = mp.mpf(0), []
            for a in q[:-1]:
                acc = acc * root + a
                quot.append(acc)
            q = quot
        mid, half = (hi + lo) / 2, (hi - lo) / 2
        return mp.sqrt(2) * mp.quad(lambda t: 1 / mp.sqrt(-mp.polyval(q, mid + half * mp.cos(t))),
                                    [0, mp.pi / 2, mp.pi])


@pytest.mark.parametrize("problem", [
    ("--preset", "poly", "--coeffs", "0", "0", "0.5", "0.001", "1e-200", "--energy", "0.1"),
    ("--preset", "poly", "--coeffs", "0", "0", "0.5", "0", "0", "0", "1e-100", "--energy", "0.1"),
    ("--preset", "poly", "--coeffs", "0", "0", "1", "0", "0", "0", "1e-90", "--energy", "0.1"),
    ("--preset", "cubic", "--lambda", "1e-24", "--energy", "0.25"),
    ("--preset", "cubic", "--lambda", "1e-200", "--energy", "0.25"),
])
def test_wells_with_a_tiny_leading_coefficient_have_their_shells(problem):
    # The companion matrix of E - U loses the small roots (or overflows) when
    # the leading coefficient is far below c2; Newton from the harmonic
    # turning points finds them.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli("period", *problem, "--format", "json")
    assert code == 0
    record = json.loads(out)
    exact = _mp_period(record["coeffs"], record["energy"], record["x_minus"], record["x_plus"])
    assert abs(record["T"] - exact) <= 1e-14 * exact


@pytest.mark.parametrize("coeffs, energy", [
    # E - U overflows its companion matrix, and so do the harmonic turning points.
    (("0", "0", "1e-320"), "0.1"),
    # The harmonic retry finds turning points that the companion solve
    # missed, but R' of their residual overflows its companion matrix; at
    # 1e10 that happens to a shell the companion solve found.
    (("0", "0", "0.5", "-0.2", "-0.2", "-0.2", "-0.2", "-0.2", "1.309353327353564e-291"), "0.1"),
    (("0", "0", "0.5", "-0.2", "-0.2", "-0.2", "-0.2", "-0.2", "1.309353327353564e-291"), "1e10"),
])
def test_shell_solve_that_misses_the_turning_points_is_a_numerical_error(coeffs, energy):
    # An energy inside the band has turning points; a solve that does not find
    # them has failed.  Under -W error a warning would end the run instead.
    argv = ["period", "--preset", "poly", "--coeffs", *coeffs, "--energy", energy,
            "--format", "json"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         "import sys; from periodlab.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error_kind"] == "numerical"
    assert proc.stderr.startswith("numerical error: ")
    assert proc.stderr.count("\n") == 1
