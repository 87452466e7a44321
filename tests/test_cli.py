"""CLI: subcommands, formats, round-trips, exit codes."""

import csv
import io
import json
import math
import warnings

import pytest

from periodlab.cli import CONVERGE_FIELDS, RECORD_FIELDS, main


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
    code, _ = run_cli("period", "--preset", "poly", "--coeffs", "0", "0", "0.5",
                      "0.1", "0.05", "--energy", "0.1", "--method", "elliptic")
    assert code == 1


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
    from periodlab.cli import _json_record

    assert _json_record(record, RECORD_FIELDS) == out.strip()


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
    code, out = run_cli(
        "verify", "--preset", "poly", "--coeffs", "0", "0", "0.5", "0.2", "0.1",
        "--energy", "0.2", "--format", "json",
    )
    assert code == 0
    methods = [r["method"] for r in json.loads(out)]
    assert "elliptic" not in methods
    assert methods[-1] == "max-deviation"


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

@pytest.mark.parametrize("preset, factory", [("duffing", "duffing_potential"),
                                             ("cubic", "cubic_potential")])
def test_energy_sweep_builds_and_solves_the_well_once(monkeypatch, preset, factory):
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
    assert sum(np.array_equal(c, wells[0].slope_coeffs) for c in solved) == 1


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
