"""The CLI golden set: recorded calls give the same exit code, text and numbers.

``data/golden_cli.json`` holds about forty ``json``/``csv`` calls of every
subcommand, with their exit code, stdout and stderr.  A call matches when its
exit code and all non-numeric text are equal and every number is within
``ULPS`` units in the last place of the recorded one.  The slack is for numpy
builds whose LAPACK rounds the last bit of an eigenvalue differently; on the
build the set was recorded with, the output is byte-identical.

Three fields are differences of two nearby results and carry those results'
rounding, not their own: ``err_estimate`` and ``abs_dev_quadrature`` match
within ``ULPS`` ulp of the period they are measured against, and
``max_rel_deviation`` within ``ULPS`` ulp of 1.

``data/golden_sweeps.json`` holds sweeps that pin the column-wise sweep
output: ``table`` energy and rho sweeps, grids with error rows between
results, and sweeps in every frame.  It is compared the same way; a
``table`` output, which does not re-parse, is compared as one text.

``data/golden_points.json`` holds single-point calls that neither set
pins: ``converge`` tables with their ``# regime`` header, ``--omega0`` and
``--mass`` on ``period --method all`` and ``converge``, a failing oracle, a
frame error under ``verify``, and the generic series' ``--show-terms``.

``record_golden.py`` re-records the cases whose argv matches a pattern, and
``--add`` records new ones.
"""

import csv
import io
import json
import math
import re

import pytest

from tests.record_golden import GOLDEN_PATH, POINTS_PATH, SWEEPS_PATH, add, record, run_case

ULPS = 8
GOLDEN = json.loads(GOLDEN_PATH.read_text())
SWEEPS = json.loads(SWEEPS_PATH.read_text())
POINTS = json.loads(POINTS_PATH.read_text())
# field -> the field whose ulp sets its tolerance (None: the ulp of 1)
DIFFERENCE_OF = {"err_estimate": "T", "abs_dev_quadrature": "T_N", "max_rel_deviation": None}
_NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?(?![\w.])")


def _close(got: float, want: float, scale: float | None = None) -> bool:
    tol = ULPS * math.ulp(abs(want) if scale is None else abs(scale))
    return got == want or abs(got - want) <= tol


def _same_text(got: str, want: str, scale: float | None = None) -> bool:
    """Equal text outside the numbers, and numbers within the tolerance."""
    if got == want:
        return True
    got_nums, want_nums = _NUMBER.findall(got), _NUMBER.findall(want)
    return (_NUMBER.split(got) == _NUMBER.split(want)
            and len(got_nums) == len(want_nums)
            and all(_close(float(g), float(w), scale) for g, w in zip(got_nums, want_nums)))


def _same_value(got, want, scale=None) -> bool:
    if isinstance(want, str):
        return isinstance(got, str) and _same_text(got, want, scale)
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same_value(g, w, scale) for g, w in zip(got, want)))
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        return (isinstance(got, (int, float)) and not isinstance(got, bool)
                and _close(float(got), float(want), scale))
    return got == want


def _scale(field: str, want: dict):
    if field not in DIFFERENCE_OF:
        return None
    ref = want.get(DIFFERENCE_OF[field]) if DIFFERENCE_OF[field] else 1.0
    return float(ref) if ref not in (None, "") else 1.0


def _records(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        parsed = json.loads(text)
        return parsed if isinstance(parsed, list) else [parsed]
    header, *rows = csv.reader(io.StringIO(text))
    return [dict(zip(header, row)) for row in rows]


def _same_stdout(got: str, want: str, fmt: str) -> bool:
    if got == want or not want:
        return got == want
    got_records, want_records = _records(got, fmt), _records(want, fmt)
    return len(got_records) == len(want_records) and all(
        list(g) == list(w) and all(_same_value(g[k], w[k], _scale(k, w)) for k in w)
        for g, w in zip(got_records, want_records))


def _format(argv: list[str]) -> str:
    if "--format" in argv:
        return argv[argv.index("--format") + 1]
    return "csv" if argv[0] == "sweep" else "table"


def test_golden_set_covers_every_subcommand_and_exit_code():
    assert len(GOLDEN) >= 40
    assert {case["argv"][0] for case in GOLDEN} == {"period", "sweep", "converge", "verify"}
    assert {case["code"] for case in GOLDEN} == {0, 1, 2, 3}
    assert {_format(case["argv"]) for case in GOLDEN} == {"json", "csv"}


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_cli_output_matches_the_golden_set(case):
    got = run_case(case["argv"])
    assert got["code"] == case["code"]
    assert _same_text(got["stderr"], case["stderr"])
    assert _same_stdout(got["stdout"], case["stdout"], _format(case["argv"]))


@pytest.mark.parametrize("case", SWEEPS, ids=[" ".join(c["argv"]) for c in SWEEPS])
def test_sweep_output_matches_the_golden_sweeps(case):
    got = run_case(case["argv"])
    assert got["code"] == case["code"]
    assert _same_text(got["stderr"], case["stderr"])
    fmt = _format(case["argv"])
    if fmt == "table":
        assert _same_text(got["stdout"], case["stdout"])
    else:
        assert _same_stdout(got["stdout"], case["stdout"], fmt)


@pytest.mark.parametrize("case", POINTS, ids=[" ".join(c["argv"]) for c in POINTS])
def test_point_output_matches_the_golden_points(case):
    got = run_case(case["argv"])
    assert got["code"] == case["code"]
    assert _same_text(got["stderr"], case["stderr"])
    fmt = _format(case["argv"])
    if fmt == "table":
        assert _same_text(got["stdout"], case["stdout"])
    else:
        assert _same_stdout(got["stdout"], case["stdout"], fmt)


def test_golden_sweeps_cover_every_format_and_error_kind():
    assert {_format(case["argv"]) for case in SWEEPS} == {"json", "csv", "table"}
    kinds = {kind for case in SWEEPS for kind in ("separatrix", "domain", "numerical")
             if kind in case["stdout"]}
    assert kinds == {"separatrix", "domain", "numerical"}


def test_re_recording_an_oracle_free_case_keeps_every_byte(tmp_path):
    # A usage error prints no computed number, so its bytes do not depend on
    # the numpy build.
    copy = tmp_path / "golden_cli.json"
    copy.write_bytes(GOLDEN_PATH.read_bytes())
    assert record([r"--frame bogus"], copy) == [
        ["period", "--preset", "duffing", "--lambda", "1", "--energy", "0.5",
         "--frame", "bogus", "--format", "json"]]
    assert copy.read_bytes() == GOLDEN_PATH.read_bytes()


def test_adding_a_case_appends_it_and_adding_it_again_keeps_every_byte(tmp_path):
    path = tmp_path / "golden.json"
    argv = ["period", "--preset", "duffing", "--lambda", "1", "--energy", "0.5",
            "--frame", "bogus", "--format", "json"]
    assert add([argv], path) == [argv]
    first = path.read_bytes()
    assert [case["argv"] for case in json.loads(first)] == [argv]
    add([argv], path)
    assert path.read_bytes() == first


def test_the_comparison_allows_a_few_ulps_and_nothing_else():
    t = 6.2831853071795862
    nudged = t + 3 * math.ulp(t)
    assert _same_text(f"T = {t!r}", f"T = {nudged!r}")
    assert not _same_text(f"T = {t!r}", f"T = {t + 20 * math.ulp(t)!r}")
    assert not _same_text("exit 2", "exit 3")
    assert not _same_text("omega0 1", "omega1 1")
    record = {"T": t, "err_estimate": 1e-16}
    assert _same_stdout(json.dumps({"T": nudged, "err_estimate": 3e-16}), json.dumps(record), "json")
    assert not _same_stdout(json.dumps({"T": t, "err_estimate": 1e-13}), json.dumps(record), "json")
