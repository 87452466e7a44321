"""Command-line front end: problem presets, method selection, sweeps, verification.

Subcommands: ``period``, ``sweep``, ``converge``, ``verify``.  Output formats
are ``table`` (default, human), ``json`` (one object per record, arrays for
multi-record output) and ``csv`` (RFC-4180 quoting, fixed column order).
Every float is serialized with 17 significant digits so records re-parse
bit-exactly.  Exit codes: 0 success, 1 usage, 2 domain (separatrix/energy),
3 numerical non-convergence.  The environment variable ``PERIODLAB_TOL``
overrides the default 1e-13 quadrature tolerance.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import re
import sys

import numpy as np

from ._poly import as_coeffs
from .errors import ConvergenceError, DomainError, PeriodLabError, SeparatrixError
from .frame import balanced_frame, fixed_frame, nayfeh_frame
from .oracle import measure_period
from .period import (
    best_series,
    cubic_elliptic,
    duffing_elliptic,
    period_from_series,
    period_quadrature,
    period_quadratures,
)
from .potential import (
    SEPARATRIX_RTOL,
    _derivatives,
    _require_positive,
    barrier_info,
    cubic_potential,
    duffing_potential,
    from_physical,
    quartic_barrier,
    quartic_shells,
    shells,
    turning_points,
)

RECORD_FIELDS = [
    "command", "preset", "lambda", "coeffs", "mass", "omega0",
    "energy", "amplitude", "rho", "frame", "omega_ref", "xi",
    "method", "N", "x_minus", "x_plus",
    "T", "Omega", "err_estimate", "regime",
    "sqrt_rho_T", "max_rel_deviation", "partial_sums",
    "error", "error_kind",
]

CONVERGE_FIELDS = [
    "command", "preset", "lambda", "energy", "amplitude", "rho",
    "frame", "omega_ref", "xi", "regime",
    "N", "I_N", "T_N", "abs_dev_quadrature",
]

VERIFY_DEVIATION_LIMIT = 1e-6
_SQRT2 = math.sqrt(2.0)


class UsageError(Exception):
    pass


# Error class -> (error_kind, exit status) for the errors reported as records;
# the first match wins, so a subclass comes before its base.
_ERROR_KINDS = {
    SeparatrixError: ("separatrix", 2),
    DomainError: ("domain", 2),
    ConvergenceError: ("numerical", 3),
}


def _error_kind(exc: PeriodLabError) -> tuple[str, int]:
    return next(entry for cls, entry in _ERROR_KINDS.items() if isinstance(exc, cls))


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse only takes "-1" and "-.5" style strings for negative numbers
        # and reads "-1e-1" as an option; accept the exponent form too.
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):  # argparse default exits with status 2
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Serialization (17 significant digits everywhere)
# ---------------------------------------------------------------------------

_FLOAT_SPECS = {17: ".17g", 12: ".12g"}


def _text(v, digits: int = 17) -> str:
    """One scalar as text: floats with ``digits`` significant digits, bools as
    ``true``/``false``, integers and strings as they are."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.{digits}g}"
    return str(v)


def _json_value(v) -> str:
    if type(v) is float:  # most values; the text the checks below would give
        return format(v, ".17g") if math.isfinite(v) else "null"
    if v is None or (isinstance(v, (float, np.floating)) and not math.isfinite(v)):
        return "null"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(e) for e in v) + "]"
    if isinstance(v, (int, float, np.integer, np.floating)):
        return _text(v)
    raise TypeError(f"cannot serialize {type(v)}")


@functools.cache
def _json_key(k: str) -> str:
    return json.dumps(k)


def _json_record(record: dict, fields) -> str:
    parts = [f"{_json_key(k)}: {_json_value(record.get(k))}" for k in fields]
    return "{" + ", ".join(parts) + "}"


def _cell(v, digits: int) -> str:
    """A csv (17 digits) or table (12 digits) cell; lists are joined by ``;``."""
    kind = type(v)
    if kind is float:  # most cells; the text _text would give
        return format(v, _FLOAT_SPECS[digits])
    if kind is str:
        return v
    if v is None:
        return ""
    if isinstance(v, (list, tuple)):
        return ";".join([_cell(e, digits) for e in v])
    return _text(v, digits)


def emit(records: list[dict], fields, fmt: str, out) -> None:
    if fmt == "json":
        bodies = [_json_record(r, fields) for r in records]
        if len(bodies) == 1:
            out.write(bodies[0] + "\n")
        else:
            out.write("[\n  " + ",\n  ".join(bodies) + "\n]\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(fields)
        for r in records:
            writer.writerow([_cell(r.get(k), 17) for k in fields])
    else:
        _emit_table(records, fields, out)


def _emit_table(records: list[dict], fields, out) -> None:
    shown = [k for k in fields if any(r.get(k) is not None for r in records)]
    rows = [[_cell(r.get(k), 12) for k in shown] for r in records]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(shown)]
    out.write("  ".join(h.ljust(w) for h, w in zip(shown, widths)).rstrip() + "\n")
    for row in rows:
        out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")


# ---------------------------------------------------------------------------
# Problem construction
# ---------------------------------------------------------------------------

def _parse_frame(text: str):
    """The frame builder that ``text`` names: a function of the shell."""
    if text == "balanced":
        return balanced_frame
    if text == "nayfeh":
        return nayfeh_frame
    if text.startswith("fixed:"):
        try:
            omega = float(text.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"cannot parse frame {text!r}; expected fixed:<omega>")
        return functools.partial(fixed_frame, omega=omega)
    raise UsageError(f"unknown frame {text!r}; expected balanced, nayfeh or fixed:<omega>")


def _build_potential(args):
    if args.preset == "duffing":
        if args.lam is None:
            raise UsageError("duffing preset requires --lambda")
        return duffing_potential(args.lam, args.mass, args.omega0)
    if args.preset == "cubic":
        if args.lam is None:
            raise UsageError("cubic preset requires --lambda")
        return cubic_potential(args.lam, args.mass, args.omega0)
    if args.coeffs is None:
        raise UsageError("poly preset requires --coeffs")
    return from_physical(args.coeffs, args.mass, args.omega0)


def _resolve_energy(args, U) -> float:
    given_energy = args.energy is not None
    given_amplitude = args.amplitude is not None
    if given_energy == given_amplitude:
        raise UsageError("provide exactly one of --energy or --amplitude")
    if given_energy:
        return float(args.energy)
    if not U.is_symmetric:
        raise UsageError("--amplitude is only valid for parity-symmetric presets")
    a = float(args.amplitude)
    if a <= 0.0:
        raise UsageError(f"amplitude must be positive, got {a}")
    _check_amplitude(a, barrier_info(U))
    return float(U(a))


def _check_amplitude(a: float, barrier) -> None:
    limit = barrier.amplitude_limit  # set only beside a barrier
    if limit is not None and a >= limit * (1.0 - SEPARATRIX_RTOL):
        raise SeparatrixError(f"amplitude {a} at or beyond the limit {limit}")


def _problem(args):
    """The potential, energy, shell and frame that ``args`` describe."""
    U = _build_potential(args)
    energy = _resolve_energy(args, U)
    shell = turning_points(U, energy)
    return U, energy, shell, _parse_frame(args.frame)(shell)


def _optional_float(v):
    return None if v is None else float(v)


def _blank_record(command: str) -> dict:
    record = dict.fromkeys(RECORD_FIELDS)
    record["command"] = command
    return record


def _base_record(command: str, args, coeffs, energy, shell, frame) -> dict:
    record = _blank_record(command)
    record.update(
        preset=args.preset,
        coeffs=coeffs.tolist(),
        mass=float(args.mass),
        omega0=float(args.omega0),
        energy=float(energy),
        frame=args.frame,
    )
    record["lambda"] = _optional_float(args.lam)
    record.update(
        x_minus=float(shell.x_minus),
        x_plus=float(shell.x_plus),
        amplitude=_optional_float(shell.amplitude),
        rho=_optional_float(shell.rho),
        omega_ref=float(frame.omega),
        xi=_optional_float(frame.xi),
    )
    return record


def _elliptic_result(shell, omega0: float):
    if shell.family == "quartic":
        return duffing_elliptic(shell.rho, omega0)
    if shell.family == "cubic":
        return cubic_elliptic(shell, omega0)
    raise UsageError("elliptic closed form requires the duffing or cubic preset")


def _apply_method(record: dict, method: str, U, shell, frame, args, tol) -> dict:
    """Complete ``record`` by ``method``; only the oracle reads the well ``U``."""
    record["method"] = method
    if method == "quadrature":
        res = period_quadrature(frame, args.omega0, tol)
    elif method == "series":
        series = best_series(shell, frame, args.N)
        res = period_from_series(series, args.omega0)
        record["regime"] = series.regime
        record["N"] = len(series.partial_sums) - 1
        if getattr(args, "show_terms", False):
            scale = _SQRT2 / args.omega0
            record["partial_sums"] = [scale * s for s in series.partial_sums]
    elif method == "elliptic":
        res = _elliptic_result(shell, args.omega0)
    elif method == "oracle":
        report = measure_period(U, shell)
        if not report.reliable:
            raise ConvergenceError(
                "oracle integration unreliable (energy drift, error bound or period cap exceeded)"
            )
        record["T"] = report.period
        record["Omega"] = 2.0 * math.pi / report.period
        record["err_estimate"] = report.err_estimate
        return record
    else:
        raise UsageError(f"unknown method {method!r}")
    return _set_period(record, res)


def _set_period(record: dict, res) -> dict:
    record.update(T=res.T, Omega=res.Omega, err_estimate=res.err_estimate)
    return record


def _methods_for(method: str, shell) -> list[str]:
    if method != "all":
        return [method]
    if shell.family == "generic":
        return ["quadrature", "series", "oracle"]
    return ["quadrature", "series", "elliptic", "oracle"]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _method_records(command: str, method: str, args, tol) -> tuple[dict, list[dict], int]:
    """The base record of the point that ``args`` describe, a copy of it
    completed by each method that ``method`` selects, and the exit status.

    A method that fails gives its own error record, names itself on stderr
    and sets the exit status of its error; the other methods keep theirs.
    """
    U, energy, shell, frame = _problem(args)
    base = _base_record(command, args, U.coeffs, energy, shell, frame)
    records, status = [], 0
    for m in _methods_for(method, shell):
        try:
            records.append(_apply_method(dict(base), m, U, shell, frame, args, tol))
        except tuple(_ERROR_KINDS) as exc:
            kind, code = _error_kind(exc)
            records.append(dict(base, method=m, error=str(exc), error_kind=kind))
            print(f"{kind} error: {m}: {exc}", file=sys.stderr)
            status = max(status, code)
    return base, records, status


def cmd_period(args, tol, out) -> int:
    _, records, status = _method_records("period", args.method, args, tol)
    emit(records, RECORD_FIELDS, args.format, out)
    return status


def cmd_sweep(args, tol, out) -> int:
    if args.steps < 2:
        raise UsageError(f"sweep needs at least 2 steps, got {args.steps}")
    if not (math.isfinite(args.start) and math.isfinite(args.stop)):
        raise UsageError(f"sweep bounds must be finite: from {args.start} to {args.stop}")
    if not args.start < args.stop:
        raise UsageError(f"sweep range is degenerate: from {args.start} to {args.stop}")
    if args.param == "rho" and args.preset != "duffing":
        raise UsageError("--param rho requires the duffing preset")
    if args.log:
        if args.start <= 0.0:
            raise UsageError("--log requires a positive sweep start")
        grid = np.geomspace(args.start, args.stop, args.steps)
    else:
        grid = np.linspace(args.start, args.stop, args.steps)

    frame_of = _parse_frame(args.frame)
    records: list = [None] * len(grid)
    points_of = _energy_points if args.param == "energy" else _rho_points
    points, found = points_of(args, grid.tolist(), records)
    quadrature = []  # (slot, frame) of the records the batched quadrature completes
    for (i, U, coeffs, energy), shell in zip(points, found):
        try:
            if isinstance(shell, PeriodLabError):
                raise shell
            frame = frame_of(shell)
            record = _base_record("sweep", args, coeffs, energy, shell, frame)
            if args.method == "quadrature":
                record["method"] = "quadrature"
                quadrature.append((i, frame))
            else:
                if U is None and args.method == "oracle":
                    U = duffing_potential(grid[i], args.mass, args.omega0)
                _apply_method(record, args.method, U, shell, frame, args, tol)
                _set_sqrt_rho_T(record)
        except tuple(_ERROR_KINDS) as exc:
            record = _sweep_error_record(args, grid[i], exc)
        records[i] = record
    results = period_quadratures([frame for _, frame in quadrature], args.omega0, tol)
    for (i, _), res in zip(quadrature, results):
        if isinstance(res, PeriodLabError):
            records[i] = _sweep_error_record(args, grid[i], res)
        else:
            _set_sqrt_rho_T(_set_period(records[i], res))
    if args.param == "rho":
        # Each point is the well at A = 1, so its lam is its rho.
        for record, value in zip(records, grid.tolist()):
            record["lambda"] = value
    emit(records, RECORD_FIELDS, args.format, out)
    return 0


def _energy_points(args, energies, records) -> tuple[list, list]:
    """The ``(slot, well, coeffs, energy)`` points of an energy grid and their
    shells.  One well serves the whole grid; a well that cannot be built fills
    ``records`` with the error of every point."""
    try:
        U = _build_potential(args)
    except tuple(_ERROR_KINDS) as exc:
        records[:] = [_sweep_error_record(args, value, exc) for value in energies]
        return [], []
    return [(i, U, U.coeffs, energy) for i, energy in enumerate(energies)], shells(U, energies)


def _rho_points(args, rhos, records) -> tuple[list, list]:
    """The ``(slot, None, coeffs, energy)`` points of a rho grid and their shells.

    Any (lam, A) with lam A^2 = rho gives the same period, so a point is the
    canonical quartic with lam = rho at amplitude 1, E = 1/2 + rho/4.  Its
    shell has a closed form, so no well is built.  A point whose well cannot
    be built fills its slot of ``records`` with the error, and so does one
    whose amplitude 1 lies beyond the barrier, where the shell at E is an
    inner one, of another rho.
    """
    try:
        _require_positive("mass", args.mass)
        _require_positive("omega0", args.omega0)
    except DomainError as exc:
        records[:] = [_sweep_error_record(args, rho, exc) for rho in rhos]
        return [], []
    points = []
    for i, rho in enumerate(rhos):
        coeffs = as_coeffs([0.0, 0.0, 0.5, 0.0, rho / 4.0])
        try:
            _derivatives(coeffs)  # the well's own check: U'' overflows at huge rho
        except DomainError as exc:
            records[i] = _sweep_error_record(args, rho, exc)
        else:
            points.append((i, None, coeffs, 0.5 + rho / 4.0))
    found = quartic_shells([rhos[i] for i, *_ in points], [e for *_, e in points])
    for k, (i, *_) in enumerate(points):
        if not isinstance(found[k], PeriodLabError):
            try:
                _check_amplitude(1.0, quartic_barrier(rhos[i]))
            except SeparatrixError as exc:
                found[k] = exc
    return points, found


def _set_sqrt_rho_T(record: dict) -> None:
    # rho is set on the shells of the canonical quartic, whatever the preset.
    if record["rho"] is not None and record["rho"] > 0:
        record["sqrt_rho_T"] = math.sqrt(record["rho"]) * record["T"]


def _sweep_error_record(args, value, exc: PeriodLabError) -> dict:
    record = _blank_record("sweep")
    record.update(
        preset=args.preset, mass=args.mass, omega0=args.omega0,
        frame=args.frame, method=args.method,
        error=str(exc), error_kind=_error_kind(exc)[0],
    )
    record["energy" if args.param == "energy" else "rho"] = float(value)
    record["lambda"] = _optional_float(args.lam)
    return record


def cmd_converge(args, tol, out) -> int:
    U, energy, shell, frame = _problem(args)
    series = best_series(shell, frame, args.Nmax)
    t_quad = period_quadrature(frame, U.omega0, tol).T
    scale = _SQRT2 / U.omega0
    base = _base_record("converge", args, U.coeffs, energy, shell, frame)
    rows = [dict(base, regime=series.regime, N=n, I_N=float(i_n), T_N=scale * i_n,
                 abs_dev_quadrature=abs(scale * i_n - t_quad))
            for n, i_n in enumerate(series.partial_sums)]
    if args.format == "table":
        out.write(f"# regime: {series.regime}"
                  + (f"  xi = {_text(frame.xi)}" if frame.xi is not None else "")
                  + f"  T_quadrature = {_text(t_quad)}\n")
    emit(rows, CONVERGE_FIELDS, args.format, out)
    return 0


def cmd_verify(args, tol, out) -> int:
    args.N = max(args.N, 30)
    base, records, status = _method_records("verify", "all", args, tol)

    periods = [r["T"] for r in records if r["error"] is None]
    deviation = 0.0
    for i in range(len(periods)):
        for j in range(i + 1, len(periods)):
            deviation = max(
                deviation,
                abs(periods[i] - periods[j]) / max(abs(periods[i]), abs(periods[j])),
            )
    records.append(dict(base, method="max-deviation", max_rel_deviation=deviation))
    emit(records, RECORD_FIELDS, args.format, out)
    return max(status, 0 if deviation <= VERIFY_DEVIATION_LIMIT else 3)


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def _add_problem_flags(p: _Parser) -> None:
    p.add_argument("--preset", choices=["duffing", "cubic", "poly"], required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="anharmonicity of the duffing/cubic presets")
    p.add_argument("--coeffs", type=float, nargs="+", default=None,
                   help="physical potential coefficients v_k for the poly preset")
    p.add_argument("--energy", type=float, default=None)
    p.add_argument("--amplitude", type=float, default=None,
                   help="oscillation amplitude (parity-symmetric presets only)")
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--omega0", type=float, default=1.0)
    p.add_argument("--frame", default="balanced",
                   help="balanced | nayfeh | fixed:<omega>")
    p.add_argument("--N", type=int, default=16, help="series truncation cap")
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="periodlab",
                     description="Periods of one-dimensional polynomial anharmonic wells")
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)

    p = sub.add_parser("period", help="compute the period of one configuration")
    _add_problem_flags(p)
    p.add_argument("--method",
                   choices=["quadrature", "series", "elliptic", "oracle", "all"],
                   default="quadrature")
    p.add_argument("--show-terms", action="store_true", dest="show_terms",
                   help="include the series partial sums in the record")
    p.set_defaults(func=cmd_period)

    p = sub.add_parser("sweep", help="compute a period across a parameter grid")
    _add_problem_flags(p)
    p.add_argument("--method",
                   choices=["quadrature", "series", "elliptic", "oracle"],
                   default="quadrature")
    p.add_argument("--param", choices=["rho", "energy"], required=True)
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--log", action="store_true", help="logarithmic grid")
    p.set_defaults(func=cmd_sweep, format="csv")

    p = sub.add_parser("converge", help="tabulate series partial sums against quadrature")
    _add_problem_flags(p)
    p.add_argument("--Nmax", type=int, required=True)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("verify", help="cross-check all applicable methods and the oracle")
    _add_problem_flags(p)
    p.set_defaults(func=cmd_verify)

    return parser


def _env_tol() -> float | None:
    raw = os.environ.get("PERIODLAB_TOL")
    if raw is None:
        return None
    try:
        tol = float(raw)
    except ValueError:
        raise UsageError(f"PERIODLAB_TOL={raw!r} is not a number")
    if not 0.0 < tol < 1.0:
        raise UsageError(f"PERIODLAB_TOL={raw!r} outside (0, 1)")
    return tol


def main(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_help(out)
            return 1
        tol = _env_tol()
        return args.func(args, tol, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except tuple(_ERROR_KINDS) as exc:
        kind, code = _error_kind(exc)
        record = {"command": "error", "error": str(exc), "error_kind": kind}
        out.write(_json_record(record, record) + "\n")
        print(f"{kind} error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
