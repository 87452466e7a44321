"""Command-line front end: problem presets, method selection, sweeps, verification.

Subcommands: ``period``, ``sweep``, ``converge``, ``verify``.  Output formats
are ``table`` (default, human), ``json`` (one object per record, arrays for
multi-record output) and ``csv`` (fixed column order; a cell holding a comma,
a double quote, a newline or a carriage return is quoted, its quotes doubled).
csv and json write every float with 17 significant digits so records
re-parse bit-exactly; table writes 12.  Exit codes: 0 success, 1 usage, 2
domain (separatrix/energy), 3 numerical non-convergence.  The environment
variable ``PERIODLAB_TOL`` overrides the default 1e-13 quadrature tolerance.

Output is written a column at a time (:func:`emit`), each value by the one
formatter of its format; csv rows come from one ``%`` template per call, in
which a column of one text is literal text and a list column a part per
position.  Every subcommand goes from the shell solve to the output in
columns, each method through one dispatch (:func:`_period_cells`): one array
per shell, frame and period field, and no shell, frame or record object per
grid point.  ``period``, ``verify`` and ``converge`` take their point as a
grid of one slot.

argv is parsed once (:func:`_parse_argv`): when its first word names a
subcommand, that subcommand's parser takes the rest.  The top-level parser
takes only an argv with no subcommand, an unknown one, or ``-h``/``--help``.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from collections.abc import Callable
from itertools import repeat
from operator import is_
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, PeriodLabError, SeparatrixError
from .frame import (
    BALANCED,
    FIXED,
    NAYFEH,
    frame_columns,
)
from .oracle import measure_period
from .period import (
    _REGIMES,
    _each_row,
    _elliptic,
    _series_rows,
    quadrature_columns,
    series_columns,
)
from .potential import (
    ShellColumns,
    _amplitude_error,
    _require_positive,
    barrier_info,
    cubic_potential,
    duffing_potential,
    from_physical,
    rho_columns,
    shell_columns,
)

# Not called here: bench/spans.py traces their layers by rebinding these names.
from .frame import balanced_frame  # noqa: F401
from .period import best_series, cubic_elliptic, duffing_elliptic, period_quadrature  # noqa: F401
from .potential import turning_points  # noqa: F401

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
# Serialization
# ---------------------------------------------------------------------------

class _Format(NamedTuple):
    """How an output format writes a value: the ``format`` spec of a float,
    the text of a non-finite float (None: the spec's) and of None, how a
    string is written and how the texts of a list's elements are joined."""

    float_spec: str
    non_finite: str | None
    none: str
    string: Callable[[str], str]
    join: Callable


class _Formats(dict):
    """The formats by name.  json's is made and kept on first use, so that
    only a run that writes json imports json."""

    def __missing__(self, fmt: str) -> _Format:
        if fmt != "json":
            raise KeyError(fmt)
        import json

        spec = self[fmt] = _Format(".17g", "null", "null", json.dumps,
                                   lambda texts: "[" + ", ".join(texts) + "]")
        return spec


_FORMATS = _Formats(
    csv=_Format(".17g", None, "", str, ";".join),
    table=_Format(".12g", None, "", str, ";".join),
)


def _value(v, fmt: _Format) -> str:
    """One value as ``fmt`` writes it; bools are ``true``/``false`` and
    integers are written as they are."""
    if type(v) is float:  # most values
        return (format(v, fmt.float_spec) if fmt.non_finite is None or math.isfinite(v)
                else fmt.non_finite)
    if v is None:
        return fmt.none
    if isinstance(v, str):
        return fmt.string(v)
    if isinstance(v, (list, tuple)):
        return fmt.join([_value(e, fmt) for e in v])
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return _value(float(v), fmt)
    if isinstance(v, (int, np.integer)):
        return str(v)
    raise TypeError(f"cannot serialize {type(v)}")


def _one(column: list) -> bool:
    """Whether each cell of ``column`` writes as the first: the same object, or a float
    equal to a nonzero first (0.0 == -0.0), the last cell screening before the count."""
    first = column[0] if column else None
    return all(map(is_, column, repeat(first))) or (
        type(first) is float and column[-1] == first != 0.0
        and column.count(first) == len(column) and set(map(type, column)) == {float})


def _column(column: list, fmt: _Format) -> list[str]:
    """The texts of the cells of ``column`` in ``fmt``: a column that writes as
    one (:func:`_one`) is formatted once, a column of floats by one ``format``
    pass, and non-empty lists of one length a position at a time."""
    first = column[0] if column else None
    if _one(column):
        return [_value(first, fmt)] * len(column)
    kinds = set(map(type, column))
    if kinds == {float}:
        texts = list(map(format, column, repeat(fmt.float_spec)))
        if fmt.non_finite is None or all(map(math.isfinite, column)):
            return texts
        return [t if math.isfinite(v) else fmt.non_finite for t, v in zip(texts, column)]
    if kinds == {list} and first and len(set(map(len, column))) == 1:
        return list(map(fmt.join, zip(*(_column(list(c), fmt) for c in zip(*column)))))
    return [_value(v, fmt) for v in column]


def _csv_cell(text: str, lone: bool = False) -> str:
    """``text`` as a csv field: in quotes, with its quotes doubled, when it
    holds a comma, a quote or a line break, or when it is empty and ``lone``
    in its row, which would otherwise be an empty line."""
    if "," in text or '"' in text or "\n" in text or "\r" in text or (lone and not text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_row(columns: list, sep: str = ",", end: str = "\n") -> tuple[str, list]:
    """The ``%`` template of the csv rows of ``columns``, and the columns that fill it.
    A column that writes as one (:func:`_one`) is literal text, floats a float conversion,
    lists of one length the parts of their positions joined by ``;`` where one is a
    conversion and none quoted or ``%s``, and any other column a ``%s`` of its csv cells."""
    csv_format, lone = _FORMATS["csv"], len(columns) == 1 and sep == ","
    parts, cells = [], []
    for column in columns:
        first = column[0] if column else None
        if _one(column):
            parts.append(_csv_cell(_value(first, csv_format), lone).replace("%", "%%"))
            continue
        kinds = set(map(type, column))
        if kinds == {float}:
            parts.append("%" + csv_format.float_spec)
            cells.append(column)
            continue
        if kinds == {list} and first and len(set(map(len, column))) == 1:
            part, more = _csv_row(list(map(list, zip(*column))), ";", "")
            if more and "%s" not in part and '"' not in part:
                parts.append(part)
                cells.extend(more)
                continue
        parts.append("%s")
        cells.append(list(map(_csv_cell, _column(column, csv_format), repeat(lone))))
    return sep.join(parts) + end, cells


@functools.cache
def _json_key(k: str) -> str:
    return _FORMATS["json"].string(k)


def emit(table, fields, fmt: str, out) -> None:
    """Write the records of ``table`` to ``out`` in the format ``fmt``.

    ``table`` maps each of ``fields`` to its column, one cell per record, or
    is a list of record dicts, whose missing fields are None.  Each column is
    formatted as a whole (:func:`_column`); ``table`` shows only the columns
    that some record sets.  csv fills one row template (:func:`_csv_row`) per
    record, and quotes a cell or field name by :func:`_csv_cell`.
    """
    fields = list(fields)
    if isinstance(table, dict):
        columns = [table[k] for k in fields]
    else:
        columns = [[r.get(k) for r in table] for k in fields]
    if fmt == "csv":
        template, cells = _csv_row(columns)
        n = len(columns[0]) if columns else 0
        rows = map(template.__mod__, zip(*cells)) if cells else repeat(template % (), n)
        out.write(",".join(map(_csv_cell, fields, repeat(len(fields) == 1))) + "\n" + "".join(rows))
        return
    if fmt == "table":
        shown = [j for j, column in enumerate(columns) if column.count(None) < len(column)]
        fields, columns = [fields[j] for j in shown], [columns[j] for j in shown]
    texts = [_column(column, _FORMATS[fmt]) for column in columns]
    if fmt == "json":
        keyed = [list(map((_json_key(k) + ": ").__add__, t)) for k, t in zip(fields, texts)]
        bodies = ["{" + ", ".join(parts) + "}" for parts in zip(*keyed)]
        if len(bodies) == 1:
            out.write(bodies[0] + "\n")
        else:
            out.write("[\n  " + ",\n  ".join(bodies) + "\n]\n")
    else:
        padded = []
        for k, t in zip(fields, texts):
            width = max(len(k), *map(len, t))
            padded.append([k.ljust(width), *map(str.ljust, t, repeat(width))])
        rows = zip(*padded) if padded else [()]
        out.write("".join("  ".join(row).rstrip() + "\n" for row in rows))


# ---------------------------------------------------------------------------
# Problem construction
# ---------------------------------------------------------------------------

def _parse_frame(text: str) -> tuple[str, float | None]:
    """The frame strategy that ``text`` names, and the ``fixed`` frame's frequency."""
    if text in (BALANCED, NAYFEH):
        return text, None
    if text.startswith("fixed:"):
        try:
            return FIXED, float(text.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"cannot parse frame {text!r}; expected fixed:<omega>")
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
    if not math.isfinite(a):
        raise DomainError(f"amplitude must be finite, got {a}")
    error = _amplitude_error(a, barrier_info(U).amplitude_limit)
    if error is not None:
        raise error
    # An amplitude whose powers overflow gives an infinite energy, which the
    # shell solve reports as a domain error.
    return U(a)


def _constants(command: str, args) -> dict:
    """The fields that every record of a call of ``command`` shares."""
    return {"command": command, "preset": args.preset, "lambda": args.lam,
            "mass": args.mass, "omega0": args.omega0, "frame": args.frame}


def _shell_fields(shells: ShellColumns, omega_ref, xi) -> dict:
    """The columns of ``shells`` and of their frame's ``omega_ref`` and ``xi``."""
    return {"energy": shells.energy, "x_minus": shells.x_minus, "x_plus": shells.x_plus,
            "amplitude": shells.amplitude, "rho": shells.rho, "omega_ref": omega_ref, "xi": xi}


def _slot(cells: dict) -> dict:
    """The fields of the one slot of ``cells``: an array or a list gives its
    one item, and any other value is the slot's own."""
    return {k: v.item() if isinstance(v, np.ndarray) else v[0] if isinstance(v, list) else v
            for k, v in cells.items()}


def _point(command: str, args) -> tuple:
    """The well, one-slot shell columns, frame strategy and ``omega_ref`` of the point
    that ``args`` describe, and the fields every record of ``command`` shares.  The
    slot's error, or the frame's, is raised: the call gives one error record."""
    U = _build_potential(args)
    shells = shell_columns(U, [_resolve_energy(args, U)])
    if shells.error[0] is not None:
        raise shells.error[0]
    # Read after the shell: a failed shell's error wins over a bad --frame.
    strategy, omega = _parse_frame(args.frame)
    omega_ref, xi = frame_columns(strategy, shells, omega)
    base = dict.fromkeys(RECORD_FIELDS)
    base.update(_constants(command, args), coeffs=U.coeffs.tolist(),
                **_slot(_shell_fields(shells, omega_ref, xi)))
    return U, shells, strategy, omega_ref, base


def _has_elliptic(shells: ShellColumns) -> bool:
    """Whether the well of ``shells`` has degree at most 4, so its residual at most 2."""
    return shells.residual.shape[-1] <= 3


def _oracle(U, energy: float) -> tuple[float, float]:
    """The oracle's period of ``U`` at ``energy`` and its error estimate."""
    report = measure_period(U, energy)
    if not report.reliable:
        raise ConvergenceError(
            "oracle integration unreliable (energy drift, error bound or period cap exceeded)"
        )
    return report.period, report.err_estimate


def _period_cells(method: str, shells: ShellColumns, strategy: str, omega_ref, well,
                  args, tol) -> tuple[dict, list]:
    """The cells ``T``, ``Omega``, ``err_estimate`` and a series' ``N`` and ``regime`` of
    ``method`` on the rows of ``shells``, arrays or lists, and each row's error or None.
    The series is in the frame ``strategy`` of ``omega_ref``; the oracle reads ``well(slot)``."""
    ends = (shells.residual, shells.x_minus, shells.x_plus, shells.residual_at_turning_points)
    rows = len(shells.slots)
    if method == "quadrature":
        *periods, failed = quadrature_columns(*ends, args.omega0, tol)
    elif method == "series":
        *periods, failed = series_columns(shells, strategy, omega_ref, args.N, args.omega0)
    elif method == "elliptic":
        if not _has_elliptic(shells):
            raise UsageError("the elliptic period requires a well of degree at most 4")
        *periods, failed = _each_row(lambda *row: _elliptic(*row, args.omega0),
                                     zip(*(c.tolist() for c in ends)), rows)
    else:
        *periods, failed = _each_row(lambda i, energy: _oracle(well(i), energy),
                                     zip(shells.slots.tolist(), shells.energy.tolist()), rows)
    return dict(zip(("T", "Omega", "err_estimate", "N", "regime"), periods)), failed


def _partial_sums(shells: ShellColumns, strategy: str, omega_ref, N: int) -> tuple[list, str]:
    """The partial sums, to its stop, and the regime of the series of one-slot
    ``shells`` in the frame ``strategy`` of ``omega_ref``; its error is raised."""
    (_, sums, stop, _, _, regime, (error,)), _ = _series_rows(shells, strategy, omega_ref, N)
    if error is not None:
        raise error
    return sums[:stop[0] + 1, 0].tolist(), _REGIMES[regime[0]]


def _methods_for(method: str, shells: ShellColumns) -> list[str]:
    if method != "all":
        return [method]
    if not _has_elliptic(shells):
        return ["quadrature", "series", "oracle"]
    return ["quadrature", "series", "elliptic", "oracle"]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _method_records(command: str, method: str, args, tol) -> tuple[dict, list[dict], int]:
    """The base record of the point that ``args`` describe, a copy of it
    completed by each method that ``method`` selects, and the exit status.

    Each method runs on the one-slot grid of :func:`_point` as on a sweep's.  A
    method that fails gives its own error record, names itself on stderr and
    sets the exit status of its error; the other methods keep theirs.
    """
    U, shells, strategy, omega_ref, base = _point(command, args)
    records, status = [], 0
    for m in _methods_for(method, shells):
        cells, (exc,) = _period_cells(m, shells, strategy, omega_ref, lambda i: U, args, tol)
        if exc is None:
            records.append(dict(base, method=m, **_slot(cells)))
            if m == "series" and getattr(args, "show_terms", False):
                sums, _ = _partial_sums(shells, strategy, omega_ref, args.N)
                records[-1]["partial_sums"] = [_SQRT2 / args.omega0 * s for s in sums]
            continue
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
    if not math.isfinite(args.stop - args.start):
        raise UsageError(f"sweep range must have a finite width: from {args.start} to {args.stop}")
    if args.param == "rho" and args.preset != "duffing":
        raise UsageError("--param rho requires the duffing preset")
    if args.log:
        if args.start <= 0.0:
            raise UsageError("--log requires a positive sweep start")
        grid = np.geomspace(args.start, args.stop, args.steps)
    else:
        grid = np.linspace(args.start, args.stop, args.steps)
    strategy, omega = _parse_frame(args.frame)

    values = grid.tolist()
    well, shells, coeffs = (_energy_shells if args.param == "energy" else _rho_shells)(args, values)
    error = list(shells.error)
    rows = shells.slots.tolist()  # the slots with a shell, one row of the columns each
    try:
        omega_ref, xi = frame_columns(strategy, shells, omega)
    except DomainError as exc:
        for i in rows:
            error[i] = exc
        rows, cells = [], {}
    else:
        cells = _shell_fields(shells, omega_ref, xi)
        # With no shell, as when the well or its scaling failed, no method runs.
        if rows:
            periods, failed = _period_cells(args.method, shells, strategy, omega_ref, well,
                                            args, tol)
            cells.update(periods)
            for i, exc in zip(rows, failed):
                if exc is not None:
                    error[i] = exc
    emit(_sweep_table(args, values, coeffs, error, rows, cells), RECORD_FIELDS, args.format, out)
    return 0


def _energy_shells(args, energies) -> tuple:
    """The well of a slot of an energy grid, as a function, the grid's shell columns
    and the coefficients of each slot's well.  A well that cannot be built fails every slot."""
    try:
        U = _build_potential(args)
    except tuple(_ERROR_KINDS) as exc:
        return None, ShellColumns.failed([exc] * len(energies)), [None] * len(energies)
    return lambda i: U, shell_columns(U, energies), [U.coeffs.tolist()] * len(energies)


def _rho_shells(args, rhos) -> tuple:
    """A function that builds the well of a slot of a rho grid, the grid's shell
    columns and the coefficients of each slot's well (:func:`rho_columns`)."""
    try:
        _require_positive("mass", args.mass)
        _require_positive("omega0", args.omega0)
    except DomainError as exc:
        return None, ShellColumns.failed([exc] * len(rhos)), [None] * len(rhos)
    shells, coeffs = rho_columns(rhos)
    # Cut after the last nonzero coefficient, as a well's coefficients are.
    # The rows share the objects of the coefficients they have in common, so
    # that the emitter formats those once.
    common = coeffs[0, :4].tolist()
    return (lambda i: duffing_potential(rhos[i], args.mass, args.omega0), shells,
            [[*common, c] if c != 0.0 else common[:3] for c in coeffs[:, 4].tolist()])


def _sweep_table(args, values, coeffs, error, rows, cells) -> dict:
    """The field -> column table of a sweep over the grid ``values``.

    ``cells`` maps fields to their values on ``rows``, the slots with a
    shell: an array, a list, or one value for all.  A slot whose ``error`` is
    set keeps the call's constant fields and its grid value, gets its error
    and has no other cell.
    """
    n = len(values)
    constants = dict(_constants("sweep", args), method=args.method)
    table = {k: [constants.get(k)] * n for k in RECORD_FIELDS}
    table["coeffs"] = list(coeffs)
    if cells.get("rho") is not None and "T" in cells:
        # rho is set on the shells of the canonical quartic, whatever the preset;
        # a failed row's T is NaN, and its cells are cleared below.
        root = np.sqrt(np.maximum(cells["rho"], 0.0)) * cells["T"]
        cells["sqrt_rho_T"] = np.where(cells["rho"] > 0.0, root, None)
    cells = {k: v.tolist() if isinstance(v, np.ndarray)
             else v if isinstance(v, list) else [v] * len(rows)
             for k, v in cells.items() if v is not None}
    if len(rows) == n:
        table.update(cells)
    else:
        for k, column in cells.items():
            put = table[k]
            for i, v in zip(rows, column):
                put[i] = v
    failed = [i for i, exc in enumerate(error) if exc is not None]
    for k, column in table.items():
        if k not in constants:
            for i in failed:
                column[i] = None
    grid = table["energy" if args.param == "energy" else "rho"]
    for i in failed:
        grid[i] = values[i]
        table["error"][i] = str(error[i])
        table["error_kind"][i] = _error_kind(error[i])[0]
    if args.param == "rho":
        # Each point is the well at A = 1, so its lam is its rho.
        table["lambda"] = list(values)
    return table


def cmd_converge(args, tol, out) -> int:
    _, shells, strategy, omega_ref, base = _point("converge", args)
    sums, regime = _partial_sums(shells, strategy, omega_ref, args.Nmax)
    cells, (exc,) = _period_cells("quadrature", shells, strategy, omega_ref, None, args, tol)
    if exc is not None:
        raise exc
    t_quad, scale = cells["T"].item(), _SQRT2 / args.omega0
    rows = [dict(base, regime=regime, N=n, I_N=i_n, T_N=scale * i_n,
                 abs_dev_quadrature=abs(scale * i_n - t_quad))
            for n, i_n in enumerate(sums)]
    if args.format == "table":
        digits17, xi = _FORMATS["csv"], base["xi"]
        out.write(f"# regime: {regime}"
                  + (f"  xi = {_value(xi, digits17)}" if xi is not None else "")
                  + f"  T_quadrature = {_value(t_quad, digits17)}\n")
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
    # Subcommand name -> its parser, which _parse_argv hands the rest of argv.
    parser.subcommands = {}

    def add(name: str, help: str) -> _Parser:
        p = parser.subcommands[name] = sub.add_parser(name, help=help)
        return p

    p = add("period", help="compute the period of one configuration")
    _add_problem_flags(p)
    p.add_argument("--method",
                   choices=["quadrature", "series", "elliptic", "oracle", "all"],
                   default="quadrature")
    p.add_argument("--show-terms", action="store_true", dest="show_terms",
                   help="include the series partial sums in the record")
    p.set_defaults(func=cmd_period)

    p = add("sweep", help="compute a period across a parameter grid")
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

    p = add("converge", help="tabulate series partial sums against quadrature")
    _add_problem_flags(p)
    p.add_argument("--Nmax", type=int, required=True)
    p.set_defaults(func=cmd_converge)

    p = add("verify", help="cross-check all applicable methods and the oracle")
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


def _parse_argv(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, in one parse: an ``argv`` whose first
    word names a subcommand goes straight to that subcommand's parser, which
    the top-level parser would hand the same words, and ``subcommand`` is set
    by hand.  Any other ``argv`` goes to the top-level parser."""
    parser = build_parser()
    command = parser.subcommands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = command.parse_args(argv[1:])
    args.subcommand = argv[0]
    return args


def main(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else argv)
        if getattr(args, "func", None) is None:
            build_parser().print_help(out)
            return 1
        tol = _env_tol()
        return args.func(args, tol, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except tuple(_ERROR_KINDS) as exc:
        kind, code = _error_kind(exc)
        record = {"command": "error", "error": str(exc), "error_kind": kind}
        emit([record], record, "json", out)
        print(f"{kind} error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
