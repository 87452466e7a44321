"""Command-line front end: problem presets, method selection, sweeps, verification.

Subcommands: ``period``, ``sweep``, ``converge``, ``verify``.  Output formats
are ``table`` (default, human), ``json`` (one object per record, arrays for
multi-record output) and ``csv`` (fixed column order; a cell holding a comma,
a double quote, a newline or a carriage return is quoted, its quotes doubled).
csv and json write every float with 17 significant digits so records
re-parse bit-exactly; table writes 12.  Exit codes: 0 success, 1 usage, 2
domain (separatrix/energy), 3 numerical non-convergence.  The environment
variable ``PERIODLAB_TOL`` overrides the default 1e-13 quadrature tolerance.

Each call hands :func:`emit` one table, in which the caller states each
field's shape: one value where the field is the same in every record, a
float64 array where a float column has a value in every record, a tuple of
such columns where each record holds a list (a rho sweep's coefficients),
and a list otherwise (a failed slot's None, strings, lists, a series' N and
regime).  Every value is written by the one formatter of its format.  csv
and json fill one ``%`` row template per call: a value is literal text,
formatted once; a float array is a float conversion fed by one ``tolist``;
and only a list, or a json float array with a value that is not finite, is
written a cell at a time.  Every subcommand goes from the shell solve to the
output in columns, each method through one dispatch (:func:`_period_cells`):
one array per shell, frame and period field, and no shell, frame or record
object per grid point.  ``period``, ``verify`` and ``converge`` take their
point as a grid of one slot.

argv is parsed once (:func:`_parse_argv`).  When its first word names a
subcommand, one pass over the rest and the subcommand's flag table
(:func:`_one_pass`) builds the namespace that argparse would: each word an
exact flag, given once, with its values, each converted and checked.  Any
other rest (an abbreviation, ``--opt=v``, a repeated flag, ``-h``, ``--``, a
stray word, a failed conversion or choice) goes to the subcommand's argparse
parser, which writes every usage error and help text.  The top-level parser
takes only an argv with no subcommand, an unknown one, or ``-h``/``--help``.
"""

import argparse
import functools
import math
import os
import re
import sys
from collections.abc import Callable
from itertools import combinations, repeat
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


# The words that start with "-" and are values, not flags.  argparse only takes
# "-1" and "-.5" style strings for negative numbers and reads "-1e-1" as an
# option; accept the exponent form too.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """An argparse parser that raises :class:`UsageError` and takes
    :data:`_NEGATIVE_NUMBER` words as values.  It keeps the table of its flags
    that :func:`_one_pass` reads: ``flags`` maps each exact option string of an
    action with a default (every flag but ``-h``/``--help``) to the action that
    :meth:`add_argument` returned, and ``preset`` holds the :meth:`set_defaults`
    values."""

    def __init__(self, *args, **kwargs):
        self.flags, self.preset = {}, {}
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.default is not argparse.SUPPRESS:
            self.flags.update(dict.fromkeys(action.option_strings, action))
        return action

    def set_defaults(self, **kwargs):
        super().set_defaults(**kwargs)
        self.preset.update(kwargs)

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

        # What json.dumps gives a str, without its dispatch.
        spec = self[fmt] = _Format(".17g", "null", "null", json.encoder.encode_basestring_ascii,
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


_VARYING = (list, np.ndarray)


def _varies(column) -> bool:
    """Whether ``column`` has a cell per row: a float array, a list, or a tuple with
    such a position.  Any other value is the cell of every row."""
    return isinstance(column, _VARYING) or (
        type(column) is tuple and any(isinstance(c, _VARYING) for c in column))


def _per_row(column, n: int) -> list:
    """The cell of each of the ``n`` rows of ``column``, in any shape of :func:`emit`."""
    if isinstance(column, np.ndarray):
        return column.tolist()
    if isinstance(column, list):
        return column
    if _varies(column):
        return list(map(list, zip(*(_per_row(c, n) for c in column))))
    return [column] * n


def _floats(values: list, fmt: _Format) -> list[str]:
    """The texts of the floats ``values`` in ``fmt``, by one ``format`` pass."""
    texts = list(map(format, values, repeat(fmt.float_spec)))
    if fmt.non_finite is None or all(map(math.isfinite, values)):
        return texts
    return [t if math.isfinite(v) else fmt.non_finite for t, v in zip(texts, values)]


def _column(column, fmt: _Format, n: int | None = None) -> list[str]:
    """The texts of the ``n`` cells of ``column``, in any shape of :func:`emit`, in
    ``fmt``: a float array by one ``format`` pass, a column that does not vary
    formatted once, and any other column a cell at a time."""
    if isinstance(column, np.ndarray):
        return _floats(column.tolist(), fmt)
    if not _varies(column):
        return [_value(column, fmt)] * n
    return [_value(v, fmt) for v in _per_row(column, n)]


def _part(column, fmt: _Format, n: int, quote=None) -> tuple[str, list]:
    """The ``%`` template text of the ``n`` cells of ``column`` in ``fmt``, and the
    lists that fill it.  A column that does not vary is literal text, formatted
    once; a float array whose every value ``fmt`` writes by its spec is a float
    conversion fed by one ``tolist``; a tuple is the parts of its positions
    joined, where each is one of those; and any other column is a ``%s`` of its
    cells' texts (:func:`_column`).  ``quote``, if given, quotes a part of one
    cell, or each such text; a float's text needs no quotes."""
    if isinstance(column, np.ndarray):
        values = column.tolist()
        if fmt.non_finite is None or all(map(math.isfinite, values)):
            return "%" + fmt.float_spec, [values]
        return "%s", [_floats(values, fmt)]
    if not _varies(column):
        text = _value(column, fmt).replace("%", "%%")
        return (text if quote is None else quote(text)), []
    if isinstance(column, tuple):
        parts, feeds = zip(*(_part(c, fmt, n) for c in column))
        if "%s" not in parts:
            text = fmt.join(parts)
            return (text if quote is None else quote(text)), [f for more in feeds for f in more]
    texts = _column(column, fmt, n)
    return "%s", [texts if quote is None else list(map(quote, texts))]


def _csv_cell(text: str, lone: bool = False) -> str:
    """``text`` as a csv field: in quotes, with its quotes doubled, when it
    holds a comma, a quote or a line break, or when it is empty and ``lone``
    in its row, which would otherwise be an empty line."""
    if "," in text or '"' in text or "\n" in text or "\r" in text or (lone and not text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _row_template(columns: list, fmt: _Format, n: int, quote=None) -> tuple[list[str], list]:
    """The ``%`` template part of each of ``columns`` in ``fmt`` (:func:`_part`), and
    the lists that fill them, in order.  A column object given under two fields, as
    a symmetric quartic shell's amplitude is its x_plus array, is converted once."""
    parts, feeds, done = [], [], {}
    for column in columns:
        known = done.get(id(column))
        if known is None:
            known = done[id(column)] = _part(column, fmt, n, quote)
        parts.append(known[0])
        feeds += known[1]
    return parts, feeds


@functools.cache
def _csv_header(fields: tuple) -> str:
    """The csv line of the field names ``fields``."""
    return ",".join(map(_csv_cell, fields, repeat(len(fields) == 1))) + "\n"


@functools.cache
def _json_key(k: str) -> str:
    """The template text that opens the field ``k`` of a json record."""
    return (_FORMATS["json"].string(k) + ": ").replace("%", "%%")


def emit(table, fields, fmt: str, out, n: int | None = None) -> None:
    """Write the ``n`` records of ``table`` to ``out`` in the format ``fmt``.

    ``table`` maps each of ``fields`` to its column, in the shape the caller
    states: a float64 array, a float per record; a list, a cell per record; a
    tuple with such a position, a list per record whose positions are float
    arrays, lists or values; and any other value, the cell of every record.
    A field that ``table`` lacks is None in every record.  ``n`` is by default
    the length of the list and array columns, or 1 where there are none.
    ``table`` may also be a list of record dicts, whose fields are list columns.

    csv and json fill one ``%`` row template per call (:func:`_row_template`),
    in which a column that does not vary is literal text, formatted once, and a
    float array a float conversion (:func:`_part`); csv quotes a cell or field
    name by :func:`_csv_cell`.  ``table`` writes each column's texts
    (:func:`_column`) padded, and shows only the columns that some record sets.
    """
    fields = list(fields)
    if not isinstance(table, dict):
        n, table = len(table), {k: [r.get(k) for r in table] for k in fields}
    columns = [table.get(k) for k in fields]
    if n is None:
        n = next((len(c) for c in columns if isinstance(c, (list, np.ndarray))), 1)
    spec = _FORMATS[fmt]
    if fmt == "table":
        shown = [j for j, c in enumerate(columns)
                 if n and not (c is None or isinstance(c, list) and c.count(None) == n)]
        padded = []
        for j in shown:
            texts = _column(columns[j], spec, n)
            width = max(len(fields[j]), *map(len, texts))
            padded.append([fields[j].ljust(width), *map(str.ljust, texts, repeat(width))])
        rows = zip(*padded) if padded else [()]
        out.write("".join("  ".join(row).rstrip() + "\n" for row in rows))
        return
    if fmt == "csv":
        quote = functools.partial(_csv_cell, lone=True) if len(fields) == 1 else _csv_cell
        parts, feeds = _row_template(columns, spec, n, quote)
        template = ",".join(parts) + "\n"
    else:
        parts, feeds = _row_template(columns, spec, n)
        template = "{" + ", ".join(map(str.__add__, map(_json_key, fields), parts)) + "}"
    rows = list(map(template.__mod__, zip(*feeds))) if feeds else [template % ()] * n
    if fmt == "csv":
        out.write(_csv_header(tuple(fields)) + "".join(rows))
    elif len(rows) == 1:
        out.write(rows[0] + "\n")
    else:
        out.write("[\n  " + ",\n  ".join(rows) + "\n]\n")


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
    if args.preset in ("duffing", "cubic"):
        if args.lam is None:
            raise UsageError(f"{args.preset} preset requires --lambda")
        make = duffing_potential if args.preset == "duffing" else cubic_potential
        return make(args.lam, args.mass, args.omega0)
    if args.coeffs is None:
        raise UsageError("poly preset requires --coeffs")
    return from_physical(args.coeffs, args.mass, args.omega0)


def _resolve_energy(args, U) -> float:
    if (args.energy is None) == (args.amplitude is None):
        raise UsageError("provide exactly one of --energy or --amplitude")
    if args.energy is not None:
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
    that ``args`` describe, and the fields every record of ``command`` shares, one
    value each.  The slot's error, or the frame's, is raised: the call gives one
    error record."""
    U = _build_potential(args)
    shells = shell_columns(U, [_resolve_energy(args, U)])
    if shells.error[0] is not None:
        raise shells.error[0]
    # Read after the shell: a failed shell's error wins over a bad --frame.
    strategy, omega = _parse_frame(args.frame)
    omega_ref, xi = frame_columns(strategy, shells, omega)
    base = dict(_constants(command, args), coeffs=tuple(U.coeffs.tolist()),
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
    """The cells of ``method`` on the rows of ``shells``, ``T``, ``Omega`` and
    ``err_estimate`` float arrays and a series' ``N`` and ``regime`` lists, and each
    row's error or None.  The series is in the frame ``strategy`` of ``omega_ref``;
    the oracle reads ``well(slot)``."""
    ends = (shells.residual, shells.x_minus, shells.x_plus, shells.residual_at_turning_points)
    rows, series = len(shells.slots), {}
    if method == "quadrature":
        *periods, failed = quadrature_columns(*ends, args.omega0, tol)
    elif method == "series":
        *periods, stop, regime, failed = series_columns(shells, strategy, omega_ref, args.N,
                                                        args.omega0)
        series = {"N": stop.tolist(), "regime": regime}
    elif method == "elliptic":
        if not _has_elliptic(shells):
            raise UsageError("the elliptic period requires a well of degree at most 4")
        *periods, failed = _each_row(lambda *row: _elliptic(*row, args.omega0),
                                     zip(*(c.tolist() for c in ends)), rows)
    else:
        *periods, failed = _each_row(lambda i, energy: _oracle(well(i), energy),
                                     zip(shells.slots.tolist(), shells.energy.tolist()), rows)
    return dict(zip(("T", "Omega", "err_estimate"), map(np.asarray, periods)), **series), failed


def _partial_sums(shells: ShellColumns, strategy: str, omega_ref, N: int) -> tuple:
    """The partial sums, an array to its stop, and the regime of the series of one-slot
    ``shells`` in the frame ``strategy`` of ``omega_ref``; its error is raised."""
    (_, sums, stop, _, _, regime, (error,)), _ = _series_rows(shells, strategy, omega_ref, N)
    if error is not None:
        raise error
    return sums[:stop[0] + 1, 0], _REGIMES[regime[0]]


def _methods_for(method: str, shells: ShellColumns) -> list[str]:
    if method != "all":
        return [method]
    return ["quadrature", "series", *(["elliptic"] if _has_elliptic(shells) else []), "oracle"]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _method_records(command: str, method: str, args, tol) -> tuple[dict, list[dict], int]:
    """The fields that the records of the point that ``args`` describe share, one
    value each, the fields of each method that ``method`` selects, and the exit status.

    Each method runs on the one-slot grid of :func:`_point` as on a sweep's.  A
    method that fails gives its own error record, names itself on stderr and
    sets the exit status of its error; the other methods keep theirs.
    """
    U, shells, strategy, omega_ref, base = _point(command, args)
    records, status = [], 0
    for m in _methods_for(method, shells):
        cells, (exc,) = _period_cells(m, shells, strategy, omega_ref, lambda i: U, args, tol)
        if exc is None:
            records.append(dict(_slot(cells), method=m))
            if m == "series" and getattr(args, "show_terms", False):
                sums, _ = _partial_sums(shells, strategy, omega_ref, args.N)
                records[-1]["partial_sums"] = [_SQRT2 / args.omega0 * s for s in sums.tolist()]
            continue
        kind, code = _error_kind(exc)
        records.append({"method": m, "error": str(exc), "error_kind": kind})
        print(f"{kind} error: {m}: {exc}", file=sys.stderr)
        status = max(status, code)
    return base, records, status


def _records_table(base: dict, records: list[dict]) -> dict:
    """The table of ``records`` that share the fields of ``base``: a list column for
    each field that some record sets, and the value of ``base`` for the others."""
    fields = {k for r in records for k in r}
    return dict(base, **{k: [r.get(k) for r in records] for k in fields})


def cmd_period(args, tol, out) -> int:
    base, records, status = _method_records("period", args.method, args, tol)
    emit(_records_table(base, records), RECORD_FIELDS, args.format, out, len(records))
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
    if args.log and args.start <= 0.0:
        raise UsageError("--log requires a positive sweep start")
    try:
        grid = (np.geomspace if args.log else np.linspace)(args.start, args.stop, args.steps)
    except ValueError:  # numpy: "Maximum allowed size exceeded"
        raise UsageError(f"sweep cannot allocate a grid of {args.steps} steps") from None
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
    table = _sweep_table(args, grid, coeffs, error, rows, cells)
    emit(table, RECORD_FIELDS, args.format, out, len(values))
    return 0


def _energy_shells(args, energies) -> tuple:
    """The well of a slot of an energy grid, as a function, the grid's shell columns
    and the column of each slot's coefficients, one tuple for all; a well that cannot
    be built fails every slot, and its coefficients are None."""
    try:
        U = _build_potential(args)
    except tuple(_ERROR_KINDS) as exc:
        return None, ShellColumns.failed([exc] * len(energies)), None
    return lambda i: U, shell_columns(U, energies), tuple(U.coeffs.tolist())


def _rho_shells(args, rhos) -> tuple:
    """A function that builds the well of a slot of a rho grid, the grid's shell
    columns and the column of each slot's coefficients (:func:`rho_columns`)."""
    try:
        _require_positive("mass", args.mass)
        _require_positive("omega0", args.omega0)
    except DomainError as exc:
        return None, ShellColumns.failed([exc] * len(rhos)), None
    shells, coeffs = rho_columns(rhos)
    # Cut after the last nonzero coefficient, as a well's coefficients are: the
    # slots share the first four, and a slot at rho = 0 has three.
    common, quartic = tuple(coeffs[0, :4].tolist()), coeffs[:, 4]
    return (lambda i: duffing_potential(rhos[i], args.mass, args.omega0), shells,
            (*common, quartic) if quartic.all()
            else [[*common, c] if c != 0.0 else list(common[:3]) for c in quartic.tolist()])


def _sweep_table(args, grid: np.ndarray, coeffs, error, rows, cells) -> dict:
    """The table of a sweep over ``grid`` (:func:`emit`).

    ``cells`` maps fields to their columns on ``rows``, the slots with a shell,
    and ``coeffs`` is the column of every slot's coefficients, in the shapes of
    :func:`emit`; a None column is left out.  When no slot's ``error`` is set,
    they are the table's columns.  Otherwise each becomes a list over the grid,
    in which a slot whose error is set has no cell: it keeps the call's
    constant fields and its grid value, and gets its error.
    """
    table = dict(_constants("sweep", args), method=args.method)
    if args.param == "rho":
        # Each point is the well at A = 1, so its lam is its rho.
        table["lambda"] = grid
    rho = cells.get("rho")
    if rho is not None and "T" in cells and (positive := rho > 0.0).any():
        # rho is set on the shells of the canonical quartic, whatever the preset;
        # a failed row's T is NaN, and its cells are cleared below.
        root = np.sqrt(np.maximum(rho, 0.0)) * cells["T"]
        cells["sqrt_rho_T"] = root if positive.all() else [
            r if p else None for r, p in zip(root.tolist(), positive.tolist())]
    cells = {k: v for k, v in cells.items() if v is not None}
    failed = [i for i, exc in enumerate(error) if exc is not None]
    if not failed:
        return dict(table, coeffs=coeffs, **cells)
    n, spread = len(error), {}
    for k, v in cells.items():
        if id(v) not in spread:  # a column under two fields, as amplitude is x_plus
            column = spread[id(v)] = [None] * n
            for i, c in zip(rows, _per_row(v, len(rows))):
                column[i] = c
            for i in failed:
                column[i] = None
        table[k] = spread[id(v)]
    table["coeffs"] = [c if exc is None else None for c, exc in zip(_per_row(coeffs, n), error)]
    key = "energy" if args.param == "energy" else "rho"
    # A copy: fields share a list where they share a column object, as the
    # empty columns of a grid with no shell do.
    grid_column = table[key] = list(table.get(key) or [None] * n)
    values = grid.tolist()
    for i in failed:
        grid_column[i] = values[i]
    table["error"] = [None if exc is None else str(exc) for exc in error]
    table["error_kind"] = [None if exc is None else _error_kind(exc)[0] for exc in error]
    return table


def cmd_converge(args, tol, out) -> int:
    _, shells, strategy, omega_ref, base = _point("converge", args)
    sums, regime = _partial_sums(shells, strategy, omega_ref, args.Nmax)
    cells, (exc,) = _period_cells("quadrature", shells, strategy, omega_ref, None, args, tol)
    if exc is not None:
        raise exc
    t_quad = cells["T"].item()
    # As Python floats do, a product or difference out of range is inf or NaN, silently.
    with np.errstate(over="ignore", invalid="ignore"):
        t_n = _SQRT2 / args.omega0 * sums
        table = dict(base, regime=regime, N=list(range(len(sums))), I_N=sums, T_N=t_n,
                     abs_dev_quadrature=np.abs(t_n - t_quad))
    if args.format == "table":
        digits17, xi = _FORMATS["csv"], base["xi"]
        out.write(f"# regime: {regime}"
                  + (f"  xi = {_value(xi, digits17)}" if xi is not None else "")
                  + f"  T_quadrature = {_value(t_quad, digits17)}\n")
    emit(table, CONVERGE_FIELDS, args.format, out, len(sums))
    return 0


def cmd_verify(args, tol, out) -> int:
    args.N = max(args.N, 30)
    base, records, status = _method_records("verify", "all", args, tol)

    periods = [r["T"] for r in records if "T" in r]
    deviation = max([0.0, *(abs(a - b) / max(abs(a), abs(b))
                            for a, b in combinations(periods, 2))])
    records.append({"method": "max-deviation", "max_rel_deviation": deviation})
    emit(_records_table(base, records), RECORD_FIELDS, args.format, out, len(records))
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


def _one_pass(parser: _Parser, words) -> argparse.Namespace | None:
    """``parser.parse_args(words)`` in one pass over ``words`` and ``parser``'s flag
    table, or None where argparse must parse them.

    Each word is an exact option string of the table, each action given once,
    followed by its values: the words that do not start with ``-`` or that are
    :data:`_NEGATIVE_NUMBER`, as argparse reads them.  A flag of ``nargs`` None
    takes one value and one of ``+`` one or more; one of ``nargs`` 0 takes none
    and stores its ``const``, as ``store_true`` does.  Each value goes through
    the action's ``type`` and must be one of its ``choices``, every required
    action is given, and an action not given takes its default, a string
    default through ``type`` as argparse converts it.  Anything else (an
    abbreviation, ``--opt=v``, a repeated flag, ``-h``, ``--``, a stray word, a
    missing value, a failed conversion or choice) is left to argparse, which
    writes every usage error and help text.
    """
    flags, given, i, n = parser.flags, {}, 0, len(words)
    while i < n:
        action = flags.get(words[i])
        if action is None or action in given:
            return None
        start = i = i + 1
        while i < n and (not words[i].startswith("-") or _NEGATIVE_NUMBER.match(words[i])):
            i += 1
        given[action] = words[start:i]
    values = {}
    try:
        for action in flags.values():  # an action under two option strings: twice, alike
            strings, convert = given.get(action), action.type
            if strings is None:
                if action.required:
                    return None
                value = action.default
                if convert is not None and isinstance(value, str):
                    value = convert(value)
            elif action.nargs == 0:
                if strings:
                    return None
                value = action.const
            elif action.nargs is None and len(strings) == 1 or action.nargs == "+" and strings:
                value = strings if convert is None else list(map(convert, strings))
                if action.choices is not None and not all(map(action.choices.__contains__, value)):
                    return None
                if action.nargs is None:
                    value = value[0]
            else:
                return None
            values[action.dest] = value
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return None
    args = argparse.Namespace()
    vars(args).update(parser.preset, **values)
    return args


def _parse_argv(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, in one parse: an ``argv`` whose first
    word names a subcommand goes straight to that subcommand, which the
    top-level parser would hand the same words, and ``subcommand`` is set by
    hand.  There the one pass (:func:`_one_pass`) takes a well-formed rest, and
    the subcommand's argparse parser any other.  Any other ``argv`` goes to the
    top-level parser."""
    parser = build_parser()
    command = parser.subcommands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    words = argv[1:]
    args = _one_pass(command, words) or command.parse_args(words)
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
        emit(record, record, "json", out)
        print(f"{kind} error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
