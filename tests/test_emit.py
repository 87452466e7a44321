"""Record emission: the fast paths for whole columns give the text of the
value formatter, and csv rows are those texts as the csv module writes them."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodlab.cli import _FORMATS, RECORD_FIELDS, _column, _value, emit, main

FLOATS = [0.0, -0.0, 1.0, -2.5, 0.1, 1 / 3, 1e-300, 5e-324, 1.7976931348623157e308,
          4.768022029102461, 123456789.123456789, math.inf, -math.inf, math.nan]
CSV, TABLE, JSON = _FORMATS["csv"], _FORMATS["table"], _FORMATS["json"]


@pytest.mark.parametrize("digits", [17, 12])
def test_float_cells_match_the_general_formatter(digits):
    fmt = CSV if digits == 17 else TABLE
    for v in FLOATS:
        assert _value(v, fmt) == f"{v:.{digits}g}"
        assert _value(np.float64(v), fmt) == _value(v, fmt)
    assert _column(FLOATS, fmt) == [_value(v, fmt) for v in FLOATS]
    assert _value(FLOATS, fmt) == ";".join(_value(v, fmt) for v in FLOATS)


def test_other_cells_keep_their_text():
    assert _value(None, CSV) == ""
    assert _value("balanced", CSV) == "balanced"
    assert _value(True, CSV) == "true" and _value(False, TABLE) == "false"
    assert _value(7, CSV) == "7"
    assert _value((1.5, None, "a"), TABLE) == "1.5;;a"


def test_json_values_keep_their_text():
    for v in FLOATS:
        expected = "null" if not math.isfinite(v) else f"{v:.17g}"
        assert _value(v, JSON) == _value(np.float64(v), JSON) == expected
    assert _column(FLOATS, JSON) == [_value(v, JSON) for v in FLOATS]
    assert _value(None, JSON) == "null"
    assert _value('say "hi"', JSON) == json.dumps('say "hi"')
    assert _value([1.0, math.nan, 2], JSON) == "[1, null, 2]"
    assert _value(True, JSON) == "true"


@pytest.mark.parametrize("fmt", ["csv", "json", "table"])
def test_each_column_pass_gives_the_text_of_each_value(fmt):
    shared = [0.0, 0.5]
    columns = [
        ["sweep"] * 3,  # one object
        [1.0, math.inf, 2.5],  # floats
        [[*shared, 0.25], [*shared, math.nan], [*shared, -1.0]],  # lists of one length
        [[*shared, 0.25], shared, None],  # anything else
        [],
    ]
    for column in columns:
        assert _column(column, _FORMATS[fmt]) == [_value(v, _FORMATS[fmt]) for v in column]


@pytest.mark.parametrize("fmt", ["csv", "json", "table"])
def test_equal_floats_in_distinct_objects_give_the_text_of_each_value(fmt):
    def copies(*values):
        return [float(np.float64(v)) for v in values]

    columns = [
        copies(-1.0, -1.0, -1.0),  # written once
        copies(0.0, -0.0, 0.0),  # equal, but not one text
        copies(math.nan, math.nan),  # NaN equals nothing
        copies(math.inf, math.inf),
        [copies(0.0, 2.5), copies(-0.0, 2.5), copies(0.0, 2.5)],  # lists, a position at a time
        [1.0, True, 1],  # equal, but not all floats
    ]
    for column in columns:
        assert _column(column, _FORMATS[fmt]) == [_value(v, _FORMATS[fmt]) for v in column]
        out = io.StringIO()
        emit({"a": column, "b": column}, ["a", "b"], fmt, out)
        if fmt == "csv":
            assert out.getvalue() == _csv_module({"a": column, "b": column}, ["a", "b"])


@pytest.mark.parametrize("fields", [["a"], ["a", "b"]])
def test_list_columns_with_a_shared_text_quote_the_whole_cell(fields):
    shared, empty = 'x, "y"', None
    for column in ([[shared, 1.5], [shared, -0.0]], [[empty], [empty]], [[shared], [shared]]):
        table = dict.fromkeys(fields, column)
        out = io.StringIO()
        emit(table, fields, "csv", out)
        assert out.getvalue() == _csv_module(table, fields)


@pytest.mark.parametrize("fmt", ["csv", "json", "table"])
def test_emitted_records_reparse(fmt):
    record = dict.fromkeys(RECORD_FIELDS)
    record.update(command="sweep", preset="poly", coeffs=[0.0, 0.5, 1 / 3], energy=0.1,
                  T=4.768022029102461, N=16, error='a "quoted", comma')
    out = io.StringIO()
    emit([record, record], RECORD_FIELDS, fmt, out)
    text = out.getvalue()
    if fmt == "json":
        parsed = json.loads(text)
        assert parsed[0]["T"] == 4.768022029102461 and parsed[1]["coeffs"][2] == 1 / 3
        assert parsed[0]["error"] == 'a "quoted", comma'
    elif fmt == "csv":
        assert text.splitlines()[1].startswith("sweep,poly,,0;0.5;0.33333333333333331,")
        assert '"a ""quoted"", comma"' in text
    else:
        assert "4.7680220291" in text and "0;0.5;0.333333333333" in text


# ---------------------------------------------------------------------------
# csv: one row template per call, against the csv module
# ---------------------------------------------------------------------------

EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308]
FLOAT = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())


def _text(pieces) -> st.SearchStrategy:
    return st.lists(st.sampled_from(pieces), max_size=6).map("".join)


@st.composite
def _tables(draw, text):
    """A field -> column table of 1-5 fields and 0-4 records, with field
    names and strings from ``text``; each column is one object, floats, one
    float value in distinct objects (0.0 and -0.0 mixed, NaN among them),
    lists of one length, or any mix of floats, numpy floats, ints, bools,
    None, strings and lists."""
    scalar = st.one_of(FLOAT, st.floats().map(np.float64), st.integers(-10**20, 10**20),
                       st.booleans(), st.none(), text)
    cell = st.one_of(scalar, st.lists(st.one_of(FLOAT, st.none(), text), max_size=3))
    fields = draw(st.lists(text, min_size=1, max_size=5, unique=True))
    n = draw(st.integers(0, 4))
    table = {}
    for k in fields:
        kind = draw(st.sampled_from(["one object", "floats", "one float value in distinct objects",
                                     "lists of one length", "any"]))
        if kind == "one object":
            table[k] = [draw(st.one_of(cell, st.just("50% of 100%s")))] * n
        elif kind == "floats":
            table[k] = draw(st.lists(FLOAT, min_size=n, max_size=n))
        elif kind == "one float value in distinct objects":
            value = draw(FLOAT)
            values = st.sampled_from([value, -value] if value == 0.0 else [value])
            # float() of a numpy float is a new object.
            table[k] = [float(np.float64(draw(values))) for _ in range(n)]
        elif kind == "lists of one length":
            size = draw(st.integers(1, 3))
            table[k] = draw(st.lists(st.lists(FLOAT, min_size=size, max_size=size),
                                     min_size=n, max_size=n))
        else:
            table[k] = draw(st.lists(cell, min_size=n, max_size=n))
    return table, fields


def _csv_module(table, fields) -> str:
    """The csv of ``table`` as ``csv.writer`` writes the texts of its values;
    it quotes the empty cell of a one-field row."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows(zip(*([_value(v, CSV) for v in table[k]] for k in fields)))
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(_tables(_text([*"ab1 .;%", ",", '"', "\n", "%s"])))
def test_csv_is_the_csv_module_over_the_value_texts(drawn):
    table, fields = drawn
    for records in (table, [dict(zip(fields, row)) for row in zip(*table.values())]):
        out = io.StringIO()
        emit(records, fields, "csv", out)
        assert out.getvalue() == _csv_module(table, fields)


@settings(max_examples=100, deadline=None)
@given(_tables(_text([*"a;,\"%", "\r", "\n", "\r\n"])))
def test_csv_cells_with_a_carriage_return_reparse(drawn):
    # csv.writer leaves a lone "\r" unquoted on Python 3.10-3.12, which
    # csv.reader then rejects; the writer's output is no reference here.
    table, fields = drawn
    out = io.StringIO()
    emit(table, fields, "csv", out)
    rows = list(csv.reader(io.StringIO(out.getvalue(), newline="")))
    assert rows == [fields, *map(list, zip(*([_value(v, CSV) for v in table[k]]
                                             for k in fields)))]


def test_one_field_csv_quotes_an_empty_cell_so_that_it_stays_a_row():
    out = io.StringIO()
    emit([{"a": None}, {"a": 1.0}], ["a"], "csv", out)
    assert out.getvalue() == 'a\n""\n1\n'
    assert list(csv.reader(io.StringIO(out.getvalue()))) == [["a"], [""], ["1"]]
    out = io.StringIO()
    emit({"": [None, "x"]}, [""], "csv", out)
    assert out.getvalue() == '""\n""\nx\n'


def test_sweep_in_a_frame_named_with_a_carriage_return_reparses():
    out = io.StringIO()
    assert main(["sweep", "--preset", "duffing", "--lambda", "1", "--param", "energy",
                 "--from", "0.1", "--to", "0.2", "--steps", "2", "--frame", "fixed:1\r"],
                out=out) == 0
    rows = list(csv.DictReader(io.StringIO(out.getvalue(), newline="")))
    assert [r["frame"] for r in rows] == ["fixed:1\r"] * 2
    assert [r["energy"] for r in rows] == ["0.10000000000000001", "0.20000000000000001"]
