"""Record emission: the fast paths for whole columns give the text of the value formatter."""

import io
import json
import math

import numpy as np
import pytest

from periodlab.cli import _FORMATS, RECORD_FIELDS, _column, _value, emit

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
