"""Record emission: the fast path for plain cells gives the text of the general one."""

import io
import json
import math

import numpy as np
import pytest

from periodlab.cli import RECORD_FIELDS, _cell, _json_value, _text, emit

FLOATS = [0.0, -0.0, 1.0, -2.5, 0.1, 1 / 3, 1e-300, 5e-324, 1.7976931348623157e308,
          4.768022029102461, 123456789.123456789, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("digits", [17, 12])
def test_float_cells_match_the_general_formatter(digits):
    for v in FLOATS:
        assert _cell(v, digits) == _text(v, digits) == f"{v:.{digits}g}"
        assert _cell(np.float64(v), digits) == _cell(v, digits)
    assert _cell(FLOATS, digits) == ";".join(_text(v, digits) for v in FLOATS)


def test_other_cells_keep_their_text():
    assert _cell(None, 17) == ""
    assert _cell("balanced", 17) == "balanced"
    assert _cell(True, 17) == "true" and _cell(False, 12) == "false"
    assert _cell(7, 17) == "7"
    assert _cell((1.5, None, "a"), 12) == "1.5;;a"


def test_json_values_keep_their_text():
    for v in FLOATS:
        expected = "null" if not math.isfinite(v) else f"{v:.17g}"
        assert _json_value(v) == _json_value(np.float64(v)) == expected
    assert _json_value(None) == "null"
    assert _json_value('say "hi"') == json.dumps('say "hi"')
    assert _json_value([1.0, math.nan, 2]) == "[1, null, 2]"
    assert _json_value(True) == "true"


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
