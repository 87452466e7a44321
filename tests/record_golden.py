"""Re-record entries of the CLI golden set, ``tests/data/golden_cli.json``.

Usage, from the repository root::

    PYTHONPATH=src python tests/record_golden.py PATTERN [PATTERN ...]

Every case whose argv, joined by single spaces, matches one of the regular
expressions PATTERN (``re.search``) is run again through
``periodlab.cli.main``, and its exit code, stdout and stderr replace the
recorded ones.  Every other entry keeps its bytes.  The argv of each
re-recorded case is printed.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

from periodlab.cli import main

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_cli.json"


def run_case(argv) -> dict:
    """The golden entry of one call: its argv, exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(list(argv), out=out)
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def record(patterns, path=GOLDEN_PATH) -> list[list[str]]:
    """Re-record the cases of the golden file ``path`` whose argv matches one
    of ``patterns``; returns their argv."""
    path = Path(path)
    cases = json.loads(path.read_text())
    regexes = [re.compile(p) for p in patterns]
    redone = []
    for i, case in enumerate(cases):
        if any(r.search(" ".join(case["argv"])) for r in regexes):
            cases[i] = run_case(case["argv"])
            redone.append(case["argv"])
    path.write_text(json.dumps(cases, indent=1) + "\n")
    return redone


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    for argv in record(sys.argv[1:]):
        print(" ".join(argv))
