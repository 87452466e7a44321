"""Record entries of the CLI golden sets in ``tests/data``.

Usage, from the repository root::

    PYTHONPATH=src python tests/record_golden.py [--file PATH] PATTERN [PATTERN ...]
    PYTHONPATH=src python tests/record_golden.py [--file PATH] --add ARGV [ARGV ...]

Every case whose argv, joined by single spaces, matches one of the regular
expressions PATTERN (``re.search``) is run again through
``periodlab.cli.main``, and its exit code, stdout and stderr replace the
recorded ones.  Every other entry keeps its bytes.  With ``--add``, each
ARGV, one shell-quoted string per case, is run and recorded as a new case,
or replaces the case with the same argv.  ``--file`` names the golden set,
``tests/data/golden_cli.json`` by default.  The argv of each recorded case is
printed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from periodlab.cli import main

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_cli.json"
SWEEPS_PATH = GOLDEN_PATH.with_name("golden_sweeps.json")
POINTS_PATH = GOLDEN_PATH.with_name("golden_points.json")


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


def add(argvs, path=GOLDEN_PATH) -> list[list[str]]:
    """Record each argv of ``argvs`` in the golden file ``path``, created when
    missing: a case with the same argv is replaced, any other is appended.
    Returns the argv recorded."""
    path = Path(path)
    cases = json.loads(path.read_text()) if path.exists() else []
    for argv in argvs:
        case = run_case(argv)
        same = [i for i, c in enumerate(cases) if c["argv"] == case["argv"]]
        if same:
            cases[same[0]] = case
        else:
            cases.append(case)
    path.write_text(json.dumps(cases, indent=1) + "\n")
    return [list(argv) for argv in argvs]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--file", type=Path, default=GOLDEN_PATH)
    parser.add_argument("--add", action="store_true",
                        help="record each argument, a shell-quoted argv, as a case")
    parser.add_argument("items", nargs="+", metavar="PATTERN|ARGV")
    job = parser.parse_args()
    if job.add:
        recorded = add([shlex.split(item) for item in job.items], job.file)
    else:
        recorded = record(job.items, job.file)
    for argv in recorded:
        print(" ".join(argv))
