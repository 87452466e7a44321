"""The demos and the README command-line examples run and keep their documented shape."""

import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from periodlab.cli import CONVERGE_FIELDS, RECORD_FIELDS, main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _readme_examples() -> list[list[str]]:
    text = (ROOT / "README.md").read_text()
    block = re.search(r"Examples:\s*```sh\n(.*?)```", text, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("periodlab ")]


EXAMPLES = _readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", EXAMPLES, ids=[" ".join(a[:3]) for a in EXAMPLES])
def test_readme_example_runs_with_documented_fields(argv):
    out = io.StringIO()
    assert main(list(argv), out=out) == 0
    text = out.getvalue()
    fields = CONVERGE_FIELDS if argv[0] == "converge" else RECORD_FIELDS
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else (
        "csv" if argv[0] == "sweep" else "table")
    if fmt == "json":
        records = json.loads(text)
        for record in records if isinstance(records, list) else [records]:
            assert list(record) == fields
    elif fmt == "csv":
        assert text.splitlines()[0].split(",") == fields
    else:
        header = next(line for line in text.splitlines() if not line.startswith("#"))
        shown = header.split()
        # the table drops empty columns but keeps the order of the rest
        assert shown and shown == [f for f in fields if f in shown]


def test_names_the_benchmark_trace_rebinds_still_exist():
    import importlib
    import importlib.util

    spec = importlib.util.spec_from_file_location("spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    bindings = [b for layer in spans.LAYER_BINDINGS.values() for b in layer]
    for module, attr in bindings + [("periodlab.period", "delta_at")]:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_import_loads_neither_dataclasses_nor_json_but_loads_the_oracle():
    # numpy first, so that what numpy imports itself, which varies between
    # versions, is not counted.  bench/spans.py reads periodlab.oracle from
    # sys.modules when it installs its tracer, so the oracle stays eager.
    code = ("import sys, numpy; before = set(sys.modules); import periodlab.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert not loaded & {"dataclasses", "json"}, sorted(loaded)
    assert "periodlab.oracle" in loaded, sorted(loaded)
