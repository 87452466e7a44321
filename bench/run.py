"""periodlab benchmark: one workload per fresh single-threaded worker, checked against mpmath.

Run from the repository root:

    python3 bench/run.py --workload sweep-energy --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the workload untraced and then traced, and reports the per-layer split
and the tracing overhead.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import select
import statistics
import subprocess
import sys
import time

import mpmath
from mpmath import mp

import reference
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
CACHE = os.path.join(BENCH, ".cache", "reference.json")

# setup_s is taken over at least SETUP_MIN launches, and over up to SETUP_MAX
# while they together take less than SETUP_BUDGET_S: cheap set-ups (about
# 0.3 s) get more samples against the machine's noise.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 7, 5.0
# On a shared host the time to start Python and import modules drifts by up to
# 40% over minutes, and the calibration kernel does not follow that drift.  A
# bare launch that starts Python and imports numpy does, to within a few
# percent.  So each launch is paired with a bare launch just before it, and the
# part of its set-up before the warm-up call is stated in seconds on a host
# where the bare launch takes BARE_REF_S.  The warm-up call itself (a Gauss-
# Legendre build of about 12 s on sweep-separatrix) is numpy compute that the
# bare launch does not follow, so it counts at its wall time.
BARE_REF_S = 0.15
BARE_CMD = [sys.executable, "-c", "import numpy; print('READY', flush=True)"]
# A checked period whose relative error exceeds this fails its operation.
# It is the deviation limit at which periodlab's own `verify` exits non-zero.
CHECK_RTOL = 1e-6
# err_estimate counts as honest when |T - T_ref| <= max(err_estimate, ULP_FLOOR ulps of T).
ULP_FLOOR = 4
# Checked operations: one per stratum, drawn from the first CHECK_CYCLES cycles.
CHECK_CYCLES = 4
# Seeded interior points checked per sweep call, besides its first and last
# point.  A separatrix sweep is checked at its last point, the one
# nearest the barrier.
CHECK_INTERIOR = 2
ROUTES = {"quadrature": "quad", "series": "series", "elliptic": "elliptic", "oracle": "oracle"}
TIMEOUT_S = 150

# Gated end-to-end metrics.  Call times are stated in runs of the worker's
# calibration kernel ("cal"), which cancels the machine's speed drift; the
# wall-clock figures are printed beside them.
END_TO_END = [
    ("ops_per_cal", "1/cal"), ("latency_p50_cal", "cal"), ("latency_tail_cal", "cal"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
]
# Baseline rows of ROADMAP.md ("Measured baseline"), inclusive time per call in µs.
ROADMAP_BASELINE_US = {
    "potential.turning_points": 511.0,
    "frame.balanced_frame": 126.0,
    "period.quadrature": 78.0,
    "oracle.measure_period": 6700.0,
}
# Per-layer metrics of the traced run.  Self times of layers that some
# workloads never call (series, elliptic, oracle) are printed in the report
# but not listed here, because they would read exactly 0 on those workloads.
PER_LAYER = [
    ("potential.build.calls", "calls/op", "lower"),
    ("potential.build.self_ms", "ms/op", "lower"),
    ("potential.barrier_info.calls", "calls/op", "lower"),
    ("potential.barrier_info.self_ms", "ms/op", "lower"),
    ("potential.turning_points.calls", "calls/op", "lower"),
    ("potential.turning_points.self_ms", "ms/op", "lower"),
    ("poly.real_roots.calls", "calls/op", "lower"),
    ("poly.real_roots.self_ms", "ms/op", "lower"),
    ("frame.balanced_frame.calls", "calls/op", "lower"),
    ("frame.balanced_frame.self_ms", "ms/op", "lower"),
    ("period.quadrature.calls", "calls/op", "lower"),
    ("period.quadrature.self_ms", "ms/op", "lower"),
    ("period.quadrature.levels", "levels/call", "lower"),
    ("period.quadrature.nodes", "nodes/call", "lower"),
    ("period.quadrature.useful_nodes_ratio", "ratio", "higher"),
    ("period.series.calls", "calls/op", "lower"),
    ("period.series.terms", "terms/call", "lower"),
    ("period.elliptic.calls", "calls/op", "lower"),
    ("oracle.measure_period.calls", "calls/op", "lower"),
    ("oracle.steps", "steps/call", "lower"),
    ("cli.self_ms", "ms/op", "lower"),
    ("cli.bytes_out", "B/op", "lower"),
    ("potential.errors", "errors/op", "lower"),
    ("poly.errors", "errors/op", "lower"),
    ("frame.errors", "errors/op", "lower"),
    ("period.errors", "errors/op", "lower"),
    ("oracle.errors", "errors/op", "lower"),
    ("cli.errors", "errors/op", "lower"),
    ("import.s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.coverage_min", "ratio", "higher"),
    ("quad_max_rel_err", "ratio", "lower"),
    ("series_max_rel_err", "ratio", "lower"),
    ("elliptic_max_rel_err", "ratio", "lower"),
    ("oracle_max_rel_err", "ratio", "lower"),
    ("err_dishonest_frac", "ratio", "lower"),
    ("failed_frac", "ratio", "lower"),
    ("checked_results", "count", "higher"),
    ("probe.failed_frac", "ratio", "lower"),
]
LAYERS = ["potential.build", "potential.barrier_info", "potential.turning_points",
          "poly.real_roots", "frame.balanced_frame", "period.quadrature", "period.series",
          "period.elliptic", "oracle.measure_period", "cli"]
LAYER_GROUPS = {"potential": ("potential.build", "potential.barrier_info",
                              "potential.turning_points"),
                "poly": ("poly.real_roots",), "frame": ("frame.balanced_frame",),
                "period": ("period.quadrature", "period.series", "period.elliptic"),
                "oracle": ("oracle.measure_period",), "cli": ("cli",)}


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _git(*args) -> str | None:
    try:
        done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                              timeout=20, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    status = _git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    return {
        "git_sha": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": None if status is None else bool(status),
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
    }


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------

def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PERIODLAB_TOL", None)  # the program's defaults are what is measured
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"  # same dict and set layouts in every worker
    return env


def launch(workload: str, seed: int, seconds: float, mode: str,
           checked=(), spans=None) -> tuple[tuple[float, float], dict | None]:
    """Start one worker.

    Returns (seconds from launch to READY, seconds of the warm-up call within
    them) and the worker's result, None in ``setup`` mode.
    """
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds)), "--mode", mode,
           "--checked", ",".join(str(i) for i in sorted(checked))]
    if spans:
        cmd += ["--spans", spans]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], TIMEOUT_S)
        line = proc.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - t0
        if not line.startswith(b"READY "):
            proc.kill()
            _, err = proc.communicate(timeout=30)
            raise BenchError(f"worker did not start ({mode}): {err.decode(errors='replace')}")
        out, err = proc.communicate(timeout=TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: {err.decode(errors='replace')}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    setup = (setup_s, float(line.split()[1]))
    if mode == "setup":
        return setup, None
    return setup, json.loads(out.decode().strip().splitlines()[-1])


def bare_launch() -> float:
    """Seconds from launching a bare interpreter that imports numpy to its READY."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(BARE_CMD, cwd=ROOT, env=_worker_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], TIMEOUT_S)
        line = proc.stdout.readline() if ready else b""
        elapsed = time.perf_counter() - t0
        if line.strip() != b"READY":
            raise BenchError("bare interpreter launch did not start")
        proc.communicate(timeout=TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    return elapsed


def setup_seconds(wall: float, warmup: float, bare: float) -> float:
    """One launch's set-up time, the part before the warm-up scaled to BARE_REF_S."""
    return BARE_REF_S * (wall - warmup) / bare + warmup


# ---------------------------------------------------------------------------
# Correctness against mpmath
# ---------------------------------------------------------------------------

def choose_checked(workload: str, seed: int) -> list[int]:
    """One operation per stratum, drawn by the seed from the first cycles."""
    n = workloads.cycle_length(workload)
    rng = random.Random(f"check:{workload}:{seed}")
    return sorted(rng.randrange(CHECK_CYCLES) * n + j for j in range(n))


def _records(argv, text: str) -> list[dict]:
    if argv[0] == "sweep":
        return list(csv.DictReader(io.StringIO(text)))
    return json.loads(text)


def _number(v) -> float | None:
    if v is None or v == "":
        return None
    return float(v)


def _coeffs(v) -> list[float]:
    return [float(c) for c in (v.split(";") if isinstance(v, str) else v)]


def check_outputs(workload: str, seed: int, ops, outputs: dict, cache) -> dict:
    """Compare checked results with mpmath; returns errors per route and failures per op."""
    rng = random.Random(f"points:{workload}:{seed}")
    errs = {route: [] for route in ROUTES.values()}
    dishonest = checked = 0
    bad_points: dict[int, int] = {}
    worst = []
    for key in sorted(outputs, key=int):
        i = int(key)
        rc, text = outputs[key]
        op = ops[i]
        if rc != 0:
            continue  # already counted as failed, all its points
        records = [r for r in _records(op.argv, text) if r.get("method") in ROUTES]
        if workload == "sweep-separatrix":
            records = records[-1:]
        elif op.argv[0] == "sweep":
            n = len(records)
            pick = {0, n - 1} | set(rng.sample(range(1, n - 1), CHECK_INTERIOR))
            records = [records[j] for j in sorted(pick)]
        ref_cache = {}
        for rec in records:
            T, est = _number(rec.get("T")), _number(rec.get("err_estimate"))
            if T is None:
                continue  # an error record: counted as failed by the worker
            inputs = (tuple(_coeffs(rec["coeffs"])), float(rec["energy"]),
                      float(rec.get("omega0") or 1.0))
            if inputs not in ref_cache:
                ref_cache[inputs] = cache.period(*inputs)
            with mp.workdps(reference.DPS):
                ref = ref_cache[inputs]
                abs_err = float(abs(mp.mpf(T) - ref))
                rel = float(abs(mp.mpf(T) - ref) / ref)
            route = ROUTES[rec["method"]]
            errs[route].append(rel)
            checked += 1
            if abs_err > max(est if est is not None else 0.0, ULP_FLOOR * math.ulp(T)):
                dishonest += 1
            if rel > CHECK_RTOL:
                bad_points[i] = bad_points.get(i, 0) + 1
            worst.append((rel, route, " ".join(op.argv), rec["energy"]))
    worst.sort(reverse=True)
    return {"errs": errs, "checked": checked, "dishonest": dishonest,
            "bad_points": bad_points, "worst": worst[:3]}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(walls: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile of the call times and how many calls lie beyond it."""
    ordered = sorted(walls)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def ops_per_cal(ops, res) -> float:
    """Operations per kernel run for one stratified cycle, each stratum at its median.

    The median calibrated call time of each stratum discounts the calls that
    an interference burst slowed more than it slowed the calibration kernel.
    """
    per_stratum: dict[str, list[float]] = {}
    points: dict[str, int] = {}
    for op, wall, cal in zip(ops, res["walls"], res["kernel_s"]):
        per_stratum.setdefault(op.stratum, []).append(wall / cal)
        points[op.stratum] = op.points
    return (sum(points.values())
            / sum(statistics.median(times) for times in per_stratum.values()))


def measure(workload: str, seed: int, seconds: float, mode: str, cache,
            spans=None) -> dict:
    checked = choose_checked(workload, seed)
    setup, res = launch(workload, seed, seconds, mode, checked, spans)
    ops = workloads.generate(workload, seed, max(len(res["walls"]), max(checked) + 1))
    checks = check_outputs(workload, seed, ops, res["outputs"], cache)
    # Each operation runs once, so a wrong checked point is one more failed point.
    res.update(setup=setup, checks=checks,
               attempted=sum(res["counts"]) + res["extra_attempted"],
               failed_total=(res["failed"] + res["extra_failed"]
                             + sum(checks["bad_points"].values())),
               ops_per_s=sum(res["counts"]) / sum(res["walls"]),
               ops_per_cal=ops_per_cal(ops, res),
               properties=workloads.properties(ops[:len(res["walls"])]))
    return res


def probe_failed_frac(probe: dict | None) -> float:
    """Share of the off-clock probe calls that failed; 0 when the workload has no probe."""
    if not probe:
        return 0.0
    return sum(a for _, a in probe.values()) / sum(c for c, _ in probe.values())


def end_to_end(workload: str, run: dict, setups: list[tuple[float, float, float]]) -> dict:
    walls = run["walls"]
    in_cal = [w / c for w, c in zip(walls, run["kernel_s"])]
    pct = workloads.WORKLOADS[workload].tail_percentile
    tail_s, beyond = tail(walls, pct)
    tail_cal, _ = tail(in_cal, pct)
    kernel_ms = 1e3 * statistics.median(run["kernel_s"])
    checks = run["checks"]
    errs = checks["errs"]
    n_calls, points = len(walls), sum(run["counts"])

    def acc(route):
        vals = errs[route]
        return (max(vals) if vals else 0.0), "ratio", f"{len(vals)} checked against mpmath"

    rows = {
        "ops_per_cal": (run["ops_per_cal"], "1/cal", f"{points} operations in {n_calls} calls; "
                        f"1 cal = one kernel run, median {kernel_ms:.4g} ms here"),
        "latency_p50_cal": (statistics.median(in_cal), "cal", f"{n_calls} calls"),
        "latency_tail_cal": (tail_cal, "cal", f"p{pct:g} of {n_calls} calls, {beyond} beyond it"),
        "ops_per_s": (points / sum(walls), "1/s", f"{points} operations in {n_calls} calls"),
        "latency_p50_ms": (1e3 * statistics.median(walls), "ms", f"{n_calls} calls"),
        "latency_tail_ms": (1e3 * tail_s, "ms",
                            f"p{pct:g} of {n_calls} calls, {beyond} beyond it"),
        "setup_s": (statistics.median(setup_seconds(*x) for x in setups), "s",
                    f"median of {len(setups)} launches, each paired with a bare launch"),
        "setup_wall_s": (statistics.median(x[0] for x in setups), "s",
                         f"raw median of the same launches; warm-up median "
                         f"{statistics.median(x[1] for x in setups):.4g} s, bare launch "
                         f"median {statistics.median(x[2] for x in setups):.4g} s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", "measuring worker"),
        "failed_frac": (run["failed_total"] / run["attempted"], "ratio",
                        f"{run['failed_total']} of {run['attempted']} operations"),
        "quad_max_rel_err": acc("quad"),
        "series_max_rel_err": acc("series"),
        "elliptic_max_rel_err": acc("elliptic"),
        "oracle_max_rel_err": acc("oracle"),
        "err_dishonest_frac": ((checks["dishonest"] / checks["checked"])
                               if checks["checked"] else 0.0, "ratio",
                               f"{checks['dishonest']} of {checks['checked']} checked results"),
    }
    return rows


def per_layer(run: dict, untraced: dict) -> dict:
    layers = run["layers"]
    points = sum(run["counts"])
    empty = {"calls_per_op": 0.0, "self_ms_per_op": 0.0, "calls": 0, "errors": {},
             "levels": 0, "nodes": 0, "useful": 0, "terms": 0, "steps": 0, "incl_s": 0.0}
    get = {name: layers.get(name, empty) for name in LAYERS}
    quad, series, oracle = get["period.quadrature"], get["period.series"], \
        get["oracle.measure_period"]
    errs = run["checks"]["errs"]
    m = {}
    for name in LAYERS[:-1]:
        m[f"{name}.calls"] = get[name]["calls_per_op"]
        m[f"{name}.self_ms"] = get[name]["self_ms_per_op"]
    m["period.quadrature.levels"] = quad["levels"] / max(1, quad["calls"])
    m["period.quadrature.nodes"] = quad["nodes"] / max(1, quad["calls"])
    m["period.quadrature.useful_nodes_ratio"] = quad["useful"] / max(1, quad["nodes"])
    m["period.series.terms"] = series["terms"] / max(1, series["calls"])
    m["oracle.steps"] = oracle["steps"] / max(1, oracle["calls"])
    m["cli.self_ms"] = get["cli"]["self_ms_per_op"]
    m["cli.bytes_out"] = run["bytes_out"] / points
    for group, names in LAYER_GROUPS.items():
        m[f"{group}.errors"] = sum(sum(get[n]["errors"].values()) for n in names) / points
    m["import.s"] = run["import_s"]
    m["trace.overhead_frac"] = untraced["ops_per_cal"] / run["ops_per_cal"] - 1.0
    m["trace.coverage_min"] = min(run["coverage"])
    for route in ROUTES.values():
        m[f"{route}_max_rel_err"] = max(errs[route]) if errs[route] else 0.0
    checks = run["checks"]
    m["err_dishonest_frac"] = checks["dishonest"] / checks["checked"] if checks["checked"] else 0.0
    m["failed_frac"] = run["failed_total"] / run["attempted"]
    m["checked_results"] = float(checks["checked"])
    m["probe.failed_frac"] = probe_failed_frac(untraced["probe"])
    return m


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.6g}"


def print_header(workload, seed, seconds, traced, env, load_before, load_after, run):
    props = run["properties"]
    wl = workloads.WORKLOADS[workload]
    print(f"== periodlab benchmark · {workload} · seed {seed} · {seconds:g} s · "
          f"{'traced' if traced else 'untraced'} ==")
    sha = env["git_sha"] or "not a git checkout"
    dirty = "" if env["git_dirty"] is None else (" (dirty)" if env["git_dirty"] else " (clean)")
    print(f"environment: git {sha}{dirty} · python {env['python']} · numpy "
          f"{run['versions']['numpy']} · mpmath {env['mpmath']} · nproc {env['nproc']} · "
          f"loadavg before {load_before} after {load_after}")
    near = props["near_barrier_frac"]
    print(f"workload: {wl.why}")
    print(f"  closed loop, 1 client · {props['calls']} calls · points per call "
          f"{props['points_per_call']} · well reuse {props['well_reuse_frac']:.3f}"
          + ("" if near is None else f" · gap <= 1e-6: {near:.3f} · min gap {props['min_gap']:.3g}"))
    print(f"  operations: {run['attempted']} attempted, {run['failed_total']} failed "
          f"(timed window {run['window_s']:.3g} s, {sum(run['walls']):.3g} s inside calls)")
    if run.get("probe"):
        print("  probe beyond the workload's limits, off the clock and not counted as "
              "operations: " + ", ".join(f"{a} of {c} calls {label} failed"
                                         for label, (c, a) in run["probe"].items()))
    if run.get("gl_levels_built_in_window"):
        print(f"  note: {run['gl_levels_built_in_window']} Gauss-Legendre rules were built "
              "inside the timed window (the warm-up did not reach them)")
    if run["crashes"]:
        for kind, tb in run["crashes"].items():
            print(f"  exception escaped the CLI: {kind}\n{tb}")


def print_checks(run, cache):
    checks = run["checks"]
    print(f"checked against mpmath ({reference.DPS} digits): {checks['checked']} results "
          f"(reference cache {cache.hits} hits, {cache.misses} computed); "
          f"tolerance {CHECK_RTOL:g} relative")
    for rel, route, argv, energy in checks["worst"]:
        print(f"  worst: {route} rel err {rel:.3g} at E={energy}: {argv}")


def print_end_to_end(rows):
    print(f"{'metric':24s} {'value':>14s}  {'unit':6s} samples")
    for name, (value, unit, samples) in rows.items():
        print(f"{name:24s} {_fmt(value):>14s}  {unit:6s} {samples}")


def print_layers(run, untraced):
    layers = run["layers"]
    points = sum(run["counts"])
    wall_ms = 1e3 * sum(run["walls"]) / points
    print(f"per-layer split, per operation (traced wall {wall_ms:.4g} ms/op; "
          "waiting: not applicable, single-threaded with no queue)")
    print(f"{'layer':26s} {'calls/op':>9s} {'self ms/op':>11s} {'share':>7s} "
          f"{'incl us/call':>13s}  errors")
    total_self = sum(layers[n]["self_ms_per_op"] for n in layers)
    for name in LAYERS:
        e = layers.get(name)
        if e is None:
            print(f"{name:26s} {0:>9.4g} {0:>11.4g} {0:>6.1f}% {'-':>13s}  -")
            continue
        incl = 1e6 * e["incl_s"] / e["calls"]
        errs = ", ".join(f"{k} {v}" for k, v in e["errors"].items()) or "-"
        print(f"{name:26s} {e['calls_per_op']:>9.4g} {e['self_ms_per_op']:>11.4g} "
              f"{100 * e['self_ms_per_op'] / total_self:>6.1f}% {incl:>13.5g}  {errs}")
    shares = {group: sum(layers[n]["self_ms_per_op"] for n in names if n in layers) / total_self
              for group, names in LAYER_GROUPS.items()}
    shares["potential+poly"] = shares.pop("potential") + shares.pop("poly")
    ranked = sorted(shares.items(), key=lambda kv: -kv[1])
    print("self-time share by module: "
          + ", ".join(f"{group} {100 * share:.1f}%" for group, share in ranked)
          + f" (largest: {ranked[0][0]})")
    cov = sorted(run["coverage"])
    print(f"self times / traced wall per call: min {cov[0]:.4f}, median "
          f"{statistics.median(cov):.4f} over {len(cov)} calls")
    quad = layers.get("period.quadrature")
    if quad:
        print(f"quadrature: {quad['levels'] / quad['calls']:.4g} levels/call, "
              f"{quad['nodes'] / quad['calls']:.5g} nodes/call, useful nodes "
              f"{quad['useful'] / max(1, quad['nodes']):.3f}")
    overhead = untraced["ops_per_cal"] / run["ops_per_cal"] - 1.0
    print(f"tracing overhead: untraced {untraced['ops_per_cal']:.6g} ops/cal "
          f"({untraced['ops_per_s']:.6g} ops/s), traced {run['ops_per_cal']:.6g} ops/cal "
          f"({run['ops_per_s']:.6g} ops/s): {100 * overhead:+.2f}%")
    print("ROADMAP 'Measured baseline' (min-of-N, one call in isolation) against the "
          "mean inclusive time per call here:")
    for name, base in ROADMAP_BASELINE_US.items():
        e = layers.get(name)
        if e is None:
            print(f"  {name}: baseline {base:g} us; not called by this workload")
            continue
        incl = 1e6 * e["incl_s"] / e["calls"]
        print(f"  {name}: baseline {base:g} us, measured {incl:.4g} us "
              f"({incl / base:.2f}x)")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 env: dict, cache) -> dict:
    load_before = "%.2f/%.2f/%.2f" % os.getloadavg()
    os.makedirs(OUT, exist_ok=True)
    if traced:
        untraced = measure(workload, seed, seconds, "run", cache)
        spans = os.path.join(OUT, f"{workload}-seed{seed}.spans.json.gz")
        run = measure(workload, seed, seconds, "trace", cache, spans)
        metrics = per_layer(run, untraced)
        run["probe"] = untraced["probe"]
        attempted = run["attempted"] + untraced["attempted"]
        failed = run["failed_total"] + untraced["failed_total"]
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        bare = bare_launch()
        run = measure(workload, seed, seconds, "run", cache)
        setups = [(*run["setup"], bare)]
        while len(setups) < SETUP_MIN or (len(setups) < SETUP_MAX
                                          and sum(x[0] for x in setups) < SETUP_BUDGET_S):
            bare = bare_launch()
            (wall, warmup), _ = launch(workload, seed, seconds, "setup")
            setups.append((wall, warmup, bare))
        rows = end_to_end(workload, run, setups)
        metrics = {name: rows[name][0] for name, _ in END_TO_END}
        attempted, failed = run["attempted"], run["failed_total"]
        units = dict(END_TO_END)
    load_after = "%.2f/%.2f/%.2f" % os.getloadavg()

    print_header(workload, seed, seconds, traced, env, load_before, load_after, run)
    print_checks(run, cache)
    if traced:
        print_layers(run, untraced)
    else:
        print_end_to_end(rows)
    # Correct: every checked result agrees with mpmath, and every operation that
    # failed was refused by the program with an error record and exit code.
    # Refusals still count in `failed`.
    runs = [run, untraced] if traced else [run]
    correct = all(r["checks"]["checked"] > 0 and not r["checks"]["bad_points"]
                  and not r["crashes"] for r in runs)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "traced": traced,
              "environment": {**env, "numpy": run["versions"]["numpy"],
                              "loadavg_before": load_before, "loadavg_after": load_after},
              "properties": run["properties"], "probe": run["probe"], "result": result,
              "all_metrics": metrics if traced else {k: list(v) for k, v in rows.items()},
              "layers": run.get("layers"), "checks": run["checks"]}
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{int(traced)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "periodlab", "cli.py")):
        print(f"no periodlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    problems = reference.self_check()
    if problems:
        print("mpmath reference failed its self-check:\n  " + "\n  ".join(problems),
              file=sys.stderr)
        return 4
    env = environment()
    cache = reference.ReferenceCache(CACHE)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         env, cache)
            print()
    except (BenchError, reference.ReferenceFailure) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        cache.save()
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
