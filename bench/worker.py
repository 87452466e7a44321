"""One benchmark worker: a fresh single-threaded process driving ``periodlab.cli.main``.

Started by ``run.py``.  The worker imports periodlab from the checkout's
``src``, makes the workload's warm-up call, prints ``READY`` and the
warm-up's duration, and then calls the CLI in a closed loop with one client
until the time is up.  Inputs come from the seeded stream in
``workloads.py``, drawn between calls, off the clock.  The last stdout line is a JSON result.  In ``setup`` mode the worker
exits right after ``READY``; in ``trace`` mode layer spans are recorded.
"""

from __future__ import annotations

import os

# Before numpy is imported: one BLAS/OpenMP thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import gzip  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _failed_points(rc: int, text: str, points: int, command: str) -> int:
    """Points of one call that did not produce a result."""
    if rc != 0:
        return points
    if command == "sweep":
        rows = list(csv.DictReader(io.StringIO(text)))
        bad = sum(1 for r in rows if r.get("error") or not r.get("T"))
        return bad + max(0, points - len(rows))
    records = json.loads(text)
    return int(any(r.get("error") for r in records))


def _call(main, argv, buf, crashes: dict) -> int:
    """One CLI call; an exception escaping the CLI counts as a failed call."""
    try:
        return main(list(argv), out=buf)
    except Exception as exc:  # the loop must go on; the failure is counted and reported
        kind = type(exc).__name__
        if kind not in crashes:
            crashes[kind] = traceback.format_exc()
        return -1


# On a shared machine the speed can drift by +-20% within seconds as other
# tenants load it, and periodlab's call times drift with it.  A fixed kernel with the
# CLI's instruction mix (argparse, small numpy polynomial calls, a scalar
# Python loop, 17-digit CSV formatting) is timed before every call and after
# the last one, so each call time can also be stated in kernel runs ("cal"),
# which cancels most of the drift.  The kernel uses no periodlab code, so a
# change to periodlab cannot change the unit.
class Kernel:
    def __init__(self):
        import numpy as np
        import numpy.polynomial.polynomial as npoly

        self.np, self.npoly = np, npoly
        self.coeffs = np.array([-0.75, 0.0, 0.5, 0.1, 0.25])
        self.theta = np.linspace(0.0, np.pi, 64)
        self.argv = ["--preset", "poly", "--coeffs", "0", "0", "0.5", "0.1", "0.25",
                     "--energy", "0.75", "--format", "csv", "--steps", "5"]

    def run_s(self) -> float:
        np, npoly = self.np, self.npoly
        t = perf_counter()
        parser = argparse.ArgumentParser(prog="kernel")
        parser.add_argument("--preset", choices=["duffing", "cubic", "poly"])
        parser.add_argument("--coeffs", type=float, nargs="+")
        for flag in ("--energy", "--mass", "--omega0", "--lambda"):
            parser.add_argument(flag, type=float, default=None)
        parser.add_argument("--format", choices=["table", "json", "csv"])
        parser.add_argument("--steps", type=int)
        args = parser.parse_args(self.argv)
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        acc = 0.0
        for _ in range(args.steps):
            roots = npoly.polyroots(self.coeffs)
            d = npoly.polyder(self.coeffs)
            x = float(roots.real.max())
            for _ in range(8):
                x -= float(npoly.polyval(x, self.coeffs)) / float(npoly.polyval(x, d))
            acc += float(np.sum(1.0 / np.sqrt(2.0 + np.cos(self.theta))))
            writer.writerow([f"{v:.17g}" for v in (acc, x, *self.coeffs, args.energy)])
        return perf_counter() - t


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    parser.add_argument("--checked", default="", help="comma-separated op indices to return")
    parser.add_argument("--spans", default=None, help="gzip JSON file for the spans")
    job = parser.parse_args()

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    t0 = perf_counter()
    import periodlab  # noqa: F401
    import periodlab.cli as cli
    import_s = perf_counter() - t0
    if not os.path.abspath(periodlab.__file__).startswith(src + os.sep):
        print(f"periodlab imported from {periodlab.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads  # beside this file

    spec = workloads.WORKLOADS[job.workload]
    t_warm = perf_counter()
    rc = cli.main(list(spec.warmup), out=io.StringIO())
    warmup_s = perf_counter() - t_warm
    if rc != spec.warmup_rc:
        print(f"warm-up call exited {rc}, expected {spec.warmup_rc}", file=sys.stderr)
        return 3
    gl_cache = getattr(getattr(sys.modules["periodlab.period"], "_gl_rule", None),
                       "cache_info", None)
    gl_before = gl_cache().currsize if gl_cache else None

    stream = workloads.stream(job.workload, job.seed)
    checked = {int(i) for i in job.checked.split(",") if i}
    tracer = None
    call = cli.main
    if job.mode == "trace":
        import spans as bench_spans  # beside this file
        tracer = bench_spans.Tracer()
        call = tracer.install()

    print(f"READY {warmup_s!r}", flush=True)
    if job.mode == "setup":
        return 0

    kernel = Kernel()
    kernel.run_s()

    walls, counts, failed, out_bytes, outputs, crashes = [], [], 0, 0, {}, {}
    cals = []  # kernel time before each call, and after the last
    start = perf_counter()
    deadline = start + job.seconds
    k = 0
    while perf_counter() < deadline:
        cals.append(kernel.run_s())
        op = next(stream)
        argv, points = op.argv, op.points
        buf = io.StringIO()
        if tracer is not None:
            tracer.op = k
        t = perf_counter()
        rc = _call(call, argv, buf, crashes)
        walls.append(perf_counter() - t)
        counts.append(points)
        text = buf.getvalue()
        out_bytes += len(text)
        failed += _failed_points(rc, text, points, argv[0])
        if k in checked:
            outputs[k] = [rc, text]
        k += 1
    cals.append(kernel.run_s())
    window_s = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = bench_spans.layer_summary(tracer.spans, sum(counts))
        result["coverage"] = bench_spans.coverage(tracer.spans, walls)
        with gzip.open(job.spans, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "error", "extra"],
                       "spans": tracer.spans}, fh)
    # Off the clock: checked operations the timed loop did not reach.
    extra_attempted = extra_failed = 0
    for i, op in enumerate(stream, start=k):
        if i > max(checked, default=-1):
            break
        if i not in checked:
            continue
        buf = io.StringIO()
        rc = _call(cli.main, op.argv, buf, crashes)
        outputs[i] = [rc, buf.getvalue()]
        extra_attempted += op.points
        extra_failed += _failed_points(rc, outputs[i][1], op.points, op.argv[0])

    # Off the clock, and not counted as operations: calls beyond the workload's
    # limits, where the program is known to fail (see workloads.GAP_FLOOR and
    # workloads.SERIES_RATIO_MAX).
    probe = None
    if spec.probe is not None and job.mode == "run":
        probe = {}
        for label, argv in spec.probe(job.seed):
            rc = _call(cli.main, list(argv), io.StringIO(), crashes)
            calls, failed_calls = probe.get(label, (0, 0))
            probe[label] = (calls + 1, failed_calls + (rc != 0))

    result.update(
        import_s=import_s,
        walls=walls,
        counts=counts,
        # Kernel time per call: the mean of the runs just before and just after it.
        kernel_s=[0.5 * (a + b) for a, b in zip(cals, cals[1:])],
        failed=failed,
        window_s=window_s,
        extra_attempted=extra_attempted,
        extra_failed=extra_failed,
        outputs={str(i): v for i, v in outputs.items()},
        peak_rss_mb=peak_rss_mb,
        gl_levels_built_in_window=(None if gl_cache is None
                                   else gl_cache().currsize - gl_before),
        bytes_out=out_bytes,
        crashes=crashes,
        probe=probe,
        versions={"python": sys.version.split()[0],
                  "numpy": sys.modules["numpy"].__version__},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
