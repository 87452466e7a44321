"""Tests of the benchmark's own code.  Run: python3 -m pytest bench/tests -q"""

import json
import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_same_seed_gives_identical_argv():
    for name in workloads.WORKLOADS:
        n = 2 * workloads.cycle_length(name)
        first = [op.argv for op in workloads.generate(name, workloads.DEFAULT_SEED, n)]
        again = [op.argv for op in workloads.generate(name, workloads.DEFAULT_SEED, n)]
        other = [op.argv for op in workloads.generate(name, workloads.HELD_OUT_SEED, n)]
        assert first == again
        assert first != other
        assert all(isinstance(a, str) for argv in first for a in argv)


def test_separatrix_sweeps_stay_above_the_floor_and_the_probe_below_it():
    n = 2 * workloads.cycle_length("sweep-separatrix")
    ops = workloads.generate("sweep-separatrix", workloads.DEFAULT_SEED, n)
    assert min(g for op in ops for g in workloads.grid_gaps(op)) >= workloads.GAP_FLOOR
    probe = workloads.below_floor_probe(workloads.DEFAULT_SEED)
    assert probe == workloads.below_floor_probe(workloads.DEFAULT_SEED)
    assert len({label for label, _ in probe}) == len(workloads.PROBE_DECADES)
    assert all(10.0 ** -d < workloads.GAP_FLOOR for d in workloads.PROBE_DECADES)


def test_verify_inputs_stay_below_the_series_ratio_ceiling_and_the_probe_above_it():
    def ratio(argv):
        coeffs = [float(c) for c in argv[argv.index("--coeffs") + 1:argv.index("--energy")]]
        return workloads.series_ratio(coeffs, float(argv[argv.index("--energy") + 1]))

    n = 50 * workloads.cycle_length("verify-oracle")
    ops = workloads.generate("verify-oracle", workloads.DEFAULT_SEED, n)
    assert max(ratio(op.argv) for op in ops if "poly" in op.argv) < workloads.SERIES_RATIO_MAX
    probe = workloads.series_probe(workloads.DEFAULT_SEED)
    assert len(probe) == workloads.PROBE_SERIES_CALLS
    assert min(ratio(argv) for _, argv in probe) >= workloads.SERIES_RATIO_MAX


def test_benchmark_json_lists_what_the_runner_prints():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_reference_matches_readme_values():
    assert reference.self_check() == []


def test_self_times_add_up_to_the_root_span():
    # root [0, 10] -> a [1, 4] -> b [2, 3]; root -> c [5, 9]
    recorded = [["cli", 0.0, 10.0, -1, 0, None, None],
                ["a", 1.0, 4.0, 0, 0, None, None],
                ["b", 2.0, 3.0, 1, 0, None, None],
                ["c", 5.0, 9.0, 0, 0, None, None]]
    assert spans.self_times(recorded) == [3.0, 2.0, 1.0, 4.0]
    assert spans.coverage(recorded, [10.0]) == [1.0]
