"""The summary of tools/bench_pairs.py on canned run summaries; no benchmark runs."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _line(rate, mse=0.125, correct=True, failed=0):
    metrics = {"norm_slot_realizations_per_s": {"value": rate, "unit": "1/s"},
               "final_sum_mse": {"value": mse, "unit": "1"}}
    return json.dumps({"correct": correct, "attempted": 3, "failed": failed, "metrics": metrics})


def _output(*lines):
    return "provenance {}\nmetric paper_sweep ...\n" + "\n".join(lines) + "\n"


def test_summary_of_canned_pairs():
    parent = [100.0, 104.0, 98.0, 102.0, 101.0]
    change = [110.0, 103.0, 112.0, 111.0, 109.0]
    pairs = [(bench_pairs.last_json(_output(_line(p))), bench_pairs.last_json(_output(_line(c))))
             for p, c in zip(parent, change)]
    pairs[2] = (pairs[2][0], bench_pairs.last_json(_output(_line(112.0, mse=0.1250000001))))
    summary = bench_pairs.summarize(pairs)
    assert summary["values"] == list(zip(parent, change))
    assert summary["won"] == [True, False, True, True, True]
    assert summary["mse_equal"] == [True, True, False, True, True]
    assert summary["median_parent"] == 101.0 and summary["median_change"] == 110.0
    assert summary["lead"] == 9.0
    assert summary["parent_iqr"] == pytest.approx(103.0 - 99.0)  # exclusive quartiles of the parent's runs
    assert summary["all_correct"]
    text = bench_pairs.report(summary)
    assert "wins 4/5" in text and "final_sum_mse equal in 4/5 pairs" in text and "change 0;" in text


def test_lower_is_better_and_failed_runs():
    pairs = [(json.loads(_line(100.0)), json.loads(_line(90.0, failed=2))),
             (json.loads(_line(100.0)), json.loads(_line(95.0, correct=False)))]
    summary = bench_pairs.summarize(pairs, "norm_slot_realizations_per_s", better="lower")
    assert summary["won"] == [True, True]
    assert summary["lead"] == 7.5
    assert summary["failed"] == (0, 2)
    assert not summary["all_correct"]


def test_output_without_a_summary_is_not_correct():
    assert bench_pairs.last_json("") == {"correct": False}
    run = bench_pairs.last_json("fdrelay sources not found\n")
    assert run == {"correct": False}
    summary = bench_pairs.summarize([(run, json.loads(_line(1.0)))])
    assert not summary["all_correct"] and math.isnan(summary["values"][0][0])


def test_all_workload_runs_are_summarized_per_workload():
    # perfbench/run.py --workload all names each metric <workload>.<metric>
    def line(rates, mses):
        metrics = {}
        for workload, rate, mse in zip(("paper_sweep", "large_relay"), rates, mses):
            metrics[f"{workload}.norm_slot_realizations_per_s"] = {"value": rate, "unit": "1/s"}
            metrics[f"{workload}.final_sum_mse"] = {"value": mse, "unit": "1"}
        return bench_pairs.last_json(_output(json.dumps({"correct": True, "attempted": 6, "failed": 0,
                                                         "metrics": metrics})))

    pairs = [(line((100.0, 10.0), (0.5, 0.25)), line((110.0, 9.0), (0.5, 0.25))),
             (line((102.0, 11.0), (0.5, 0.25)), line((101.0, 12.0), (0.5, 0.3)))]
    sweep = bench_pairs.summarize(pairs, workload="paper_sweep")
    relay = bench_pairs.summarize(pairs, workload="large_relay")
    assert sweep["values"] == [(100.0, 110.0), (102.0, 101.0)] and sweep["won"] == [True, False]
    assert relay["values"] == [(10.0, 9.0), (11.0, 12.0)] and relay["won"] == [False, True]
    assert sweep["mse_equal"] == [True, True] and relay["mse_equal"] == [True, False]
    assert "(large_relay norm_slot_realizations_per_s)" in bench_pairs.report(relay)
    assert math.isnan(bench_pairs.summarize(pairs)["values"][0][0])  # no bare names in such a run
