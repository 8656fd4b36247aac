"""Run the benchmark on two checkouts in alternating pairs and summarize each end-to-end metric.

    python tools/bench_pairs.py --parent DIR --change DIR --workload W --pairs N --seed S --seconds T

Pair k runs ``perfbench/run.py --workload W --seed S+k --seconds T --trace 0``
in each checkout, one after the other: the parent first in even pairs, the
change first in odd pairs, so drift on a shared host falls on both sides
alike.  Each run's last line of standard output is its JSON summary.  For
each end-to-end metric of the change's ``BENCHMARK.json``, the script prints
per pair the values of both runs, whether the change won and whether
``final_sum_mse`` was bitwise equal; then the change's wins (ties count for
neither side), both medians, the median lead, the parent's interquartile
range and each side's failed units.  With ``--workload all`` a run reports
each metric as ``<workload>.<metric>``, and the script prints these tables
once per workload of ``BENCHMARK.json``.  A gain is claimed when the change
wins at least 9 of 10 pairs and its median lead exceeds the parent's
interquartile range.  Exit status 1 when any run is not ``correct``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def last_json(stdout: str) -> dict:
    """The JSON summary on the last line of a run's output; ``{"correct": False}`` if there is none."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False}


def _value(run: dict, metric: str, workload: str | None = None) -> float:
    key = metric if workload is None else f"{workload}.{metric}"
    return run.get("metrics", {}).get(key, {}).get("value", float("nan"))


def summarize(pairs: list[tuple[dict, dict]], metric: str = "norm_slot_realizations_per_s",
              better: str = "higher", workload: str | None = None) -> dict:
    """Summary of (parent, change) run summaries: per-pair values and wins, medians and the parent's IQR.

    ``better`` is the metric's direction, "higher" or "lower"; the lead is
    the change's median minus the parent's, negated for "lower".  Quartiles
    are those of :func:`statistics.quantiles` (its default method).
    ``workload`` reads the metrics of that workload from a run of several,
    where they are named ``<workload>.<metric>``; failed units are those of
    the whole run.
    """
    sign = 1 if better == "higher" else -1
    values = [(_value(p, metric, workload), _value(c, metric, workload)) for p, c in pairs]
    parent = [p for p, _ in values]
    quartiles = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
    median_parent, median_change = statistics.median(parent), statistics.median(c for _, c in values)
    return {
        "workload": workload,
        "metric": metric,
        "values": values,
        "won": [sign * (c - p) > 0 for p, c in values],
        "mse_equal": [_value(p, "final_sum_mse", workload) == _value(c, "final_sum_mse", workload)
                      for p, c in pairs],
        "median_parent": median_parent,
        "median_change": median_change,
        "lead": (median_change - median_parent) if sign > 0 else (median_parent - median_change),
        "parent_iqr": quartiles[2] - quartiles[0],
        "failed": tuple(sum(run.get("failed", 0) for run in side) for side in zip(*pairs)),
        "all_correct": all(p.get("correct") is True and c.get("correct") is True for p, c in pairs),
    }


def report(summary: dict) -> str:
    """The summary as text: one line per pair, then the totals."""
    name = summary["metric"] if summary["workload"] is None else f"{summary['workload']} {summary['metric']}"
    lines = [f"pair  parent  change  won  final_sum_mse equal   ({name})"]
    for k, ((p, c), won, equal) in enumerate(zip(summary["values"], summary["won"], summary["mse_equal"])):
        lines.append(f"{k:4d}  {p:.6g}  {c:.6g}  {'yes' if won else 'no':3s}  {'yes' if equal else 'NO'}")
    pairs = len(summary["values"])
    lines.append(f"wins {sum(summary['won'])}/{pairs}; median parent {summary['median_parent']:.6g}, "
                 f"change {summary['median_change']:.6g}; lead {summary['lead']:.6g} against parent IQR "
                 f"{summary['parent_iqr']:.6g}; final_sum_mse equal in {sum(summary['mse_equal'])}/{pairs} pairs; "
                 f"failed units parent {summary['failed'][0]}, change {summary['failed'][1]}; "
                 f"all runs correct: {'yes' if summary['all_correct'] else 'NO'}")
    return "\n".join(lines)


def _run(checkout: Path, args, seed: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    return last_json(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair; pair k uses seed+k")
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    args = parser.parse_args(argv)
    with open(args.change / "BENCHMARK.json") as handle:
        catalogue = json.load(handle)
    workloads = [w["name"] for w in catalogue["workloads"]] if args.workload == "all" else [None]
    checkouts, pairs = (args.parent, args.change), []
    for k in range(args.pairs):
        seed, runs = args.seed + k, [{}, {}]
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            runs[side] = _run(checkouts[side], args, seed)
        pairs.append(tuple(runs))
        print(f"pair {k} seed {seed}: correct {runs[0].get('correct')} / {runs[1].get('correct')}", flush=True)
    summaries = [summarize(pairs, metric["name"], metric["better"], workload)
                 for workload in workloads for metric in catalogue["end_to_end"]]
    print("\n\n".join(report(summary) for summary in summaries))
    return 0 if summaries[0]["all_correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
