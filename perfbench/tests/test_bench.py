"""Tests of the benchmark itself: span arithmetic, wrapping, names, BLAS pin, smoke passes.

Run with: python -m pytest perfbench/tests -q
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import types

import pytest

import blas
import fdrelay
import reference
import run
import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7].
    tracer = spans.Tracer(clock=FakeClock([0, 1, 4, 5, 6, 7, 9, 10]))
    with tracer.span("outer"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    assert [s[0] for s in tracer.spans] == ["outer", "a", "b", "c"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, 2]
    assert spans.self_times(tracer.spans) == [3, 3, 3, 1]
    by_name = spans.self_time_by_name(tracer.spans)
    assert by_name == {"outer": (1, 3), "a": (1, 3), "b": (1, 3), "c": (1, 1)}
    assert sum(seconds for _, seconds in by_name.values()) == 10


def test_wrapped_calls_nest_count_and_close_on_error():
    tracer = spans.Tracer(clock=FakeClock(range(100)))
    seen = []

    def count(counters, args, result, error):
        seen.append((args["x"], result, type(error).__name__ if error else None))
        counters["inner.calls_counted"] += 1

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return 2 * x

    wrapped_inner = tracer.wrap("inner", inner, count)

    def outer(x):
        return wrapped_inner(x) + wrapped_inner(x + 1)

    wrapped_outer = tracer.wrap("outer", outer)
    assert wrapped_outer(1) == 6
    with pytest.raises(ValueError):
        wrapped_outer(-5)
    assert seen == [(1, 2, None), (2, 4, None), (-5, None, "ValueError")]
    assert tracer.counters["inner.calls_counted"] == 3
    assert all(end >= start for _, start, end, _ in tracer.spans)
    assert tracer._stack == []
    by_name = spans.self_time_by_name(tracer.spans)
    assert by_name["outer"][0] == 2 and by_name["inner"][0] == 3


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_coverage_check_fails_when_an_untraced_call_takes_the_time():
    clock = ManualClock()
    tracer = spans.Tracer(clock=clock)

    def traced_layer():
        clock.now += 1.0

    def untraced_slow_call():
        clock.now += 9.0

    layer = tracer.wrap("layer", traced_layer)
    with tracer.span(spans.ROOT_SPAN):
        layer()
        untraced_slow_call()
    by_name = spans.self_time_by_name(tracer.spans)
    assert by_name[spans.ROOT_SPAN] == (1, 9.0)
    assert "10.0%" in spans.coverage_problem(by_name, 10.0)

    tracer.reset()
    with tracer.span(spans.ROOT_SPAN):
        layer()
        clock.now += 0.04  # the benchmark's own bookkeeping, within tolerance
    assert spans.coverage_problem(spans.self_time_by_name(tracer.spans), 1.04) is None


def test_instrumentation_rebinds_every_import_name_and_reports_absent(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def square(x):
        return x * x

    core.square = square
    user.square = square  # as after "from .core import square"
    user.twice_square = lambda x: 2 * user.square(x)
    pkg.square = square
    for module in (pkg, core, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)

    tracer = spans.Tracer()
    instrumentation = spans.Instrumentation(
        tracer, package="fakepkg", targets={"core": ("square", "deleted"), "gone": ("anything",)}
    )
    assert instrumentation.absent == ["core.deleted", "gone.anything"]
    instrumentation.install()
    assert user.twice_square(3) == 18 and pkg.square(2) == 4 and core.square(1) == 1
    instrumentation.uninstall()
    assert user.square is square and core.square is square and pkg.square is square
    assert [s[0] for s in tracer.spans] == ["core.square"] * 3


def test_metric_names_units_and_layers_match_the_catalogue():
    catalogue = _catalogue()
    entries = catalogue["end_to_end"] + catalogue["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    for entry in entries:
        assert NAME.match(entry["name"]), entry["name"]
        assert UNIT.match(entry["unit"]), entry["unit"]
        assert entry["better"] in ("higher", "lower")
    for entry in catalogue["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        e for e in catalogue["end_to_end"] if e["name"] == "setup_s"
    ).items()
    per_layer = {e["name"] for e in catalogue["per_layer"]}
    for layer in spans.LAYERS:
        assert {f"{layer}.calls", f"{layer}.self_s"} <= per_layer
    assert {w["name"] for w in catalogue["workloads"]} == set(workloads.WORKLOADS)


def _probe_threads(value: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=value, OMP_NUM_THREADS=value)
    code = "import json, blas; print(json.dumps(blas.openblas_threads()))"
    done = subprocess.run([sys.executable, "-c", code], cwd=BENCH_DIR, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout)


def test_blas_probe_reads_both_openblas_copies():
    report = _probe_threads("1")
    assert set(report) == {"numpy", "scipy"}
    assert blas.pinned_to_one(report), report
    if len(os.sched_getaffinity(0)) >= 2:
        report = _probe_threads("2")
        assert [e["threads"] for e in report.values()] == [2, 2]
        assert not blas.pinned_to_one(report)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pass_of_each_workload(name, tmp_path):
    workload = workloads.make_workload(name, seed=3, out_dir=str(tmp_path), tiny=True)
    workload.warm_up()
    first = workload.run_pass()
    assert first.problems == [] and first.failed == 0 and first.work > 0
    assert math.isfinite(first.final_sum_mse) and math.isfinite(first.final_sum_rate)

    tracer = spans.Tracer()
    instrumentation = spans.Instrumentation(tracer)
    assert instrumentation.absent == []
    instrumentation.install()
    try:
        with tracer.span(spans.ROOT_SPAN):
            second = workload.run_pass()
    finally:
        instrumentation.uninstall()
    assert second.digest == first.digest
    assert workload.verify(second) == []
    by_name = spans.self_time_by_name(tracer.spans)
    root_duration = tracer.spans[0][2] - tracer.spans[0][1]
    assert math.isclose(sum(s for _, s in by_name.values()), root_duration, rel_tol=1e-9)
    assert spans.coverage_problem(by_name, root_duration) is None
    if name == "reference_path":
        assert by_name["simulate.run_trajectory"][0] == 4
        assert "engine.run_trajectories_batch" not in by_name
    else:
        assert "engine.run_trajectories_batch" in by_name
        # the engine's own import of the channel draw is wrapped, not just the module's
        assert by_name["channel.draw_slot_channels"][0] > 0
        assert ("memory_select.select_memory" in by_name) == (name == "memory_horizon")
        assert tracer.counters["harness.emit_results.bytes"] > 0


@pytest.mark.parametrize("error, expected_problems", [
    (fdrelay.SingularSystemError(float("inf"), "singular"), 0),
    (TypeError("a bug"), 1),
])
def test_sweep_cell_failure_counts_only_expected_errors(monkeypatch, tmp_path, error, expected_problems):
    real = fdrelay.harness.run_grid_point

    def failing_conventional(spec, snr_db, inr_db, scheme):
        if scheme == "conventional":
            raise error
        return real(spec, snr_db, inr_db, scheme)

    monkeypatch.setattr(fdrelay.harness, "run_grid_point", failing_conventional)
    workload = workloads.make_workload("paper_sweep", seed=3, out_dir=str(tmp_path), tiny=True)
    result = workload.run_pass()
    assert result.failed == sum(
        len(spec.snr_db) * len(spec.inr_db) for spec in workload.specs if "conventional" in spec.schemes
    ) > 0
    assert result.problems == []
    problems = workload.verify(result)
    assert len(problems) == expected_problems * result.failed
    assert all("unexpected TypeError" in text for text in problems)


class CountingWorkload:
    """Two units; each records the pass it ran in."""

    name, seed, unit_count = "counting", 0, 2

    def __init__(self):
        self.runs = []

    def run_unit(self, index):
        self.runs.append(index)
        return index

    def summarize(self, outputs):
        return types.SimpleNamespace(outputs=outputs, work=len(outputs), final_sum_mse=1.0)


def test_pass_times_per_unit_fastest_and_normalized():
    passes = [
        run.Pass(False, [3.0, 1.0], [2.5, 1.0], [1.0, 0.5], None),
        run.Pass(False, [2.0, 4.0], [2.0, 3.0], [2.0, 2.0], None),
        run.Pass(False, [6.0, 3.0], [6.0, 3.0], [2.0, 1.0], None),
    ]
    assert [p.wall_s for p in passes] == [4.0, 6.0, 9.0]
    assert run.fastest_pass_s(passes) == 3.0
    # unit 0 costs 3, 1 and 3 kernel runs; unit 1 costs 2, 2 and 3
    assert math.isclose(run.normalized_pass_s(passes), run.REF_KERNEL_S * (3.0 + 2.0))


def test_setup_probes_are_spread_over_the_run(monkeypatch):
    clock = ManualClock()
    probed_at = []

    def fake_probe(name, seed):
        probed_at.append(clock.now)
        clock.now += 0.5
        return 0.5, 0.25

    def tick_units(workload, kernel=None):
        clock.now += 1.0
        return [0.5, 0.5], [0.5, 0.5], [kernel(), kernel()], workload.summarize([0, 1])

    monkeypatch.setattr(run.time, "perf_counter", clock)
    monkeypatch.setattr(run, "measure_setup", fake_probe)
    monkeypatch.setattr(run, "run_units", tick_units)
    passes, absent, setup_probes = run.run_passes(CountingWorkload(), 12.0, trace=False, kernel=lambda: 0.25)
    assert setup_probes == [(0.5, 0.25)] * run.SETUP_REPEATS and absent == []
    assert probed_at[0] == 0.0 and probed_at[-1] >= 12.0 * (run.SETUP_REPEATS - 1) / run.SETUP_REPEATS
    gaps = [b - a for a, b in zip(probed_at, probed_at[1:])]
    assert all(1.0 <= gap <= 2.5 for gap in gaps), gaps
    assert len(passes) >= 6 and clock.now >= 12.0
    metrics = run.end_to_end(passes, setup_probes, 1.0)
    assert math.isclose(metrics["setup_s"], 2 * run.REF_KERNEL_S)
    # each unit costs 0.5 / 0.25 = 2 kernel runs
    assert math.isclose(metrics["norm_slot_realizations_per_s"], 2 / (4 * run.REF_KERNEL_S))


def test_units_are_timed_one_by_one_between_kernel_runs():
    workload = CountingWorkload()
    kernel_times = iter([1.0, 3.0, 5.0])
    walls, cpus, refs, result = run.run_units(workload, lambda: next(kernel_times))
    assert workload.runs == [0, 1] and result.outputs == [0, 1]
    assert refs == [2.0, 4.0]
    assert len(walls) == len(cpus) == 2 and min(walls) >= 0
    assert run.run_units(workload)[2] == []


def test_reference_kernel_times_a_fixed_computation():
    kernel = reference.ReferenceKernel()
    times = [kernel() for _ in range(5)]
    assert all(0 < t < 100 * reference.REF_KERNEL_S for t in times)


def test_peak_rss_reset_forgets_an_earlier_peak():
    if not run.reset_peak_rss():
        pytest.skip("the peak resident set size cannot be reset on this system")
    block = bytearray(64 * 1024 * 1024)
    block[::4096] = b"x" * len(block[::4096])  # touch every page
    high = run.peak_rss_mib()
    del block
    assert run.reset_peak_rss()
    assert run.peak_rss_mib() < high - 32


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
