"""fdrelay benchmark: run workloads, check their outputs, print every metric.

usage: python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (or any checkout of it); the program under test
is imported from ``src/`` next to this directory.  With ``--trace 0`` the
end-to-end metrics of BENCHMARK.json are measured with tracing off, each
unit's wall time scaled by a reference kernel timed next to it (see
``reference.py``); with ``--trace 1`` untraced and traced passes alternate
and the per-layer metrics are reported, including the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit code is 1 when an output check fails or BLAS is not
measured at one thread, 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import blas
from reference import REF_KERNEL_S, ReferenceKernel
from spans import LAYERS, ROOT_SPAN, Instrumentation, Tracer, coverage_problem, self_time_by_name

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

SETUP_REPEATS = 8
MIN_PASSES = 2  # the output digest is compared across passes
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@dataclasses.dataclass
class Pass:
    traced: bool
    unit_wall_s: list[float]  # per unit, in unit order
    unit_cpu_s: list[float]
    unit_ref_s: list[float]   # reference kernel time around each unit; untraced passes only
    result: object
    layers: dict | None = None    # name -> (calls, self seconds), traced passes only
    counters: dict | None = None

    @property
    def wall_s(self) -> float:
        return sum(self.unit_wall_s)

    @property
    def cpu_s(self) -> float:
        return sum(self.unit_cpu_s)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest() -> str:
    """sha256 over the program's source files, identifying the code measured."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "fdrelay")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as handle:
            return handle.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def provenance(args, blas_report, specs) -> dict:
    import numpy
    import scipy

    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": specs,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_report,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


def reset_peak_rss() -> bool:
    """Reset this process's peak resident set size, so the next workload reports its own.

    Freed heap is first handed back to the system (glibc ``malloc_trim``), so
    memory an earlier workload left free does not count.  Linux 4.0 and later
    (``clear_refs`` value 5); False where the peak cannot be reset.
    """
    gc.collect()
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def peak_rss_mib() -> float:
    """Peak resident set size since the process started or since :func:`reset_peak_rss`."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(name: str, seed: int) -> tuple[float, float]:
    """Set-up of a fresh process that imports fdrelay and warms up ``name``.

    The process then times the reference kernel on its own CPU.  Returns the
    process's wall time without the kernel, and the kernel's time.
    """
    command = [sys.executable, os.path.join(HERE, "setup_probe.py"), name, str(seed), OUT_DIR]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe for {name} failed:\n{done.stderr}")
    kernel = json.loads(done.stdout.strip().splitlines()[-1])
    return elapsed - kernel["kernel_total_s"], kernel["kernel_s"]


def run_units(workload, kernel=None) -> tuple[list[float], list[float], list[float], object]:
    """One pass: every unit once, each timed on its own.

    With ``kernel`` the reference kernel runs before the first unit and after
    every unit, and each unit gets the mean of the two kernel times around
    it.  Returns wall, CPU and kernel times per unit and the pass result.
    """
    walls, cpus, refs, outputs = [], [], [], []
    before = kernel() if kernel else None
    for index in range(workload.unit_count):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        outputs.append(workload.run_unit(index))
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
        if kernel:
            after = kernel()
            refs.append((before + after) / 2)
            before = after
    return walls, cpus, refs, workload.summarize(outputs)


def run_passes(workload, seconds: float, trace: bool,
               kernel=None) -> tuple[list[Pass], list[str], list[tuple[float, float]]]:
    """Closed loop: passes back to back until ``seconds`` have elapsed.

    With ``trace`` untraced and traced passes alternate, so both see the same
    machine state and their difference is the tracing overhead.  Without it,
    SETUP_REPEATS set-up probes are spread evenly over the run, and
    ``kernel`` (a :class:`reference.ReferenceKernel`) is timed around every
    unit.  Also returns the trace targets that no longer exist in the
    program and the set-up probes as (wall, kernel) pairs.
    """
    tracer = Tracer()
    instrumentation = Instrumentation(tracer) if trace else None
    probes = 0 if trace else SETUP_REPEATS
    passes: list[Pass] = []
    setup_probes: list[tuple[float, float]] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(setup_probes) < probes and elapsed >= len(setup_probes) * seconds / probes:
            setup_probes.append(measure_setup(workload.name, workload.seed))
            continue
        if len(passes) >= MIN_PASSES and elapsed >= seconds and len(setup_probes) == probes:
            break
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            instrumentation.install()
            try:
                with tracer.span(ROOT_SPAN):
                    walls, cpus, refs, result = run_units(workload)
            finally:
                instrumentation.uninstall()
        else:
            walls, cpus, refs, result = run_units(workload, kernel)
        passes.append(Pass(traced, walls, cpus, refs, result))
        if traced:
            passes[-1].layers = self_time_by_name(tracer.spans)
            passes[-1].counters = dict(tracer.counters)
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"spans_{workload.name}.json"))
    return passes, instrumentation.absent if trace else [], setup_probes


def fastest_pass_s(passes) -> float:
    """Sum over units of each unit's fastest wall time."""
    return sum(min(unit) for unit in zip(*(p.unit_wall_s for p in passes)))


def normalized_pass_s(passes) -> float:
    """Scaled pass time: each unit's median cost in kernel runs, summed, times REF_KERNEL_S."""
    ratios = zip(*([wall / ref for wall, ref in zip(p.unit_wall_s, p.unit_ref_s)] for p in passes))
    return REF_KERNEL_S * sum(statistics.median(unit) for unit in ratios)


def end_to_end(passes, setup_probes, peak_rss) -> dict[str, float]:
    result = passes[0].result
    return {
        "setup_s": REF_KERNEL_S * statistics.median(wall / ref for wall, ref in setup_probes),
        "norm_slot_realizations_per_s": result.work / normalized_pass_s(passes),
        "peak_rss_mib": peak_rss,
        "final_sum_mse": result.final_sum_mse,
    }


def per_layer(passes) -> dict[str, float]:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    last = traced[-1]
    metrics: dict[str, float] = {}
    for name in LAYERS:
        metrics[f"{name}.calls"] = float(last.layers.get(name, (0, 0.0))[0])
        metrics[f"{name}.self_s"] = statistics.median(p.layers.get(name, (0, 0.0))[1] for p in traced)
    metrics.update(last.counters)
    metrics["bench.self_s"] = statistics.median(p.layers[ROOT_SPAN][1] for p in traced)
    metrics["trace.wall_s"] = statistics.median(p.wall_s for p in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(p.wall_s for p in untraced)
    metrics["beamforming.alternate_optimize.iterations_per_slot"] = last.result.iterations_per_slot
    metrics["beamforming.alternate_optimize.capped_slot_fraction"] = last.result.capped_slot_fraction
    metrics["metrics.final_sum_rate_bps_hz"] = last.result.final_sum_rate
    return metrics


def check(workload, passes) -> list[str]:
    problems = []
    for index, p in enumerate(passes):
        problems += [f"pass {index}: {text}" for text in p.result.problems]
    first = passes[0].result
    for index, p in enumerate(passes[1:], start=1):
        if p.result.digest != first.digest:
            problems.append(f"pass {index} output digest {p.result.digest} differs from pass 0 {first.digest}")
        if p.result.work != first.work:
            problems.append(f"pass {index} did {p.result.work} slot-realizations, pass 0 did {first.work}")
        if p.traced:
            uncovered = coverage_problem(p.layers, p.wall_s)
            if uncovered:
                problems.append(f"pass {index}: {uncovered}")
    problems += workload.verify(first)
    return problems


def run_workload(name, args, catalogue, blas_problem, isolate_rss):
    """Measure one workload; ``isolate_rss`` when earlier workloads ran in this process."""
    import workloads

    problems = list(blas_problem)
    if isolate_rss and not reset_peak_rss():
        problems.append("peak RSS cannot be reset between workloads; run this workload alone")
    workload = workloads.make_workload(name, args.seed, OUT_DIR)
    workload.warm_up()
    kernel = None if args.trace else ReferenceKernel()
    passes, absent, setup_probes = run_passes(workload, args.seconds, bool(args.trace), kernel)
    problems += check(workload, passes)
    if args.trace:
        computed = per_layer(passes)
        wanted = catalogue["per_layer"]
    else:
        computed = end_to_end(passes, setup_probes, peak_rss_mib())
        wanted = catalogue["end_to_end"]
    metrics = {}
    for entry in wanted:
        metric = entry["name"]
        if metric not in computed:
            computed[metric] = 0.0 if args.trace else float("nan")
            if not args.trace:
                problems.append(f"metric {metric} was not computed")
        metrics[metric] = {"value": computed[metric], "unit": entry["unit"]}
    attempted = sum(p.result.attempted for p in passes)
    failed = sum(p.result.failed for p in passes)
    info = {
        "passes": len(passes),
        "wall_s": [p.wall_s for p in passes],
        "cpu_s": [p.cpu_s for p in passes],
        "unit_wall_s": [p.unit_wall_s for p in passes],
        "fastest_wall_s": fastest_pass_s(passes),
        "slot_realizations_per_s": passes[0].result.work / statistics.median(p.wall_s for p in passes),
        "traced": [p.traced for p in passes],
        "setup_wall_s": [wall for wall, _ in setup_probes],
        "setup_ref_s": [ref for _, ref in setup_probes],
        "unit_ref_s": [p.unit_ref_s for p in passes],
        "slot_realizations": passes[0].result.slot_realizations,
        "probe_slot_realizations": passes[0].result.probe_slot_realizations,
        "m_hat": list(passes[0].result.m_hat),
        "final_sum_rate_bps_hz": passes[0].result.final_sum_rate,
        "failed_fraction": failed / attempted,
        "digest": passes[0].result.digest,
        "absent": absent,
    }
    return metrics, attempted, failed, problems, info


def main(argv=None) -> int:
    # Pin BLAS before anything loads numpy; verified below by asking each library.
    for name in BLAS_ENV:
        os.environ[name] = "1"
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fdrelay", "__init__.py")):
        print(f"fdrelay sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import fdrelay

    if os.path.dirname(os.path.abspath(fdrelay.__file__)) != os.path.join(ROOT, "src", "fdrelay"):
        print(f"imported fdrelay from {fdrelay.__file__}, not from this checkout", file=sys.stderr)
        return 2

    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        catalogue = json.load(handle)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in workloads.WORKLOADS for name in names):
        print(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)} or 'all'",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    blas_report = blas.openblas_threads()
    blas_problem = [] if blas.pinned_to_one(blas_report) else [f"BLAS not pinned to one thread: {blas_report}"]
    specs = {name: workloads.make_workload(name, args.seed, OUT_DIR).describe() for name in names}
    run_provenance = provenance(args, blas_report, specs)
    print("provenance " + json.dumps(run_provenance, sort_keys=True), flush=True)

    all_metrics, total_attempted, total_failed, all_problems = {}, 0, 0, []
    directions = {e["name"]: e["better"] for e in catalogue["end_to_end"] + catalogue["per_layer"]}
    for index, name in enumerate(names):
        metrics, attempted, failed, problems, info = run_workload(name, args, catalogue, blas_problem, index > 0)
        for metric, entry in metrics.items():
            print(f"metric {name} {metric} = {entry['value']:.6g} {entry['unit']} "
                  f"({directions[metric]} is better)")
        untraced = [i for i, traced in enumerate(info["traced"]) if not traced]
        print(f"info {name} untraced passes={len(untraced)} "
              f"wall_s median={statistics.median(info['wall_s'][i] for i in untraced):.4f} "
              f"fastest={info['fastest_wall_s']:.4f} "
              f"slot_realizations_per_s={info['slot_realizations_per_s']:.6g} "
              f"cpu_s median={statistics.median(info['cpu_s'][i] for i in untraced):.4f} "
              f"failed_fraction={info['failed_fraction']:.4g} "
              f"final_sum_rate_bps_hz={info['final_sum_rate_bps_hz']:.6g}"
              + (f" m_hat={info['m_hat']}" if info["m_hat"] else ""))
        for label in info["absent"]:
            print(f"absent {name} {label}")
        for text in problems:
            print(f"check FAILED {name}: {text}")
        suffix = "_trace" if args.trace else ""
        with open(os.path.join(OUT_DIR, f"BENCH_{name}{suffix}.json"), "w") as handle:
            json.dump({"workload": name, "seed": args.seed, "metrics": metrics, "info": info, "problems": problems,
                       "provenance": dict(run_provenance, workloads={name: specs[name]})},
                      handle, indent=2, sort_keys=True)
            handle.write("\n")
        prefix = f"{name}." if len(names) > 1 else ""
        all_metrics.update({prefix + metric: entry for metric, entry in metrics.items()})
        total_attempted += attempted
        total_failed += failed
        all_problems += problems

    correct = not all_problems
    print(json.dumps({"correct": correct, "attempted": total_attempted, "failed": total_failed,
                      "metrics": all_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
