"""In-memory span recording around fdrelay's public functions.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at top level).  Spans stay in memory while a pass runs and
are written out once the run ends.  A span's self time is its duration minus
the durations of its direct children.

:class:`Instrumentation` wraps each target function once and rebinds every
name under which a loaded ``fdrelay`` module holds that function object
(``fdrelay.engine.draw_slot_channels`` as well as
``fdrelay.channel.draw_slot_channels``), so calls are seen whichever import
the caller used.  A target that no longer exists is reported as absent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

# Public functions traced per fdrelay module, in report order.
TARGETS = {
    "harness": ("run_grid_point", "emit_results"),
    "memory_select": ("select_memory",),
    "engine": ("run_trajectories_batch",),
    "simulate": ("run_trajectory",),
    "beamforming": (
        "alternate_optimize",
        "build_slot_operators",
        "solve_relay_beamformer",
        "solve_receive_beamformers",
        "evaluate_sum_mse",
    ),
    "si_propagation": ("residual_si_covariance",),
    "metrics": ("achievable_sum_rate", "half_duplex_reference"),
    "matrix_core": ("solve_linear", "kron"),
    "channel": ("draw_slot_channels", "slot_rng"),
}

# Span names of the traced functions, "<module>.<function>".
LAYERS = tuple(f"{module}.{function}" for module, functions in TARGETS.items() for function in functions)
ROOT_SPAN = "bench.pass"
# The traced layers' self times must cover all but this share of the traced wall time.
COVERAGE_TOLERANCE = 0.05


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _), c in zip(spans, child)]


def self_time_by_name(spans) -> dict[str, tuple[int, float]]:
    """``name -> (calls, total self seconds)``."""
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span[0]]
        entry[0] += 1
        entry[1] += own
    return {name: (calls, seconds) for name, (calls, seconds) in totals.items()}


def coverage_problem(by_name: dict[str, tuple[int, float]], wall_s: float,
                     tolerance: float = COVERAGE_TOLERANCE) -> str | None:
    """A problem when the traced layers leave more than ``tolerance`` of ``wall_s`` unaccounted.

    ``by_name`` is :func:`self_time_by_name` of one traced pass and ``wall_s``
    that pass's wall time.  Time spent inside the root span but outside every
    traced layer is the root span's self time, so it does not count as covered.
    """
    covered = sum(seconds for name, (_, seconds) in by_name.items() if name != ROOT_SPAN)
    if covered >= (1.0 - tolerance) * wall_s:
        return None
    return (f"traced layers' self times sum to {covered:.4f} s, {covered / wall_s:.1%} of the "
            f"traced wall time {wall_s:.4f} s; an untraced call takes the rest")


class Tracer:
    """Span stack plus named counters for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def reset(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, self.clock(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = self.clock()

    def wrap(self, name: str, fn, count=None):
        """``fn`` recorded as span ``name``; ``count(counters, bound_args, result, error)``
        runs after each call when given."""
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = error = None
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                # Counted after the span closes, so counting is not the layer's time.
                if count is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(self.counters, bound.arguments, result, error)
            return result

        return wrapper

    def dump(self, path: str):
        """Write the recorded spans as JSON: one ``[name, start, end, parent]`` per span."""
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, handle)
            handle.write("\n")


def _count_batch(counters, args, result, error):
    counters["engine.run_trajectories_batch.slot_realizations"] += args["slots"] * args["realizations"]


def _count_select(counters, args, result, error):
    if result is not None:
        counters["memory_select.probes"] += len(result.probes)
        counters["memory_select.probe_slot_realizations"] += sum(
            (p.candidate + 2) * args["realizations"] for p in result.probes
        )


def _count_solve(counters, args, result, error):
    # Computed, not measured: complex LU (8n^3/3 real flops) plus one
    # forward/back substitution pair (8n^2).
    n = len(args["k"])
    counters["matrix_core.solve_linear.flops_computed"] += 8.0 * n**3 / 3.0 + 8.0 * n**2
    if error is not None and type(error).__name__ == "SingularSystemError":
        counters["matrix_core.solve_linear.singular"] += 1


def _count_emit(counters, args, result, error):
    if result is not None:
        counters["harness.emit_results.bytes"] += os.path.getsize(result)


COUNTERS = {
    "engine.run_trajectories_batch": _count_batch,
    "memory_select.select_memory": _count_select,
    "matrix_core.solve_linear": _count_solve,
    "harness.emit_results": _count_emit,
}


class Instrumentation:
    """Installs and removes tracer wrappers on the loaded fdrelay modules."""

    def __init__(self, tracer: Tracer, package: str = "fdrelay", targets=TARGETS):
        self.tracer = tracer
        self.package = package
        self.targets = targets
        self.absent: list[str] = []
        self._wrappers: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._resolve()

    def _resolve(self):
        for module_name, functions in self.targets.items():
            try:
                module = importlib.import_module(f"{self.package}.{module_name}")
            except ImportError:
                module = None
            for function in functions:
                name = f"{module_name}.{function}"
                original = getattr(module, function, None)
                if not callable(original):
                    self.absent.append(name)
                    continue
                self._wrappers[id(original)] = (
                    original, self.tracer.wrap(name, original, COUNTERS.get(name))
                )

    def install(self):
        prefix = self.package + "."
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == self.package or module_name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._restore.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore = []
