"""Benchmark workloads: what one pass runs, how much work it is, how it is checked.

Every workload is a closed loop with one client: grid cells (or trajectories)
run one after another in this process, ``jobs=1``.  A pass is a fixed list of
units (one ``run_sweep`` call or one trajectory each) that the benchmark times
one by one: ``run_unit(i)`` runs unit ``i`` and ``summarize`` turns the
outputs of one pass into a :class:`PassResult`.  Inputs come only from the
seed given on the command line; the program sees them through its exported
entry points (``SweepSpec`` + ``run_sweep`` + ``emit_results``,
``config_from_snr_inr`` and ``run_trajectory``).  See README.md for why each
workload exists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os

import numpy as np

import fdrelay

PAPER_SCHEMES = ("proposed", "conventional", "half_duplex")
REFERENCE_SCHEMES = ("proposed", "conventional")
# Only these are expected failures of one trajectory; anything else is a bug.
TRAJECTORY_ERRORS = (
    fdrelay.SingularSystemError,
    fdrelay.DegenerateObjectiveError,
    np.linalg.LinAlgError,
)
# Engine and per-realization path must agree to this relative tolerance.
PATH_AGREEMENT_RTOL = 1e-9


@dataclasses.dataclass
class PassResult:
    """Outcome of one pass; identical across passes of one run except timings."""

    digest: str
    attempted: int
    failed: int
    slot_realizations: int        # output cells x realizations x slots
    probe_slot_realizations: int  # slot designs run by the memory search
    final_sum_mse: float
    final_sum_rate: float
    # Alternation iterations per designed slot; per-realization path only.
    iterations_per_slot: float = 0.0
    capped_slot_fraction: float = 0.0
    m_hat: tuple[int, ...] = ()
    problems: list[str] = dataclasses.field(default_factory=list)

    @property
    def work(self) -> int:
        return self.slot_realizations + self.probe_slot_realizations


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


class SweepWorkload:
    """``run_sweep`` then ``emit_results`` to CSV, once per spec.

    Each spec is one timed unit; a pass runs every unit once, in order.
    """

    def __init__(self, name: str, specs: list[fdrelay.SweepSpec], out_dir: str):
        self.name = name
        self.specs = specs
        self.seed = specs[0].seed
        self.csv_path = os.path.join(out_dir, f"{name}.csv")
        self.failures: list[tuple[fdrelay.SweepSpec, dict]] = []  # of the last pass

    @property
    def unit_count(self) -> int:
        return len(self.specs)

    def describe(self) -> dict:
        units = []
        for spec in self.specs:
            payload = dataclasses.asdict(spec)
            payload["memory"] = str(spec.memory)
            units.append(payload)
        return {"kind": "sweep", "units": units}

    def warm_up(self):
        for spec in self.specs:
            tiny = dataclasses.replace(
                spec, snr_db=spec.snr_db[:1], inr_db=spec.inr_db[:1], slots=2, realizations=2, iterations=2,
            )
            fdrelay.emit_results(fdrelay.run_sweep(tiny), "csv", self.csv_path)

    def run_unit(self, index: int):
        result = fdrelay.run_sweep(self.specs[index], jobs=1)
        path = fdrelay.emit_results(result, "csv", self.csv_path)
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        return result, digest

    def run_pass(self) -> PassResult:
        return self.summarize([self.run_unit(i) for i in range(self.unit_count)])

    def summarize(self, outputs) -> PassResult:
        """One pass's result from the ``run_unit`` outputs, in unit order."""
        problems = []
        attempted = failed = slot_realizations = probe_work = 0
        m_hats, final_mse, final_rate = [], [], []
        self.failures = []
        pass_digest = hashlib.sha256()
        for spec, (result, digest) in zip(self.specs, outputs):
            pass_digest.update(digest.encode())
            cells = len(spec.snr_db) * len(spec.inr_db) * len(spec.schemes)
            attempted += cells
            failed += len(result.failures)
            self.failures += [(spec, failure) for failure in result.failures]
            records = result.records
            slot_realizations += len(records) * spec.realizations
            if len(records) != (cells - len(result.failures)) * spec.slots:
                problems.append(f"{len(records)} records, expected {(cells - len(result.failures)) * spec.slots}")
            for start in range(0, len(records) - len(records) % spec.slots, spec.slots):
                cell = records[start:start + spec.slots]
                if [r.slot for r in cell] != list(range(1, spec.slots + 1)):
                    problems.append(f"cell at record {start} has slots {[r.slot for r in cell]}")
                for r in cell:
                    if not _finite(r.mean_sum_mse, r.se_sum_mse, r.mean_sum_rate, r.se_sum_rate):
                        problems.append(f"non-finite record {r}")
                    elif r.mean_sum_mse <= 0 or r.mean_sum_rate < 0 or r.se_sum_mse < 0 or r.se_sum_rate < 0:
                        problems.append(f"out-of-range record {r}")
                    if r.n_realizations != spec.realizations or r.seed != spec.seed:
                        problems.append(f"record {r} does not match the spec")
                if cell[0].m_hat:
                    m_hat = int(cell[0].m_hat)
                    m_hats.append(m_hat)
                    probe_work += sum(m + 2 for m in range(1, m_hat + 1)) * spec.realizations
                if cell[0].scheme == "proposed":
                    final_mse.append(cell[-1].mean_sum_mse)
                    final_rate.append(cell[-1].mean_sum_rate)
        if not final_mse:
            problems.append("no proposed-scheme cell succeeded")
        return PassResult(
            digest=pass_digest.hexdigest(),
            attempted=attempted,
            failed=failed,
            slot_realizations=slot_realizations,
            probe_slot_realizations=probe_work,
            final_sum_mse=float(np.mean(final_mse)) if final_mse else math.nan,
            final_sum_rate=float(np.mean(final_rate)) if final_rate else math.nan,
            m_hat=tuple(m_hats),
            problems=problems,
        )

    def verify(self, result: PassResult) -> list[str]:
        """``run_sweep`` keeps only the text of a cell's error, so each failed
        cell is run again: a failure is expected only from TRAJECTORY_ERRORS."""
        problems = []
        for spec, failure in self.failures:
            cell = (spec, failure["snr_db"], failure["inr_db"], failure["scheme"])
            try:
                fdrelay.harness.run_grid_point(*cell)
            except TRAJECTORY_ERRORS:
                continue
            except Exception as exc:  # noqa: BLE001 - any other error is a bug to report
                problems.append(f"cell {failure}: unexpected {type(exc).__name__}: {exc}")
            else:
                problems.append(f"cell {failure} failed in the sweep but succeeds when run again")
        return problems


class TrajectoryWorkload:
    """``run_trajectory`` per realization and scheme: the per-realization path."""

    def __init__(self, name: str, snr_db: float, inr_db: float, memory: int, slots: int,
                 realizations: int, seed: int):
        self.name = name
        self.snr_db, self.inr_db = snr_db, inr_db
        self.memory, self.slots = memory, slots
        self.realizations, self.seed = realizations, seed
        self.cfg = fdrelay.config_from_snr_inr(snr_db, inr_db, memory=memory)
        self.slot_means: dict[str, list[tuple[float, float]]] = {}  # of the last pass

    def describe(self) -> dict:
        return {
            "kind": "trajectory", "snr_db": self.snr_db, "inr_db": self.inr_db,
            "schemes": list(REFERENCE_SCHEMES), "n_s": self.cfg.n_s, "n_r": self.cfg.n_r,
            "memory": self.memory, "slots": self.slots, "realizations": self.realizations,
            "iterations": self.cfg.max_iterations, "seed": self.seed,
        }

    def warm_up(self):
        for scheme in REFERENCE_SCHEMES:
            fdrelay.run_trajectory(self.cfg, scheme, 2, self.seed, 0)

    @property
    def unit_count(self) -> int:
        return len(REFERENCE_SCHEMES) * self.realizations

    def run_unit(self, index: int):
        """One trajectory: scheme ``index // realizations``, realization ``index % realizations``."""
        scheme = REFERENCE_SCHEMES[index // self.realizations]
        try:
            return fdrelay.run_trajectory(self.cfg, scheme, self.slots, self.seed, index % self.realizations)
        except TRAJECTORY_ERRORS:
            return None

    def run_pass(self) -> PassResult:
        return self.summarize([self.run_unit(i) for i in range(self.unit_count)])

    def summarize(self, outputs) -> PassResult:
        """One pass's result from the ``run_unit`` outputs, in unit order."""
        lines, iterations, problems = [], [], []
        failed = 0
        final_mse, final_rate = [], []
        slot_metrics = {scheme: [] for scheme in REFERENCE_SCHEMES}
        for index, trajectory in enumerate(outputs):
            scheme = REFERENCE_SCHEMES[index // self.realizations]
            r = index % self.realizations
            if trajectory is None:
                failed += 1
                continue
            if len(trajectory.metrics) != self.slots:
                problems.append(f"{scheme} realization {r}: {len(trajectory.metrics)} slots")
            for m in trajectory.metrics:
                if not _finite(m.sum_mse, m.sum_rate) or m.sum_mse <= 0 or m.sum_rate < 0:
                    problems.append(f"{scheme} realization {r}: bad slot metrics {m}")
                lines.append(f"{scheme},{r},{m.slot_index},{m.sum_mse!r},{m.sum_rate!r}\n")
            iterations.extend(s.iterations_used for s in trajectory.solutions)
            slot_metrics[scheme].append([(m.sum_mse, m.sum_rate) for m in trajectory.metrics])
            if scheme == "proposed":
                final_mse.append(trajectory.metrics[-1].sum_mse)
                final_rate.append(trajectory.metrics[-1].sum_rate)
        attempted = len(outputs)
        self.slot_means = {
            scheme: [tuple(v) for v in np.mean(runs, axis=0)] if runs else []
            for scheme, runs in slot_metrics.items()
        }
        if not final_mse:
            problems.append("no proposed-scheme trajectory succeeded")
        return PassResult(
            digest=hashlib.sha256("".join(lines).encode()).hexdigest(),
            attempted=attempted,
            failed=failed,
            slot_realizations=(attempted - failed) * self.slots,
            probe_slot_realizations=0,
            final_sum_mse=float(np.mean(final_mse)) if final_mse else math.nan,
            final_sum_rate=float(np.mean(final_rate)) if final_rate else math.nan,
            iterations_per_slot=float(np.mean(iterations)) if iterations else 0.0,
            capped_slot_fraction=(
                float(np.mean(np.asarray(iterations) >= self.cfg.max_iterations)) if iterations else 0.0
            ),
            problems=problems,
        )

    def verify(self, result: PassResult) -> list[str]:
        """The batched engine, run through ``run_sweep`` on the same inputs, must
        agree with the last pass's per-slot means.  Skipped when a trajectory
        failed: ``run_sweep`` would then fail the whole cell."""
        if result.failed:
            return []
        spec = fdrelay.SweepSpec(
            snr_db=(self.snr_db,), inr_db=(self.inr_db,), schemes=REFERENCE_SCHEMES,
            slots=self.slots, memory=self.memory, realizations=self.realizations,
            iterations=self.cfg.max_iterations, seed=self.seed,
        )
        sweep = fdrelay.run_sweep(spec)
        if sweep.failures:
            return [f"batched engine failed where the per-realization path did not: {sweep.failures}"]
        problems = []
        for record in sweep.records:
            mse, rate = self.slot_means[record.scheme][record.slot - 1]
            for label, got, want in (("mse", record.mean_sum_mse, mse), ("rate", record.mean_sum_rate, rate)):
                if abs(got - want) > PATH_AGREEMENT_RTOL * max(1.0, abs(want)):
                    problems.append(
                        f"{record.scheme} slot {record.slot} mean {label}: engine {got!r}, "
                        f"per-realization path {want!r}"
                    )
        return problems


# Why each exists: BENCHMARK.json and README.md.
WORKLOADS = ("paper_sweep", "large_relay", "memory_horizon", "reference_path")
# Seed offset between the units of one workload (see make_workload).
UNIT_SEED_STRIDE = 1000


def make_workload(name: str, seed: int, out_dir: str, tiny: bool = False):
    """The workload ``name`` with inputs drawn from ``seed``; ``tiny`` for smoke tests.

    Units are kept short (0.1-2.5 s on a 2-vCPU Xeon) so that a run times
    each unit many times; see README.md for the sizes and why.  Where a
    workload has several units of one cell, unit ``u`` draws its channels
    from seed ``seed + UNIT_SEED_STRIDE * u``, so a pass averages over
    independent draws.
    """
    def spec(unit=0, **fields):
        return fdrelay.SweepSpec(seed=seed + UNIT_SEED_STRIDE * unit, iterations=30, n_s=2, **fields)

    if name == "paper_sweep":
        # One unit per scheme.  Thinned along slots, not realizations: the
        # batched engine vectorizes over realizations, so the paper's batch
        # width of 100 is kept.
        return SweepWorkload(name, [
            spec(snr_db=(5.0,), inr_db=(10.0,), schemes=(scheme,), n_r=5, slots=2,
                 realizations=2 if tiny else 100)
            for scheme in PAPER_SCHEMES
        ], out_dir)
    if name == "large_relay":
        return SweepWorkload(name, [
            spec(unit, snr_db=(5.0,), inr_db=(10.0,), schemes=("proposed",), n_r=6 if tiny else 12,
                 slots=2 if tiny else 3, realizations=2 if tiny else 4)
            for unit in range(2 if tiny else 4)
        ], out_dir)
    if name == "memory_horizon":
        return SweepWorkload(name, [
            spec(unit, snr_db=(-10.0,), inr_db=(0.0,), schemes=("proposed",), n_r=5, slots=4 if tiny else 10,
                 memory=fdrelay.MEMORY_AUTO, realizations=4 if tiny else 20)
            for unit in range(2 if tiny else 3)
        ], out_dir)
    if name == "reference_path":
        return TrajectoryWorkload(
            name, 5.0, 10.0, memory=3, slots=4 if tiny else 10,
            realizations=2 if tiny else 20, seed=seed,
        )
    raise ValueError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")
