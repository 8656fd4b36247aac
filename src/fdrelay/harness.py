"""Monte Carlo sweep driver and figure-data emission.

A sweep evaluates every (SNR, INR, scheme) grid point over paired channel
realizations and aggregates per-slot means and standard errors.  Channel
draws are keyed only by (seed, realization, slot), so schemes, memory values
and grid points are compared on identical fading; parallel execution maps
over whole grid points and therefore reproduces the serial result bit for
bit.  A failing grid point is recorded and skipped rather than aborting the
sweep.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .channel import MEMORY_AUTO, MEMORY_INFINITE, SystemConfig, config_from_snr_inr
from .engine import MEMORY_SCHEMES, SCHEMES, run_trajectories_batch
from .memory_select import select_memory

__all__ = [
    "SweepSpec",
    "SweepRecord",
    "SweepResult",
    "run_sweep",
    "emit_results",
    "read_records_csv",
    "read_records_json",
]

CSV_COLUMNS = (
    "snr_db", "inr_db", "scheme", "slot", "m",
    "mean_sum_mse", "se_sum_mse", "mean_sum_rate", "se_sum_rate",
    "n_realizations", "m_hat", "seed", "config_hash",
)


@dataclass(frozen=True)
class SweepSpec:
    """Full description of one sweep (also the config-file schema)."""

    snr_db: tuple[float, ...]
    inr_db: tuple[float, ...]
    schemes: tuple[str, ...] = ("proposed",)
    n_s: int = 2
    n_r: int = 5
    slots: int = 10
    memory: int | float | str = MEMORY_INFINITE
    realizations: int = 100
    iterations: int = 30
    convergence_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "snr_db", tuple(float(v) for v in self.snr_db))
        object.__setattr__(self, "inr_db", tuple(float(v) for v in self.inr_db))
        object.__setattr__(self, "schemes", tuple(self.schemes))
        if not self.snr_db or not self.inr_db or not self.schemes:
            raise ValueError("SNR grid, INR grid and scheme list must be non-empty")
        for name in ("snr_db", "inr_db", "schemes"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError(f"{name} repeats a value: {values}")
        if self.realizations < 1 or self.slots < 1:
            raise ValueError("realizations and slots must be >= 1")
        for snr_db, inr_db in itertools.product(self.snr_db, self.inr_db):
            self.config(snr_db, inr_db)
        unknown = set(self.schemes) - set(SCHEMES)
        if unknown:
            raise ValueError(f"unknown schemes {sorted(unknown)}; valid: {SCHEMES}")

    def config(self, snr_db: float, inr_db: float) -> SystemConfig:
        """System configuration of grid point (``snr_db``, ``inr_db``); memory 'auto' runs as infinite."""
        return config_from_snr_inr(
            snr_db, inr_db,
            n_s=self.n_s, n_r=self.n_r,
            memory=MEMORY_INFINITE if self.memory == MEMORY_AUTO else self.memory,
            max_iterations=self.iterations,
            convergence_tol=self.convergence_tol,
        )

    def config_hash(self) -> str:
        payload = asdict(self)
        payload["memory"] = _memory_to_str(self.memory)
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()[:12]


@dataclass(frozen=True)
class SweepRecord:
    """One aggregated (grid point, scheme, slot) row."""

    snr_db: float
    inr_db: float
    scheme: str
    slot: int
    m: str
    mean_sum_mse: float
    se_sum_mse: float
    mean_sum_rate: float
    se_sum_rate: float
    n_realizations: int
    m_hat: str
    seed: int
    config_hash: str


@dataclass
class SweepResult:
    records: list[SweepRecord] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.failures


def _memory_to_str(memory) -> str:
    if memory == MEMORY_INFINITE:
        return "inf"
    if memory == MEMORY_AUTO:
        return "auto"
    return str(int(memory))


def memory_from_str(text: str):
    if text == "inf":
        return MEMORY_INFINITE
    if text == "auto":
        return MEMORY_AUTO
    return int(text)


def _mean_se(arr: np.ndarray) -> tuple[float, float]:
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return mean, se


def run_grid_point(spec: SweepSpec, snr_db: float, inr_db: float, scheme: str) -> list[SweepRecord]:
    """All per-slot records of one (grid point, scheme) cell.

    A memory-'auto' cell runs at the memory the search selects.  The search
    runs the proposed scheme, so a proposed cell resumes its winning branch,
    which has already run slots 1..m_hat+2 at that memory; a relay_only cell
    starts from slot 1.
    """
    cfg = spec.config(snr_db, inr_db)
    m_hat = ""
    resume = {}  # other cells keep the five-argument call
    if spec.memory == MEMORY_AUTO and scheme in MEMORY_SCHEMES:
        selection = select_memory(cfg, seed=spec.seed, realizations=spec.realizations)
        cfg = cfg.with_memory(selection.m_hat)
        m_hat = str(selection.m_hat)
        if scheme == "proposed":
            resume = {"start": selection.branch}

    stats = run_trajectories_batch(
        cfg, scheme, spec.slots, seed=spec.seed, realizations=spec.realizations, **resume
    )

    m_display = _memory_to_str(cfg.memory) if scheme in MEMORY_SCHEMES else ""
    config_hash = spec.config_hash()
    records = []
    for k in range(spec.slots):
        mean_mse, se_mse = _mean_se(stats.sum_mse[k])
        mean_rate, se_rate = _mean_se(stats.sum_rate[k])
        records.append(
            SweepRecord(
                snr_db=snr_db,
                inr_db=inr_db,
                scheme=scheme,
                slot=k + 1,
                m=m_display,
                mean_sum_mse=mean_mse,
                se_sum_mse=se_mse,
                mean_sum_rate=mean_rate,
                se_sum_rate=se_rate,
                n_realizations=spec.realizations,
                m_hat=m_hat,
                seed=spec.seed,
                config_hash=config_hash,
            )
        )
    return records


# Tasks are small dense kernels, so each worker runs one BLAS thread.
_WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _worker_pool(jobs: int) -> "multiprocessing.pool.Pool":
    """A pool of ``jobs`` freshly started processes, each with one BLAS thread.

    OpenBLAS reads its thread count once, when it loads, and a forked worker
    inherits the parent's already loaded copy.  The workers are therefore
    spawned, and ``_WORKER_ENV`` is in this process's environment only while
    they start (the pool starts all of them in its constructor).
    """
    import multiprocessing  # only parallel sweeps pay for loading it

    saved = {name: os.environ.get(name) for name in _WORKER_ENV}
    os.environ.update(_WORKER_ENV)
    try:
        return multiprocessing.get_context("spawn").Pool(jobs)
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Run every (SNR, INR, scheme) cell; record failures without aborting.

    ``jobs > 1`` maps grid points over a process pool; aggregation order is
    fixed by the task list, so the result is identical to a serial run.
    """
    tasks = [
        (spec, snr, inr, scheme)
        for snr in spec.snr_db
        for inr in spec.inr_db
        for scheme in spec.schemes
    ]
    result = SweepResult()

    def record_outcome(task, outcome, error):
        _, snr, inr, scheme = task
        if error is None:
            result.records.extend(outcome)
        else:
            result.failures.append({"snr_db": snr, "inr_db": inr, "scheme": scheme, "error": str(error)})

    if jobs <= 1:
        for task in tasks:
            try:
                record_outcome(task, run_grid_point(*task), None)
            except Exception as exc:  # noqa: BLE001 - failure isolation per grid point
                record_outcome(task, None, exc)
        return result

    with _worker_pool(jobs) as pool:
        pending = [pool.apply_async(run_grid_point, task) for task in tasks]
        for task, outcome in zip(tasks, pending):
            try:
                record_outcome(task, outcome.get(), None)
            except Exception as exc:  # noqa: BLE001
                record_outcome(task, None, exc)
    return result


def _record_to_row(record: SweepRecord) -> list[str]:
    return [str(getattr(record, name)) for name in CSV_COLUMNS]


def emit_results(result: SweepResult, fmt: str, path: str) -> str:
    """Write aggregated records to ``path`` as csv or json; returns the path.

    Emission is deterministic: the same result always produces byte-identical
    files.  Failures are not part of the record schema; they are surfaced by
    the caller (see the CLI exit code).
    """
    try:
        if fmt == "csv":
            with open(path, "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(CSV_COLUMNS)
                for record in result.records:
                    writer.writerow(_record_to_row(record))
        elif fmt == "json":
            payload = [
                {name: getattr(record, name) for name in CSV_COLUMNS}
                for record in result.records
            ]
            with open(path, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=False)
                handle.write("\n")
        else:
            raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")
    except OSError as exc:
        raise OSError(f"cannot write results to {path!r}: {exc}") from exc
    return path


_FIELD_TYPES = {f.name: f.type for f in fields(SweepRecord)}


def _coerce(name: str, text: str):
    kind = _FIELD_TYPES[name]
    if kind == "float":
        return float(text)
    if kind == "int":
        return int(text)
    return text


def read_records_csv(path: str) -> list[SweepRecord]:
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        return [
            SweepRecord(**{name: _coerce(name, row[name]) for name in CSV_COLUMNS})
            for row in reader
        ]


def read_records_json(path: str) -> list[SweepRecord]:
    with open(path) as handle:
        payload = json.load(handle)
    return [SweepRecord(**entry) for entry in payload]
