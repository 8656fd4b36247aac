import ctypes
import glob
import json
import math
import os
import sys

import pytest

from fdrelay import harness
from fdrelay.channel import config_from_snr_inr
from fdrelay.harness import (
    SweepRecord,
    SweepResult,
    SweepSpec,
    emit_results,
    memory_from_str,
    read_records_csv,
    read_records_json,
    run_grid_point,
    run_sweep,
)

TINY = dict(n_s=1, n_r=2, slots=2, realizations=2, iterations=8, seed=3)


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(snr_db=(), inr_db=(0.0,))
    with pytest.raises(ValueError):
        SweepSpec(snr_db=(0.0,), inr_db=(0.0,), realizations=0)
    with pytest.raises(ValueError):
        SweepSpec(snr_db=(0.0,), inr_db=(0.0,), schemes=("nope",))
    # an empty scheme list, or a repeated grid value or scheme, would write no or duplicate records
    for bad in (dict(schemes=()), dict(schemes=("proposed", "proposed")),
                dict(snr_db=(0.0, 0.0)), dict(snr_db=(0.0, 5.0, -0.0)), dict(inr_db=(-math.inf, -math.inf))):
        with pytest.raises(ValueError):
            SweepSpec(**{"snr_db": (0.0,), "inr_db": (0.0,), **bad})
    for memory in (0, -3, 2.5, "never"):
        with pytest.raises(ValueError):
            SweepSpec(snr_db=(0.0,), inr_db=(0.0,), memory=memory)


def test_spec_rejects_what_its_system_config_rejects():
    # refused when the spec is built instead of failing in every cell
    for bad in (dict(iterations=0), dict(n_r=0), dict(n_s=0), dict(convergence_tol=-1.0)):
        with pytest.raises(ValueError):
            SweepSpec(snr_db=(0.0,), inr_db=(0.0,), **bad)


@pytest.mark.parametrize("memory, cfg_memory", [("auto", math.inf), (math.inf, math.inf), (3, 3)])
def test_spec_config_of_a_grid_point(memory, cfg_memory):
    spec = SweepSpec(snr_db=(0.0, 10.0), inr_db=(-5.0,), memory=memory, **TINY)
    assert spec.config(10.0, -5.0) == config_from_snr_inr(
        10.0, -5.0, n_s=1, n_r=2, memory=cfg_memory, max_iterations=8, convergence_tol=1e-8)


def test_memory_string_roundtrip():
    assert memory_from_str("inf") == math.inf
    assert memory_from_str("auto") == "auto"
    assert memory_from_str("4") == 4


def test_record_count_matches_grid():
    spec = SweepSpec(snr_db=(0.0,), inr_db=(0.0,),
                     schemes=("proposed", "half_duplex"), **TINY)
    result = run_sweep(spec)
    assert result.ok()
    assert len(result.records) == 2 * spec.slots
    slots = {(r.scheme, r.slot) for r in result.records}
    assert slots == {("proposed", 1), ("proposed", 2), ("half_duplex", 1), ("half_duplex", 2)}


def test_paired_channels_across_schemes_and_memory():
    base = dict(snr_db=(2.0,), inr_db=(-3.0,), **TINY)
    proposed = run_grid_point(SweepSpec(schemes=("proposed",), **base), 2.0, -3.0, "proposed")
    conventional = run_grid_point(SweepSpec(schemes=("conventional",), **base), 2.0, -3.0, "conventional")
    # slot 1 has no history: identical designs on identical draws
    assert proposed[0].mean_sum_mse == pytest.approx(conventional[0].mean_sum_mse, rel=1e-12)
    assert proposed[0].mean_sum_rate == pytest.approx(conventional[0].mean_sum_rate, rel=1e-12)


def test_failure_isolation_keeps_other_points(monkeypatch):
    import fdrelay.harness as harness_module

    real = harness_module.run_trajectories_batch

    def flaky(cfg, scheme, slots, seed, realizations):
        if abs(cfg.sigma_n_sq_r - 1.0) < 1e-12:  # the 0 dB grid point
            raise RuntimeError("injected failure")
        return real(cfg, scheme, slots, seed, realizations)

    monkeypatch.setattr(harness_module, "run_trajectories_batch", flaky)
    spec = SweepSpec(snr_db=(0.0, 5.0), inr_db=(0.0,), schemes=("proposed",), **TINY)
    result = run_sweep(spec)
    assert not result.ok()
    assert len(result.failures) == 1
    assert result.failures[0]["snr_db"] == 0.0
    assert "injected failure" in result.failures[0]["error"]
    assert len(result.records) == spec.slots  # the 5 dB point survived


def test_emit_csv_roundtrip(tmp_path):
    spec = SweepSpec(snr_db=(0.0,), inr_db=(0.0,), schemes=("proposed",), **TINY)
    result = run_sweep(spec)
    path = tmp_path / "out.csv"
    emit_results(result, "csv", str(path))
    parsed = read_records_csv(str(path))
    assert parsed == result.records


def test_emit_json_roundtrip(tmp_path):
    spec = SweepSpec(snr_db=(0.0,), inr_db=(0.0,), schemes=("proposed",), **TINY)
    result = run_sweep(spec)
    path = tmp_path / "out.json"
    emit_results(result, "json", str(path))
    parsed = read_records_json(str(path))
    assert parsed == result.records
    with open(path) as handle:
        payload = json.load(handle)
    assert isinstance(payload, list)
    assert set(payload[0]) == set(SweepRecord.__dataclass_fields__)


def test_empty_result_emits_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_results(SweepResult(), "csv", str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("snr_db,inr_db,scheme,slot,m,")


def test_emission_is_deterministic(tmp_path):
    spec = SweepSpec(snr_db=(0.0,), inr_db=(0.0,), schemes=("proposed",), **TINY)
    result = run_sweep(spec)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_results(result, "csv", str(p1))
    emit_results(result, "csv", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_unwritable_path_reports_context():
    with pytest.raises(OSError, match="no/such/dir"):
        emit_results(SweepResult(), "csv", "no/such/dir/out.csv")


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        emit_results(SweepResult(), "xml", str(tmp_path / "x"))


def test_parallel_equals_serial(tmp_path):
    spec = SweepSpec(snr_db=(0.0, 4.0), inr_db=(-2.0, 2.0),
                     schemes=("proposed", "conventional"), **TINY)
    serial = run_sweep(spec, jobs=1)
    parallel = run_sweep(spec, jobs=2)
    p1, p2 = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    emit_results(serial, "csv", str(p1))
    emit_results(parallel, "csv", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


# (package, bundled-library directory, file pattern, thread-count symbol)
_OPENBLAS = (
    ("numpy", "numpy.libs", "libscipy_openblas64_*.so*", "scipy_openblas_get_num_threads64_"),
    ("scipy", "scipy.libs", "libscipy_openblas-*.so*", "scipy_openblas_get_num_threads"),
)


def _openblas_threads():
    """Thread counts of the OpenBLAS copies bundled with numpy and scipy, asked through ctypes."""
    import scipy.linalg  # noqa: F401 - loads scipy's copy

    counts = {}
    for package, libs_dir, pattern, symbol in _OPENBLAS:
        site = os.path.dirname(os.path.dirname(sys.modules[package].__file__))
        paths = sorted(glob.glob(os.path.join(site, libs_dir, pattern)))
        if paths:
            get_threads = getattr(ctypes.CDLL(paths[0]), symbol)
            get_threads.argtypes = []
            get_threads.restype = ctypes.c_int
            counts[package] = get_threads()
    return counts


def test_sweep_workers_run_one_blas_thread():
    if len(_openblas_threads()) != len(_OPENBLAS):
        pytest.skip("numpy's or scipy's bundled OpenBLAS not found")
    with harness._worker_pool(2) as pool:
        counts = pool.apply_async(_openblas_threads).get(timeout=60)
    assert counts == {"numpy": 1, "scipy": 1}


def test_auto_memory_records_selection():
    spec = SweepSpec(snr_db=(0.0,), inr_db=(-math.inf,), schemes=("proposed",),
                     memory="auto", **TINY)
    result = run_sweep(spec)
    assert result.ok()
    record = result.records[0]
    assert record.m_hat == "1"
    assert record.m == "1"


def test_records_carry_seed_and_config_hash():
    spec = SweepSpec(snr_db=(0.0,), inr_db=(0.0,), schemes=("proposed",), **TINY)
    result = run_sweep(spec)
    assert all(r.seed == spec.seed for r in result.records)
    assert all(r.config_hash == spec.config_hash() for r in result.records)
    other = SweepSpec(snr_db=(1.0,), inr_db=(0.0,), schemes=("proposed",), **TINY)
    assert other.config_hash() != spec.config_hash()


def test_half_duplex_record_independent_of_inr():
    spec = SweepSpec(snr_db=(3.0,), inr_db=(-5.0, 5.0), schemes=("half_duplex",), **TINY)
    result = run_sweep(spec)
    by_inr = {}
    for record in result.records:
        by_inr.setdefault(record.inr_db, []).append(record.mean_sum_rate)
    rates = list(by_inr.values())
    assert rates[0] == pytest.approx(rates[1], rel=1e-12)
