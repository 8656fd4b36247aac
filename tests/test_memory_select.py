import math

import numpy as np
import pytest

from fdrelay import engine
from fdrelay.channel import config_from_snr_inr
from fdrelay.engine import _run_trajectories, run_trajectories_batch
from fdrelay.harness import SweepSpec, run_grid_point
from fdrelay.memory_select import NoStableMemoryError, select_memory


def test_zero_error_variance_selects_smallest_memory():
    cfg = config_from_snr_inr(0.0, -math.inf, n_s=1, n_r=2)
    selection = select_memory(cfg, seed=0, realizations=50)
    assert selection.m_hat == 1
    assert selection.probes[0].stable


def test_selection_is_deterministic():
    cfg = config_from_snr_inr(0.0, 0.0, n_s=1, n_r=2)
    a = select_memory(cfg, seed=3, realizations=40)
    b = select_memory(cfg, seed=3, realizations=40)
    assert a.m_hat == b.m_hat
    assert [(p.j_at_m_plus_1, p.j_at_m_plus_2) for p in a.probes] == [
        (p.j_at_m_plus_1, p.j_at_m_plus_2) for p in b.probes
    ]


def test_single_realization_is_supported():
    cfg = config_from_snr_inr(0.0, 0.0, n_s=1, n_r=2)
    selection = select_memory(cfg, seed=1, realizations=1)
    assert selection.m_hat >= 1


def test_probe_records_are_consistent():
    cfg = config_from_snr_inr(0.0, 0.0, n_s=1, n_r=2)
    selection = select_memory(cfg, seed=2, realizations=30)
    assert [p.candidate for p in selection.probes] == list(
        range(1, selection.m_hat + 1)
    )
    assert selection.probes[-1].stable
    assert all(not p.stable for p in selection.probes[:-1])


def test_candidate_cap_raises():
    cfg = config_from_snr_inr(-10.0, 5.0, n_s=2, n_r=5)
    with pytest.raises(NoStableMemoryError):
        # strong interference keeps the drop significant past any tiny cap
        select_memory(cfg, seed=0, realizations=400, max_candidate=2)


def test_rejects_zero_realizations():
    cfg = config_from_snr_inr(0.0, 0.0, n_s=1, n_r=2)
    with pytest.raises(ValueError):
        select_memory(cfg, seed=0, realizations=0)


def _restarted_search(cfg, seed, realizations, significance=1.0):
    """The search as a fresh memory-m run of m+2 slots per candidate."""
    probes = []
    for m in range(1, 33):
        stats = run_trajectories_batch(cfg.with_memory(m), "proposed", m + 2, seed, realizations)
        diffs = stats.sum_mse[m] - stats.sum_mse[m + 1]
        stderr = float(diffs.std(ddof=1) / math.sqrt(realizations))
        stable = float(diffs.mean()) <= significance * stderr + 1e-12
        probes.append((stats.sum_mse[m].mean(), stats.sum_mse[m + 1].mean(), stderr, stable))
        if stable:
            return m, probes
    raise AssertionError("no stable memory")


@pytest.mark.parametrize("snr_db, inr_db", [(20.0, 10.0), (-10.0, 0.0)])
@pytest.mark.parametrize("memory", [1, 2, 3])
def test_memory_window_prefix_equals_infinite_memory(snr_db, inr_db, memory):
    # the window first truncates at slot m+2, so slots 1..m+1 are the infinite-memory run
    cfg = config_from_snr_inr(snr_db, inr_db, n_s=2, n_r=3)
    full = _run_trajectories(cfg, "proposed", memory + 2, 5, range(3))
    windowed = _run_trajectories(cfg.with_memory(memory), "proposed", memory + 2, 5, range(3))
    prefix = slice(0, memory + 1)
    assert np.array_equal(windowed.sum_mse[prefix], full.sum_mse[prefix])
    assert np.array_equal(windowed.rates[prefix], full.rates[prefix])
    for dw, df in zip(windowed.designs[prefix], full.designs[prefix]):
        for name in ("z", "q", "p", "alpha", "r"):
            assert np.array_equal(getattr(dw, name), getattr(df, name))
    # slot m+2 is where they part
    assert not np.array_equal(windowed.sum_mse[memory + 1], full.sum_mse[memory + 1])


@pytest.mark.parametrize("snr_db, inr_db", [(-10.0, -math.inf), (-10.0, 0.0), (0.0, 0.0)])
def test_search_matches_restarting_every_candidate(snr_db, inr_db):
    cfg = config_from_snr_inr(snr_db, inr_db, n_s=1, n_r=2)
    m_hat, expected = _restarted_search(cfg, seed=3, realizations=60)
    selection = select_memory(cfg, seed=3, realizations=60)
    assert selection.m_hat == m_hat
    assert len(selection.probes) == len(expected)
    for probe, (j1, j2, stderr, stable) in zip(selection.probes, expected):
        assert probe.stable == stable
        assert probe.j_at_m_plus_1 == pytest.approx(j1, rel=1e-12)
        assert probe.j_at_m_plus_2 == pytest.approx(j2, rel=1e-12)
        assert probe.diff_stderr == pytest.approx(stderr, rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("scheme", ["proposed", "relay_only"])
def test_auto_memory_cell_equals_a_run_at_the_selected_memory(scheme):
    # seed 0 selects m_hat = 3
    slots = 8
    spec = SweepSpec(snr_db=(-10.0,), inr_db=(0.0,), schemes=(scheme,), n_s=1, n_r=2, slots=slots,
                     memory="auto", realizations=100, seed=0)
    records = run_grid_point(spec, -10.0, 0.0, scheme)
    assert {r.m_hat for r in records} == {"3"}
    cfg = config_from_snr_inr(-10.0, 0.0, n_s=1, n_r=2).with_memory(3)
    stats = run_trajectories_batch(cfg, scheme, slots, seed=0, realizations=100)
    assert [r.slot for r in records] == list(range(1, slots + 1))
    for record, mse, rate in zip(records, stats.sum_mse, stats.sum_rate):
        assert record.m == "3"
        assert record.mean_sum_mse == pytest.approx(mse.mean(), rel=1e-12)
        assert record.se_sum_mse == pytest.approx(mse.std(ddof=1) / math.sqrt(100), rel=1e-9)
        assert record.mean_sum_rate == pytest.approx(rate.mean(), rel=1e-12)
        assert record.se_sum_rate == pytest.approx(rate.std(ddof=1) / math.sqrt(100), rel=1e-9)


def test_search_designs_each_slot_once(monkeypatch):
    # one shared infinite-memory pass to slot m_hat+1 plus one branched slot
    # per candidate: 2 m_hat + 1 slot designs (restarting costs m_hat (m_hat + 5) / 2)
    calls = []
    real = engine.design_slot_batch

    def counted(problem, pin_receive=False):
        calls.append(pin_receive)
        return real(problem, pin_receive)

    monkeypatch.setattr(engine, "design_slot_batch", counted)
    cfg = config_from_snr_inr(-10.0, 5.0, n_s=1, n_r=2)
    selection = select_memory(cfg, seed=0, realizations=40)
    assert selection.m_hat >= 3
    assert len(calls) == 2 * selection.m_hat + 1


def _auto_cell(scheme, slots):
    # seed 0 selects m_hat = 3
    return SweepSpec(snr_db=(-10.0,), inr_db=(0.0,), schemes=(scheme,), n_s=1, n_r=2, slots=slots,
                     memory="auto", realizations=100, seed=0)


@pytest.mark.parametrize("slots", [8, 2])
def test_resumed_auto_cell_equals_a_fresh_run_exactly(slots):
    # the proposed cell continues the search's winning branch; its numbers
    # are those of a fresh run at m_hat to the last bit
    records = run_grid_point(_auto_cell("proposed", slots), -10.0, 0.0, "proposed")
    cfg = config_from_snr_inr(-10.0, 0.0, n_s=1, n_r=2).with_memory(3)
    stats = run_trajectories_batch(cfg, "proposed", slots, seed=0, realizations=100)
    assert [r.slot for r in records] == list(range(1, slots + 1))
    assert {r.m_hat for r in records} == {"3"}
    for record, mse, rate in zip(records, stats.sum_mse, stats.sum_rate):
        assert record.mean_sum_mse == float(mse.mean())
        assert record.se_sum_mse == float(mse.std(ddof=1) / math.sqrt(100))
        assert record.mean_sum_rate == float(rate.mean())
        assert record.se_sum_rate == float(rate.std(ddof=1) / math.sqrt(100))


@pytest.mark.parametrize("slots", [8, 2])
@pytest.mark.parametrize("scheme", ["proposed", "relay_only"])
def test_auto_cell_designs_only_the_slots_the_search_did_not(monkeypatch, scheme, slots):
    calls = []
    real = engine.design_slot_batch

    def counted(problem, pin_receive=False):
        calls.append(pin_receive)
        return real(problem, pin_receive)

    monkeypatch.setattr(engine, "design_slot_batch", counted)
    records = run_grid_point(_auto_cell(scheme, slots), -10.0, 0.0, scheme)
    m_hat = 3
    assert len(records) == slots
    search = 2 * m_hat + 1
    if scheme == "proposed":
        assert len(calls) == search + max(0, slots - m_hat - 2)
    else:
        assert len(calls) == search + slots


def test_resuming_leaves_the_selection_unchanged():
    spec = _auto_cell("proposed", 8)
    first = run_grid_point(spec, -10.0, 0.0, "proposed")
    assert run_grid_point(spec, -10.0, 0.0, "proposed") == first

    cfg = config_from_snr_inr(-10.0, 0.0, n_s=1, n_r=2)
    selection = select_memory(cfg, seed=0, realizations=100)
    assert selection.branch.slot == selection.m_hat + 2
    cfg = cfg.with_memory(selection.m_hat)
    runs = [run_trajectories_batch(cfg, "proposed", 8, seed=0, realizations=100, start=selection.branch)
            for _ in range(2)]
    assert selection.branch.slot == selection.m_hat + 2
    for name in ("sum_mse", "sum_rate"):
        assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name))


def test_resuming_other_realizations_raises():
    cfg = config_from_snr_inr(0.0, -math.inf, n_s=1, n_r=2)
    selection = select_memory(cfg, seed=0, realizations=5)
    cfg = cfg.with_memory(selection.m_hat)
    for seed, realizations in ((1, 5), (0, 4)):
        with pytest.raises(ValueError):
            run_trajectories_batch(cfg, "proposed", 4, seed=seed, realizations=realizations, start=selection.branch)
