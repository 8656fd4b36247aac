import math

import numpy as np
import pytest

from fdrelay.beamforming import (
    build_slot_operators,
    evaluate_sum_mse,
    solve_receive_beamformers,
)
from fdrelay.channel import config_from_snr_inr
from fdrelay.engine import run_trajectories_batch
from fdrelay.metrics import achievable_sum_rate
from fdrelay.si_propagation import RelayHistory, ResidualSICovariance, residual_si_covariance
from fdrelay.simulate import run_trajectory


def test_requires_resolved_memory():
    cfg = config_from_snr_inr(5.0, 0.0, n_s=1, n_r=2, memory="auto")
    with pytest.raises(ValueError):
        run_trajectory(cfg, "proposed", slots=2, seed=0)


def test_rejects_unknown_scheme(small_cfg):
    with pytest.raises(ValueError):
        run_trajectory(small_cfg, "mystery", slots=2, seed=0)


def test_single_slot_trajectory_has_zero_residual_si(small_cfg):
    result = run_trajectory(small_cfg, "proposed", slots=1, seed=0)
    assert len(result.solutions) == 1
    assert len(result.metrics) == 1
    # slot 1 design equals the conventional one: no history yet
    conventional = run_trajectory(small_cfg, "conventional", slots=1, seed=0)
    assert np.array_equal(result.solutions[0].f, conventional.solutions[0].f)


def test_same_seed_gives_identical_channels_across_schemes(small_cfg):
    a = run_trajectory(small_cfg, "proposed", slots=3, seed=5)
    b = run_trajectory(small_cfg, "conventional", slots=3, seed=5)
    c = run_trajectory(small_cfg, "half_duplex", slots=3, seed=5)
    for ch_a, ch_b, ch_c in zip(a.channels, b.channels, c.channels):
        assert np.array_equal(ch_a.h_1r, ch_b.h_1r)
        assert np.array_equal(ch_a.h_1r, ch_c.h_1r)


def test_zero_loopback_error_makes_proposed_equal_conventional():
    cfg = config_from_snr_inr(5.0, -math.inf, n_s=2, n_r=3)
    proposed = run_trajectory(cfg, "proposed", slots=4, seed=6)
    conventional = run_trajectory(cfg, "conventional", slots=4, seed=6)
    for sp, sc in zip(proposed.solutions, conventional.solutions):
        assert np.max(np.abs(sp.f - sc.f)) <= 1e-10
        assert np.max(np.abs(sp.r1 - sc.r1)) <= 1e-10
        assert abs(sp.j_value - sc.j_value) <= 1e-10


def test_memory_covering_history_equals_infinite(small_cfg):
    slots = 4
    full = run_trajectory(small_cfg.with_memory(math.inf), "proposed", slots=slots, seed=7)
    covered = run_trajectory(small_cfg.with_memory(slots - 1), "proposed", slots=slots, seed=7)
    for sf, sc in zip(full.solutions, covered.solutions):
        assert np.max(np.abs(sf.f - sc.f)) <= 1e-12
        assert abs(sf.j_value - sc.j_value) <= 1e-12
    for mf, mc in zip(full.metrics, covered.metrics):
        assert abs(mf.sum_mse - mc.sum_mse) <= 1e-12
        assert abs(mf.sum_rate - mc.sum_rate) <= 1e-12


def test_truncated_memory_changes_later_slots(small_cfg):
    full = run_trajectory(small_cfg.with_memory(math.inf), "proposed", slots=5, seed=8)
    short = run_trajectory(small_cfg.with_memory(1), "proposed", slots=5, seed=8)
    assert np.max(np.abs(full.solutions[1].f - short.solutions[1].f)) <= 1e-12
    assert np.max(np.abs(full.solutions[3].f - short.solutions[3].f)) > 1e-9


def test_reported_mse_uses_untruncated_covariance(small_cfg):
    # for the conventional scheme the design believes G_c = 0, but the
    # reported error must reflect the real accumulated interference
    traj = run_trajectory(small_cfg, "conventional", slots=3, seed=9)
    assert traj.metrics[2].sum_mse > traj.solutions[2].j_value


def test_half_duplex_scheme_reports_metrics_only(small_cfg):
    result = run_trajectory(small_cfg, "half_duplex", slots=3, seed=10)
    assert len(result.metrics) == 3
    assert len(result.solutions) == 0
    assert all(m.scheme == "half_duplex" for m in result.metrics)


def test_relay_only_scheme_produces_lower_rate_than_joint(small_cfg):
    joint = run_trajectory(small_cfg, "proposed", slots=3, seed=11)
    relay_only = run_trajectory(small_cfg, "relay_only", slots=3, seed=11)
    assert all(
        ro.sum_mse >= j.sum_mse - 1e-9
        for ro, j in zip(relay_only.metrics, joint.metrics)
    )


@pytest.mark.parametrize("scheme", ["proposed", "conventional", "relay_only", "half_duplex"])
@pytest.mark.parametrize("memory", [math.inf, 2])
def test_batched_engine_matches_reference(scheme, memory):
    cfg = config_from_snr_inr(3.0, -2.0, n_s=2, n_r=3).with_memory(memory)
    stats = run_trajectories_batch(cfg, scheme, slots=5, seed=11, realizations=3)
    for r in range(3):
        reference = run_trajectory(cfg, scheme, slots=5, seed=11, realization=r)
        mse_ref = np.array([m.sum_mse for m in reference.metrics])
        rate_ref = np.array([m.sum_rate for m in reference.metrics])
        assert np.allclose(stats.sum_mse[:, r], mse_ref, rtol=1e-10, atol=1e-12)
        assert np.allclose(stats.sum_rate[:, r], rate_ref, rtol=1e-10, atol=1e-12)


def test_batched_engine_respects_convergence_tolerance():
    cfg = config_from_snr_inr(5.0, 0.0, n_s=2, n_r=3, convergence_tol=1e-3)
    stats = run_trajectories_batch(cfg, "proposed", slots=2, seed=3, realizations=4)
    for r in range(4):
        reference = run_trajectory(cfg, "proposed", slots=2, seed=3, realization=r)
        assert np.allclose(
            stats.sum_mse[:, r],
            [m.sum_mse for m in reference.metrics],
            rtol=1e-12,
        )


@pytest.mark.parametrize("scheme", ["proposed", "conventional", "relay_only"])
@pytest.mark.parametrize("memory", [math.inf, 2])
def test_trajectory_matches_per_realization_formulas(scheme, memory):
    # every slot of the engine's loop, rebuilt through the per-realization entry points: the
    # history's SI scale, the realized-chain rate and the conventional recalibration
    cfg = config_from_snr_inr(3.0, 4.0, n_s=2, n_r=3).with_memory(memory)
    traj = run_trajectory(cfg, scheme, slots=5, seed=13, realization=1)
    channels, solutions = traj.channels, traj.solutions
    zero = ResidualSICovariance.zero(cfg.n_r)
    budget = cfg.n_r * cfg.pr
    history = RelayHistory(cfg.n_r)

    def close(value, reference):
        return abs(value - reference) <= 1e-10 * abs(reference)

    for t, (sol, metrics) in enumerate(zip(solutions, traj.metrics), start=1):
        ch_t, ch_prev = channels[t], channels[t - 1]
        g_true = residual_si_covariance(history, cfg, t=t, memory=math.inf)
        ops_true = build_slot_operators(ch_t, ch_prev, g_true, sol.r1, sol.r2, cfg)
        assert close(metrics.sum_mse, evaluate_sum_mse(ops_true, sol.f_bar, sol.alpha, sol.r1, sol.r2, cfg))

        rate = achievable_sum_rate(channels[: t + 1], [s.f for s in solutions[:t]], sol, cfg)
        for value, reference in ((metrics.sum_rate, rate.sum_rate), (metrics.rate_1, rate.rate_1),
                                 (metrics.rate_2, rate.rate_2)):
            assert close(value, reference)

        if scheme == "conventional":
            power = np.real(np.trace(sol.f @ ops_true.gr @ sol.f.conj().T))
            assert close(power, budget)
            r1, r2 = solve_receive_beamformers(ch_t, ch_prev, sol.f, sol.alpha, zero, cfg)
            assert np.linalg.norm(sol.r1 - r1) <= 1e-10 * np.linalg.norm(r1)
            assert np.linalg.norm(sol.r2 - r2) <= 1e-10 * np.linalg.norm(r2)
            # j_value is the design's own objective: zero residual SI, power met on that model
            gr_model = build_slot_operators(ch_t, ch_prev, zero, sol.r1, sol.r2, cfg).gr
            alpha = np.sqrt(budget / np.real(np.trace(sol.f_bar @ gr_model @ sol.f_bar.conj().T)))
            r1, r2 = solve_receive_beamformers(ch_t, ch_prev, alpha * sol.f_bar, alpha, zero, cfg)
            g_design = zero
        else:
            alpha, r1, r2 = sol.alpha, sol.r1, sol.r2
            g_design = residual_si_covariance(history, cfg, t=t)
        ops_design = build_slot_operators(ch_t, ch_prev, g_design, r1, r2, cfg)
        assert close(sol.j_value, evaluate_sum_mse(ops_design, sol.f_bar, alpha, r1, r2, cfg))

        history.push(t, sol.f, ch_prev.h_1r, ch_prev.h_2r)
