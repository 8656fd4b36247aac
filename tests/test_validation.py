import math

import numpy as np
import pytest

from fdrelay.beamforming import alternate_optimize, build_slot_operators
from fdrelay.channel import config_from_snr_inr, crandn, draw_slot_channels, slot_rng
from fdrelay.matrix_core import chained_error_trace_mean
from fdrelay.si_propagation import ResidualSICovariance, residual_si_covariance
from fdrelay.simulate import run_trajectory
from fdrelay.validation import (
    brute_force_relay_opt,
    chained_error_trace_sample_mean,
    feasible_relay_objective,
    run_oracle_suite,
    simulate_signal_chain,
)


def test_chain_sample_mean_identity_case(rng):
    # two identity factors, unit variance: expectation is 4
    value = chained_error_trace_sample_mean([np.eye(2), np.eye(2)], 1.0, 50_000, rng)
    assert value == pytest.approx(4.0, rel=0.03)


def test_chain_sample_mean_matches_closed_form(rng):
    v_list = [crandn(rng, 3, 3) for _ in range(3)]
    closed = chained_error_trace_mean(v_list, 0.2)
    sampled = chained_error_trace_sample_mean(v_list, 0.2, 100_000, rng)
    assert sampled == pytest.approx(closed, rel=0.03)


def test_chain_sample_single_draw_has_api_shape(rng):
    value = chained_error_trace_sample_mean([np.eye(2), np.eye(2)], 0.5, 1, rng)
    assert np.isscalar(value) and value >= 0.0


def test_signal_chain_noise_only_when_relay_silent(rng):
    # zero beamformer, no loopback error: the source receives only its own noise
    cfg = config_from_snr_inr(0.0, float("-inf"), n_s=1, n_r=2)
    traj = run_trajectory(cfg, "proposed", slots=1, seed=0, realization=0)
    solution = traj.solutions[0]
    silent = type(solution)(
        f_bar=np.zeros((2, 2)), alpha=1.0, f=np.zeros((2, 2)),
        r1=solution.r1, r2=solution.r2, j_value=0.0, iterations_used=0,
    )
    ens = simulate_signal_chain(traj.channels, [silent], cfg, rng, 20_000)
    assert np.mean(np.abs(ens.y_hat_1) ** 2) == pytest.approx(cfg.sigma_n_sq_1, rel=0.05)
    assert not ens.x_r_t.any()


def test_signal_chain_power_matches_budget(small_cfg, rng):
    traj = run_trajectory(small_cfg, "proposed", slots=3, seed=1, realization=0)
    ens = simulate_signal_chain(traj.channels, traj.solutions, small_cfg, rng, 100_000)
    assert ens.empirical_relay_power() == pytest.approx(
        small_cfg.n_r * small_cfg.pr, rel=0.02
    )


def test_signal_chain_mse_matches_analytic(small_cfg, rng):
    traj = run_trajectory(small_cfg, "proposed", slots=3, seed=2, realization=0)
    ens = simulate_signal_chain(traj.channels, traj.solutions, small_cfg, rng, 100_000)
    sol = traj.solutions[-1]
    assert ens.empirical_sum_mse(sol) == pytest.approx(sol.j_value, rel=0.03)


def test_signal_chain_si_covariance_matches_closed_form(small_cfg, rng):
    traj = run_trajectory(small_cfg, "proposed", slots=4, seed=3, realization=0)
    ens = simulate_signal_chain(traj.channels, traj.solutions, small_cfg, rng, 100_000)
    g_c = residual_si_covariance(traj.channels, [sol.f for sol in traj.solutions[:-1]], small_cfg)
    assert ens.empirical_si_scale() == pytest.approx(g_c.scale, rel=0.03)
    # identity structure: off-diagonal entries vanish in expectation
    cov = ens.empirical_si_covariance()
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) <= 0.05 * g_c.scale


def test_truncated_chain_matches_design_model(small_cfg, rng):
    cfg = small_cfg.with_memory(1)
    traj = run_trajectory(cfg, "proposed", slots=4, seed=4, realization=0)
    ens = simulate_signal_chain(traj.channels, traj.solutions, cfg, rng, 100_000, memory=1)
    sol = traj.solutions[-1]
    assert ens.empirical_sum_mse(sol) == pytest.approx(sol.j_value, rel=0.03)


def test_truncation_changes_si_exactly_beyond_window(small_cfg, rng):
    # slots 1..3: a window of 2 covers all history, so truncated == exact;
    # slot 4 is the first where the depth-3 chain is replaced
    traj = run_trajectory(small_cfg.with_memory(2), "proposed", slots=4, seed=5, realization=0)
    beamformers = [sol.f for sol in traj.solutions]
    exact_3 = residual_si_covariance(traj.channels, beamformers[:2], small_cfg, memory=math.inf)
    model_3 = residual_si_covariance(traj.channels, beamformers[:2], small_cfg, memory=2)
    assert model_3.scale == pytest.approx(exact_3.scale, rel=1e-12)
    exact_4 = residual_si_covariance(traj.channels, beamformers[:3], small_cfg, memory=math.inf)
    model_4 = residual_si_covariance(traj.channels, beamformers[:3], small_cfg, memory=2)
    assert model_4.scale != pytest.approx(exact_4.scale, rel=1e-6)


def test_brute_force_budget_zero_returns_identity_floor(small_cfg, rng):
    ch0 = draw_slot_channels(small_cfg, slot_rng(6, 0, 0), 0)
    ch1 = draw_slot_channels(small_cfg, slot_rng(6, 0, 1), 1)
    eye = np.eye(1, dtype=complex)
    ops = build_slot_operators(ch1, ch0, ResidualSICovariance.zero(2), eye, eye, small_cfg)
    best_j, best_f = brute_force_relay_opt(ops, small_cfg, budget=0, rng=rng)
    identity = np.eye(2) / math.sqrt(2.0)
    assert best_j == pytest.approx(float(feasible_relay_objective(ops, small_cfg, identity)[0]))
    gain = np.real(np.trace(best_f @ ops.gr @ best_f.conj().T))
    assert gain == pytest.approx(small_cfg.n_r * small_cfg.pr, rel=1e-9)


def test_brute_force_never_beats_closed_form(small_cfg, rng):
    for k in range(5):
        ch0 = draw_slot_channels(small_cfg, slot_rng(7, k, 0), 0)
        ch1 = draw_slot_channels(small_cfg, slot_rng(7, k, 1), 1)
        sol = alternate_optimize(ch1, ch0, ResidualSICovariance.zero(2), small_cfg)
        eye = np.eye(1, dtype=complex)
        ops = build_slot_operators(ch1, ch0, ResidualSICovariance.zero(2), eye, eye, small_cfg)
        best_j, _ = brute_force_relay_opt(ops, small_cfg, budget=20_000, rng=rng)
        assert sol.j_value <= best_j + 1e-6


def test_brute_force_recovers_scalar_optimum(rng):
    # scalar case: unit-modulus steering leaves only the phase free, so the
    # best candidate aligns with the desired-signal operator
    cfg = config_from_snr_inr(3.0, 0.0, n_s=1, n_r=1)
    ch0 = draw_slot_channels(cfg, slot_rng(8, 0, 0), 0)
    ch1 = draw_slot_channels(cfg, slot_rng(8, 0, 1), 1)
    eye = np.eye(1, dtype=complex)
    ops = build_slot_operators(ch1, ch0, ResidualSICovariance.zero(1), eye, eye, cfg)
    best_j, _ = brute_force_relay_opt(ops, cfg, budget=20_000, rng=rng)
    bracket = (
        ops.w_f1[0, 0] * ops.g1[0, 0]
        + ops.w_f2[0, 0] * ops.g2[0, 0]
        + ops.w_f_scalar / (cfg.n_r * cfg.pr) * ops.gr[0, 0]
    ).real
    j_hand = cfg.n_s * (cfg.p1 + cfg.p2) - 2.0 * abs(ops.w_f0[0, 0]) + bracket
    assert best_j == pytest.approx(j_hand, abs=1e-4)


def test_oracle_suite_runs_clean():
    checks = run_oracle_suite(seed=0, draws=8000)
    for check in checks:
        assert check.passed, check.describe()
