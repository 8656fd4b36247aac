import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from fdrelay import engine
from fdrelay.beamforming import (
    SlotProblem,
    build_slot_operators,
    evaluate_sum_mse,
    solve_receive_beamformers,
)
from fdrelay.channel import config_from_snr_inr
from fdrelay.engine import _run_trajectories, run_trajectories_batch
from fdrelay.harness import SweepSpec, run_sweep
from fdrelay.matrix_core import SingularSystemError
from fdrelay.metrics import achievable_sum_rate, half_duplex_reference
from fdrelay.si_propagation import ResidualSICovariance, residual_si_covariance
from fdrelay.simulate import run_trajectory


def test_requires_resolved_memory():
    # 'auto' is a sweep setting: no system configuration, and so no trajectory, takes it
    with pytest.raises(ValueError, match="positive integer or infinite"):
        config_from_snr_inr(5.0, 0.0, n_s=1, n_r=2, memory="auto")


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


@pytest.mark.parametrize("scheme", ["conventional", "half_duplex"])
@pytest.mark.parametrize("realizations, slots", [(1, 10), (5, 10), (40, 2)])
def test_stacked_slot_designs_equal_one_slot_designs(monkeypatch, scheme, realizations, slots):
    # these designs read no carried state, so the engine designs several slots in one call:
    # 10 (R = 1), 6 then 4 (R = 5), one at a time (R = 40); every row must be the
    # realization's own trajectory designed one slot per call, to the last bit
    cfg = config_from_snr_inr(3.0, -2.0, n_s=2, n_r=3)
    batch = run_trajectories_batch(cfg, scheme, slots, seed=11, realizations=realizations)
    state = _run_trajectories(cfg, scheme, slots, 11, range(realizations))
    monkeypatch.setattr(engine, "_STACK_ROWS", 1)
    for r in range(realizations):
        single = _run_trajectories(cfg, scheme, slots, 11, [r])
        assert np.array_equal(batch.sum_mse[:, r], np.concatenate(single.sum_mse))
        assert np.array_equal(batch.sum_rate[:, r], np.stack(single.rates).sum(axis=-1)[:, 0])
        for k in range(slots):
            assert np.array_equal(state.rates[k][r], single.rates[k][0])
            for name in ("z", "q", "p", "alpha", "r", "iterations_used", "j", "j_trace"):
                batched, alone = getattr(state.designs[k], name), getattr(single.designs[k], name)
                assert (batched is None and alone is None) or np.array_equal(batched[r], alone[0],
                                                                             equal_nan=True), (k, name)


def _rates_per_receiver(problem, delta_11, delta_22, core_factor, f_bar, alpha, r):
    """The rates of ``engine._batch_rates`` with one pass per receiver, each product associated as there."""
    cfg = problem.cfg
    inv_alpha = (1.0 / alpha)[:, None, None]
    rates = []
    for h_rl, h_other, delta_ll, p_own, p_other, sigma_n_sq, r_l in (
        (problem.h_r1, problem.h_2r_prev, delta_11, cfg.p1, cfg.p2, cfg.sigma_n_sq_1, r[:, 0]),
        (problem.h_r2, problem.h_1r_prev, delta_22, cfg.p2, cfg.p1, cfg.sigma_n_sq_2, r[:, 1]),
    ):
        rb = r_l.swapaxes(-1, -2).conj()
        noise_factor = np.concatenate([rb @ (h_rl @ f_bar) @ core_factor,
                                       inv_alpha * math.sqrt(p_own) * (rb @ delta_ll),
                                       inv_alpha * math.sqrt(sigma_n_sq) * rb], axis=2)
        signal_factor = math.sqrt(p_other) * (rb @ h_rl @ f_bar @ h_other)
        p, s_vals, _ = np.linalg.svd(noise_factor, full_matrices=False)
        y = (p.swapaxes(-1, -2).conj() @ signal_factor) / s_vals[..., None]
        gains = np.linalg.svd(y, compute_uv=False) ** 2
        rates.append(np.sum(np.log1p(gains), axis=-1) / math.log(2.0))
    return np.stack(rates, axis=1)


@pytest.mark.parametrize("scheme, realizations", [("proposed", 1), ("proposed", 3), ("conventional", 2),
                                                  ("half_duplex", 3)])
def test_rates_of_both_receivers_equal_one_pass_per_receiver(monkeypatch, scheme, realizations):
    # Both receivers run in one stacked pass; each must equal its own pass bit
    # for bit, also at later slots, whose interference factor carries every
    # earlier slot yet stays square, never wider than min(n_r, 2 n_s).
    calls = []
    real = engine._batch_rates

    def recording(*args):
        rates = real(*args)
        calls.append((args, rates))
        return rates

    monkeypatch.setattr(engine, "_batch_rates", recording)
    cfg = config_from_snr_inr(10.0, 5.0, n_s=2, n_r=4)
    _run_trajectories(cfg, scheme, 6, 3, range(realizations))
    assert len(calls) == 6 or scheme == "half_duplex"
    assert max(args[3].shape[-1] for args, _ in calls) <= min(cfg.n_r, 2 * cfg.n_s)
    for args, rates in calls:
        assert np.array_equal(rates, _rates_per_receiver(*args))


@pytest.mark.parametrize("scheme, realizations, calls", [
    ("conventional", 1, 1), ("conventional", 40, 10), ("half_duplex", 5, 2), ("proposed", 1, 10),
    ("relay_only", 1, 10), ("relay_only", 5, 10), ("half_duplex", 1, 1),
])
def test_design_calls_per_ten_slot_trajectory(monkeypatch, scheme, realizations, calls):
    # at most 32 slot-realizations per stacked call; the proposed and relay-only
    # designs read the scale carried from the slot before, so they take one call per slot
    counted = []
    real = engine.design_slot_batch

    def counting(problem, pin_receive=False):
        counted.append(len(problem.h))
        return real(problem, pin_receive)

    monkeypatch.setattr(engine, "design_slot_batch", counting)
    cfg = config_from_snr_inr(5.0, 0.0, n_s=1, n_r=2)
    if realizations == 1:
        run_trajectory(cfg, scheme, slots=10, seed=0)
    else:
        run_trajectories_batch(cfg, scheme, slots=10, seed=0, realizations=realizations)
    assert len(counted) == calls
    assert sum(counted) == 10 * realizations
    assert scheme not in engine.MEMORY_SCHEMES or set(counted) == {realizations}


def _colinear_inbound(monkeypatch, slot, realization):
    """Channel draws in which slot ``slot`` of ``realization`` has H_2r = H_1r.  Without relay noise the
    relay-input covariances of slot ``slot`` + 1 then have rank n_s < 2 n_s, so its relay steps are singular
    in full coordinates and on the equivalent 2 n_s-antenna problem alike."""
    draw = engine._draw_stacked

    def colinear(cfg, seed, t, realizations):
        ch = draw(cfg, seed, t, realizations)
        rows = np.array([t == slot and k == realization for k in realizations])[:, None, None]
        return replace(ch, h_2r=np.where(rows, ch.h_1r, ch.h_2r))

    monkeypatch.setattr(engine, "_draw_stacked", colinear)


def test_stacked_conventional_designs_keep_the_singular_policy(monkeypatch):
    # With colinear inbound channels at slot 0, the conventional relay steps
    # of slot 1 are singular without relay noise; with it, none is at 50 dB.
    # A stacked call raises exactly when the one-slot calls do, for the same
    # slot and realization and with the same condition.
    _colinear_inbound(monkeypatch, slot=0, realization=0)
    noisy = config_from_snr_inr(50.0, -20.0, n_s=2, n_r=5)
    quiet = replace(noisy, sigma_n_sq_r=0.0)

    def outcomes():
        found = []
        for seed, cfg in itertools.product(range(5), (noisy, quiet)):
            try:
                run_trajectory(cfg, "conventional", slots=4, seed=seed)
                found.append(None)
            except SingularSystemError as exc:
                found.append((exc.condition, str(exc)))
        return found

    stacked = outcomes()
    monkeypatch.setattr(engine, "_STACK_ROWS", 1)
    assert outcomes() == stacked
    assert any(found is not None and found[0] > 1e12 for found in stacked)
    assert None in stacked


def test_singular_relay_step_names_its_slot_and_realization(monkeypatch):
    # The error names the first slot of a trajectory whose design fails (the
    # shortest trajectory that raises), and a sweep cell reports the first
    # failing (slot, realization) of its stacked designs.  Without relay
    # noise, and with colinear inbound channels at slot 1 of realization 1,
    # the conventional relay step of slot 2 of realization 1 is singular.
    _colinear_inbound(monkeypatch, slot=1, realization=1)
    config = SweepSpec.config
    monkeypatch.setattr(SweepSpec, "config", lambda self, snr_db, inr_db:
                        replace(config(self, snr_db, inr_db), sigma_n_sq_r=0.0))
    spec = SweepSpec(snr_db=(50.0,), inr_db=(-20.0,), schemes=("conventional",), slots=4, realizations=2)
    cfg = spec.config(50.0, -20.0)

    def first_failures(seed):
        found = []
        for k in range(spec.realizations):
            for slots in range(1, spec.slots + 1):
                try:
                    run_trajectory(cfg, "conventional", slots=slots, seed=seed, realization=k)
                except SingularSystemError as exc:
                    assert str(exc).startswith(f"relay step of slot {slots}, realization {k}: ")
                    found.append((slots, k, exc.condition))
                    break
        return found

    seed, found = next((seed, found) for seed in range(20) if (found := first_failures(seed)))
    slot, k, condition = min(found)
    (failure,) = run_sweep(replace(spec, seed=seed)).failures
    assert failure["error"] == (f"relay step of slot {slot}, realization {k}: "
                                f"singular system (condition estimate {condition:.3e})")


def test_no_conventional_relay_step_is_singular_at_50_db():
    # In design coordinates the relay system at (50, -20) dB has condition
    # ~1e7; in full coordinates it has ~1e12, and rounding decides which
    # steps miss the residual guard and raise
    cfg = config_from_snr_inr(50.0, -20.0, n_s=2, n_r=5)
    for seed in range(20):
        run_trajectory(cfg, "conventional", slots=4, seed=seed)


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
@pytest.mark.parametrize("memory, n_r", [(math.inf, 3), (2, 3), (math.inf, 6), (2, 6)],
                         ids=["inf", "2", "inf-nr6", "2-nr6"])
def test_trajectory_matches_per_realization_formulas(scheme, memory, n_r):
    # every slot of the engine's loop, rebuilt through the per-realization entry points: the
    # trajectory's SI scale, the realized-chain rate and the conventional recalibration; at
    # n_r = 6 > 2 n_s the engine designs on the equivalent reduced problem, checked here in full size
    cfg = config_from_snr_inr(3.0, 4.0, n_s=2, n_r=n_r).with_memory(memory)
    traj = run_trajectory(cfg, scheme, slots=5, seed=13, realization=1)
    channels, solutions = traj.channels, traj.solutions
    zero = ResidualSICovariance.zero(cfg.n_r)
    budget = cfg.n_r * cfg.pr
    beamformers = [sol.f for sol in solutions]

    def close(value, reference):
        return abs(value - reference) <= 1e-10 * abs(reference)

    for t, (sol, metrics) in enumerate(zip(solutions, traj.metrics), start=1):
        ch_t, ch_prev = channels[t], channels[t - 1]
        g_true = residual_si_covariance(channels, beamformers[: t - 1], cfg, memory=math.inf)
        ops_true = build_slot_operators(ch_t, ch_prev, g_true, sol.r1, sol.r2, cfg)
        assert close(metrics.sum_mse, evaluate_sum_mse(ops_true, sol.f_bar, sol.alpha, sol.r1, sol.r2, cfg))

        rate = achievable_sum_rate(channels[: t + 1], beamformers[:t], sol, cfg)
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
            g_design = residual_si_covariance(channels, beamformers[: t - 1], cfg)
        ops_design = build_slot_operators(ch_t, ch_prev, g_design, r1, r2, cfg)
        assert close(sol.j_value, evaluate_sum_mse(ops_design, sol.f_bar, alpha, r1, r2, cfg))


def test_half_duplex_slots_equal_the_per_slot_reference():
    # half duplex runs the full-duplex loop without loopback error; every slot, designed
    # stacked with the other slots and realizations (R = 3: one call of 30 rows) or alone,
    # equals the per-slot reference to the last bit, on the reduced problem (n_r = 5 > 2 n_s)
    # and past the configured memory window
    cfg = config_from_snr_inr(10.0, 5.0, n_s=2, n_r=5).with_memory(2)
    batch = run_trajectories_batch(cfg, "half_duplex", slots=10, seed=21, realizations=3)
    for r in range(3):
        traj = run_trajectory(cfg, "half_duplex", slots=10, seed=21, realization=r)
        for t, metrics in enumerate(traj.metrics, start=1):
            reference = half_duplex_reference(traj.channels[t - 1], traj.channels[t], cfg)
            assert metrics.sum_mse == reference.sum_mse == batch.sum_mse[t - 1, r], (r, t)
            assert metrics.sum_rate == reference.sum_rate == batch.sum_rate[t - 1, r], (r, t)


def test_half_duplex_draws_carry_no_loopback_error():
    # slot 0 included: the trajectory draws every slot under the configuration without loopback error
    cfg = config_from_snr_inr(10.0, 5.0, n_s=2, n_r=5)
    for ch in run_trajectory(cfg, "half_duplex", slots=3, seed=4).channels:
        assert not (ch.delta_11.any() or ch.delta_22.any() or ch.delta_rr.any()), ch.slot_index


def test_slots_are_scored_and_rated_on_the_equivalent_problem(monkeypatch):
    # n_r = 12 > 2 n_s = 4: after the design, no array the rate sees has an axis of size n_r, and
    # every slot problem built while scoring (the true-scale one) is the 4-antenna equivalent problem
    rate_shapes, scoring, scored_sizes = [], [], []
    real_rates, real_score, real_post_init = engine._batch_rates, engine._TrajectoryState._score, SlotProblem.__post_init__

    def recording_rates(*args):
        rate_shapes.extend(np.shape(arg) for arg in args[1:])
        rate_shapes.extend(np.shape(getattr(args[0], name)) for name in ("h", "h_bar", "g"))
        return real_rates(*args)

    def recording_score(*args):
        scoring.append(True)
        try:
            return real_score(*args)
        finally:
            scoring.pop()

    def recording_post_init(problem):
        if scoring:
            scored_sizes.append(problem.cfg.n_r)
        real_post_init(problem)

    monkeypatch.setattr(engine, "_batch_rates", recording_rates)
    monkeypatch.setattr(engine._TrajectoryState, "_score", recording_score)
    monkeypatch.setattr(SlotProblem, "__post_init__", recording_post_init)
    cfg = config_from_snr_inr(10.0, 5.0, n_s=2, n_r=12)
    for scheme in engine.SCHEMES:
        run_trajectories_batch(cfg, scheme, slots=4, seed=8, realizations=2)
    assert len(rate_shapes) == 4 * 4 * 9 and all(12 not in shape for shape in rate_shapes)
    assert scored_sizes and set(scored_sizes) == {4}


def test_carried_state_does_not_grow_with_the_slots():
    # the leak carried to the next slot and every stored design keep the shapes of slot 2 at slot 200
    cfg = config_from_snr_inr(10.0, 0.0, n_s=2, n_r=8)
    state = _run_trajectories(cfg, "proposed", 2, 5, [0])
    leak, design = state.leak.shape, {name: np.shape(value) for name, value in vars(state.designs[1]).items()}
    state.advance(cfg, "proposed", 200)
    assert state.leak.shape == leak and leak[-1] <= 4 * cfg.n_s
    for stored in state.designs:
        assert {name: np.shape(value) for name, value in vars(stored).items()} == design
    assert np.isfinite(np.stack(state.sum_mse)).all() and np.isfinite(np.stack(state.rates)).all()
