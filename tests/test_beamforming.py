import time

import numpy as np
import pytest

from fdrelay import beamforming
from fdrelay.beamforming import (
    DegenerateObjectiveError,
    RelaySystem,
    SlotProblem,
    alternate_optimize,
    build_slot_operators,
    design_slot_batch,
    evaluate_sum_mse,
    solve_receive_beamformers,
    solve_relay_beamformer,
)
from fdrelay.channel import SystemConfig, config_from_snr_inr, crandn, draw_slot_channels, slot_rng
from fdrelay.matrix_core import SingularSystemError, kron, vec
from fdrelay.si_propagation import ResidualSICovariance


def _instance(cfg, seed, realization=0):
    ch0 = draw_slot_channels(cfg, slot_rng(seed, realization, 0), 0)
    ch1 = draw_slot_channels(cfg, slot_rng(seed, realization, 1), 1)
    return ch1, ch0


def _random_receive(rng, n_s):
    return crandn(rng, n_s, n_s), crandn(rng, n_s, n_s)


def test_w_f_scalar_plug_in():
    # identity receive matrices, sigma_e = 0, sigma_n = 1, n_s = 2: 2 + 2 = 4
    cfg = config_from_snr_inr(0.0, float("-inf"), n_s=2, n_r=3)
    ch1, ch0 = _instance(cfg, 0)
    eye = np.eye(2, dtype=complex)
    ops = build_slot_operators(ch1, ch0, ResidualSICovariance.zero(3), eye, eye, cfg)
    assert ops.w_f_scalar == pytest.approx(4.0)


def test_relay_covariance_definitional_identities(rng):
    cfg = config_from_snr_inr(5.0, 0.0, n_s=2, n_r=3)
    ch1, ch0 = _instance(cfg, 1)
    r1, r2 = _random_receive(rng, 2)
    ops = build_slot_operators(ch1, ch0, ResidualSICovariance(scale=0.7, n_r=3), r1, r2, cfg)
    hh1 = cfg.p1 * ch0.h_1r @ ch0.h_1r.conj().T
    hh2 = cfg.p2 * ch0.h_2r @ ch0.h_2r.conj().T
    assert np.max(np.abs(ops.gr - ops.g1 - hh1)) <= 1e-12
    assert np.max(np.abs(ops.gr - ops.g2 - hh2)) <= 1e-12


def test_degenerate_powers_reduce_to_noise_covariance(rng):
    cfg = SystemConfig(n_s=2, n_r=3, p1=1e-300, p2=1e-300, pr=1.0,
                       sigma_n_sq_1=1.0, sigma_n_sq_2=1.0, sigma_n_sq_r=1.0)
    ch1, ch0 = _instance(cfg, 2)
    r1, r2 = _random_receive(rng, 2)
    ops = build_slot_operators(ch1, ch0, ResidualSICovariance.zero(3), r1, r2, cfg)
    for g in (ops.g1, ops.g2, ops.gr):
        assert np.allclose(g, np.eye(3), atol=1e-12)


def test_relay_solver_stationarity_power_and_multiplier(rng):
    cfg = config_from_snr_inr(5.0, 0.0, n_s=2, n_r=3)
    budget = cfg.n_r * cfg.pr
    for k in range(20):
        ch1, ch0 = _instance(cfg, 10 + k)
        r1, r2 = _random_receive(rng, 2)
        ops = build_slot_operators(ch1, ch0, ResidualSICovariance.zero(3), r1, r2, cfg)
        sol = solve_relay_beamformer(ops, cfg)
        raw = sol.prenorm_scale * sol.f_bar
        residual = (
            ops.w_f1 @ raw @ ops.g1
            + ops.w_f2 @ raw @ ops.g2
            + ops.w_f_scalar / budget * raw @ ops.gr
            - ops.w_f0
        )
        assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(ops.w_f0)
        assert np.linalg.norm(sol.f_bar) == pytest.approx(1.0, abs=1e-10)
        power = np.real(np.trace(sol.f @ ops.gr @ sol.f.conj().T))
        assert power == pytest.approx(budget, rel=1e-9)
        assert sol.lam * sol.alpha**2 == pytest.approx(ops.w_f_scalar / budget, abs=1e-10)


def test_relay_solver_scale_invariance(rng):
    # rescaling the raw stationary point must leave the physical beamformer fixed
    cfg = config_from_snr_inr(5.0, 0.0, n_s=2, n_r=3)
    ch1, ch0 = _instance(cfg, 30)
    r1, r2 = _random_receive(rng, 2)
    ops = build_slot_operators(ch1, ch0, ResidualSICovariance.zero(3), r1, r2, cfg)
    sol = solve_relay_beamformer(ops, cfg)
    for c in (0.1, 3.7):
        scaled = c * sol.prenorm_scale * sol.f_bar
        f_bar = scaled / np.linalg.norm(scaled)
        gain = np.real(np.trace(f_bar @ ops.gr @ f_bar.conj().T))
        alpha = np.sqrt(cfg.n_r * cfg.pr / gain)
        assert np.max(np.abs(alpha * f_bar - sol.f)) <= 1e-12 * np.max(np.abs(sol.f))


def test_relay_solver_scalar_case_matches_hand_formula(rng):
    cfg = config_from_snr_inr(3.0, -2.0, n_s=1, n_r=1)
    ch1, ch0 = _instance(cfg, 4)
    g_c = ResidualSICovariance(scale=0.3, n_r=1)
    ops = build_slot_operators(ch1, ch0, g_c, np.eye(1, dtype=complex), np.eye(1, dtype=complex), cfg)
    sol = solve_relay_beamformer(ops, cfg)
    assert abs(sol.f_bar[0, 0]) == pytest.approx(1.0, abs=1e-12)
    g_r = (
        g_c.scale
        + cfg.p1 * abs(ch0.h_1r[0, 0]) ** 2
        + cfg.p2 * abs(ch0.h_2r[0, 0]) ** 2
        + cfg.sigma_n_sq_r
    )
    assert sol.alpha**2 == pytest.approx(cfg.pr / g_r, rel=1e-12)


def test_relay_solver_rejects_zero_objective():
    cfg = config_from_snr_inr(5.0, 0.0, n_s=2, n_r=3)
    ch1, ch0 = _instance(cfg, 5)
    zero = np.zeros((2, 2), dtype=complex)
    ops = build_slot_operators(ch1, ch0, ResidualSICovariance.zero(3), zero, zero, cfg)
    with pytest.raises(DegenerateObjectiveError):
        solve_relay_beamformer(ops, cfg)


def test_receive_zero_forward_signal_gives_zero(rng):
    cfg = config_from_snr_inr(5.0, 0.0, n_s=2, n_r=3)
    ch1, ch0 = _instance(cfg, 6)
    r1, r2 = solve_receive_beamformers(ch1, ch0, np.zeros((3, 3)), 1.0, ResidualSICovariance.zero(3), cfg)
    assert not r1.any()
    assert not r2.any()


def test_receive_scalar_wiener_form(rng):
    cfg = config_from_snr_inr(3.0, -1.0, n_s=1, n_r=1)
    ch1, ch0 = _instance(cfg, 7)
    f = crandn(rng, 1, 1)
    alpha = 1.3
    g_c = ResidualSICovariance(scale=0.4, n_r=1)
    r1, r2 = solve_receive_beamformers(ch1, ch0, f, alpha, g_c, cfg)
    h_r1 = ch1.h_r1[0, 0]
    h_2r = ch0.h_2r[0, 0]
    g1 = g_c.scale + cfg.sigma_n_sq_r + cfg.p2 * abs(h_2r) ** 2  # source 2's content is the desired part
    nu_1 = cfg.p1 * cfg.sigma_e_sq_1 + cfg.sigma_n_sq_1
    expected = alpha * cfg.p2 * h_r1 * f[0, 0] * h_2r / (abs(h_r1 * f[0, 0]) ** 2 * g1 + nu_1)
    assert r1[0, 0] == pytest.approx(expected, rel=1e-12)


def test_receive_stationarity_operator_identities(rng):
    # the design's receive matrices solve their stationarity condition at its beamformer
    cfg = config_from_snr_inr(5.0, 0.0, n_s=2, n_r=3)
    ch1, ch0 = _instance(cfg, 8)
    g_c = ResidualSICovariance(scale=0.2, n_r=3)
    sol = alternate_optimize(ch1, ch0, g_c, cfg)
    r1, r2 = solve_receive_beamformers(ch1, ch0, sol.f, sol.alpha, g_c, cfg)
    assert np.linalg.norm(sol.r1 - r1) <= 1e-10 * np.linalg.norm(r1)
    assert np.linalg.norm(sol.r2 - r2) <= 1e-10 * np.linalg.norm(r2)


def test_receive_finite_difference_gradient(rng):
    cfg = config_from_snr_inr(5.0, 0.0, n_s=2, n_r=3)
    ch1, ch0 = _instance(cfg, 9)
    g_c = ResidualSICovariance.zero(3)
    sol = alternate_optimize(ch1, ch0, g_c, cfg)
    ops = build_slot_operators(ch1, ch0, g_c, sol.r1, sol.r2, cfg)
    step = 1e-5
    for i in range(2):
        for j in range(2):
            for direction in (1.0, 1.0j):
                bump = np.zeros((2, 2), complex)
                bump[i, j] = direction * step
                up = evaluate_sum_mse(ops, sol.f_bar, sol.alpha, sol.r1 + bump, sol.r2, cfg)
                down = evaluate_sum_mse(ops, sol.f_bar, sol.alpha, sol.r1 - bump, sol.r2, cfg)
                assert abs(up - down) / (2 * step) <= 1e-6


def test_mse_with_zero_receive_matrices_is_total_signal_power(rng):
    cfg = config_from_snr_inr(5.0, 0.0, n_s=2, n_r=3)
    ch1, ch0 = _instance(cfg, 11)
    r1, r2 = _random_receive(rng, 2)
    ops = build_slot_operators(ch1, ch0, ResidualSICovariance.zero(3), r1, r2, cfg)
    zero = np.zeros((2, 2), complex)
    j = evaluate_sum_mse(ops, np.eye(3) / np.sqrt(3.0), 1.0, zero, zero, cfg)
    assert j == pytest.approx(cfg.n_s * (cfg.p1 + cfg.p2))


def test_mse_vanishes_in_noiseless_limit():
    # as noise and loopback error shrink, the estimate becomes essentially exact
    values = []
    for snr_db in (20.0, 40.0, 60.0):
        # n_r <= 2 n_s keeps the relay input covariance full rank as noise vanishes
        cfg = config_from_snr_inr(snr_db, float("-inf"), n_s=2, n_r=3)
        ch1, ch0 = _instance(cfg, 12)
        sol = alternate_optimize(ch1, ch0, ResidualSICovariance.zero(3), cfg)
        assert sol.j_value >= -1e-10
        values.append(sol.j_value)
    assert values[2] < values[1] < values[0]
    assert values[2] < 1e-3


def test_alternation_single_iteration_matches_manual_composition():
    cfg = config_from_snr_inr(5.0, 0.0, n_s=2, n_r=3, max_iterations=1)
    ch1, ch0 = _instance(cfg, 13)
    g_c = ResidualSICovariance(scale=0.4, n_r=3)
    sol = alternate_optimize(ch1, ch0, g_c, cfg)

    eye = np.eye(2, dtype=complex)
    ops = build_slot_operators(ch1, ch0, g_c, eye, eye, cfg)
    relay = solve_relay_beamformer(ops, cfg)
    r1, r2 = solve_receive_beamformers(ch1, ch0, relay.f, relay.alpha, g_c, cfg)
    j = evaluate_sum_mse(ops, relay.f_bar, relay.alpha, r1, r2, cfg)

    assert np.max(np.abs(sol.f - relay.f)) <= 1e-12
    assert np.max(np.abs(sol.r1 - r1)) <= 1e-12
    assert sol.j_value == pytest.approx(j, rel=1e-12)
    assert sol.iterations_used == 1


def test_alternation_objective_non_increasing(rng):
    cfg = config_from_snr_inr(5.0, 0.0, n_s=2, n_r=3, convergence_tol=0.0)
    for k in range(20):
        ch1, ch0 = _instance(cfg, 50 + k)
        sol = alternate_optimize(ch1, ch0, ResidualSICovariance(scale=0.1 * k, n_r=3), cfg)
        trace = sol.j_trace
        assert len(trace) == cfg.max_iterations + 1
        assert all(b <= a + 1e-10 for a, b in zip(trace, trace[1:]))
        assert trace[-1] <= trace[0]


def test_alternation_converges_under_strong_interference(rng):
    cfg = config_from_snr_inr(5.0, 20.0, n_s=2, n_r=3, convergence_tol=0.0)
    ch1, ch0 = _instance(cfg, 99)
    sol = alternate_optimize(ch1, ch0, ResidualSICovariance(scale=5.0, n_r=3), cfg)
    trace = sol.j_trace
    assert all(np.isfinite(trace))
    assert all(b <= a + 1e-10 for a, b in zip(trace, trace[1:]))
    assert 0.0 <= sol.j_value <= cfg.n_s * (cfg.p1 + cfg.p2) + 1e-9


def test_relay_only_variant_keeps_identity_receivers():
    cfg = config_from_snr_inr(5.0, 0.0, n_s=2, n_r=3)
    ch1, ch0 = _instance(cfg, 14)
    sol = alternate_optimize(ch1, ch0, ResidualSICovariance.zero(3), cfg, pin_receive=True)
    assert np.array_equal(sol.r1, np.eye(2))
    assert np.array_equal(sol.r2, np.eye(2))


def test_early_exit_on_convergence():
    cfg = config_from_snr_inr(5.0, 0.0, n_s=2, n_r=3, convergence_tol=1e-3)
    ch1, ch0 = _instance(cfg, 15)
    sol = alternate_optimize(ch1, ch0, ResidualSICovariance.zero(3), cfg)
    assert sol.iterations_used < cfg.max_iterations


def _herm(a):
    return np.conj(np.swapaxes(a, -1, -2))


def _relay_input_covariances(cfg, h_1r, h_2r, g_c_scale):
    """G_1, G_2, G_r from the previous slot's inbound channels (stacked or single)."""
    base = (np.asarray(g_c_scale) + cfg.sigma_n_sq_r)[..., None, None] * np.eye(cfg.n_r)
    hh1 = cfg.p1 * h_1r @ _herm(h_1r)
    hh2 = cfg.p2 * h_2r @ _herm(h_2r)
    return base + hh2, base + hh1, base + hh1 + hh2


def _receive_operators(cfg, h_r1, h_r2, h_1r, h_2r, r1, r2):
    """W_1, W_2, W_f0 and w_f of the relay system for receive matrices R_1, R_2 (stacked or single)."""
    b1, b2 = _herm(r1) @ h_r1, _herm(r2) @ h_r2
    w_f0 = cfg.p1 * _herm(h_r2) @ r2 @ _herm(h_1r) + cfg.p2 * _herm(h_r1) @ r1 @ _herm(h_2r)
    nu_1, nu_2 = cfg.nu
    w_f = nu_1 * np.sum(np.abs(r1) ** 2, axis=(-2, -1)) + nu_2 * np.sum(np.abs(r2) ** 2, axis=(-2, -1))
    return _herm(b1) @ b1, _herm(b2) @ b2, w_f0, w_f


def _plain_alternation_reference(cfg, slots, iterations):
    """Sum MSE after ``iterations`` plain relay-then-receive steps, batched over slots.

    An independent re-statement of the closed-form alternation (relay
    Kronecker solve, unit-norm steering with the power-budget amplification,
    per-source Wiener receivers) used only as a slowly converging reference.
    """
    n_r, n_s = cfg.n_r, cfg.n_s
    budget = n_r * cfg.pr
    h_r1, h_r2 = (np.stack([getattr(ch1, name) for ch1, _ in slots]) for name in ("h_r1", "h_r2"))
    h_1r, h_2r = (np.stack([getattr(ch0, name) for _, ch0 in slots]) for name in ("h_1r", "h_2r"))
    g1, g2, gr = _relay_input_covariances(cfg, h_1r, h_2r, np.zeros(len(slots)))
    nu_1, nu_2 = cfg.nu

    def kron(a, b):
        return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(len(a), n_r * n_r, n_r * n_r)

    eye_r = np.broadcast_to(np.eye(n_r), gr.shape)
    eye_s = np.eye(n_s)
    r1 = r2 = np.broadcast_to(np.eye(n_s, dtype=complex), (len(slots), n_s, n_s))
    for _ in range(iterations):
        w1, w2, w_f0, w_f = _receive_operators(cfg, h_r1, h_r2, h_1r, h_2r, r1, r2)
        k = kron(np.swapaxes(g1, 1, 2), w1) + kron(np.swapaxes(g2, 1, 2), w2) \
            + (w_f / budget)[:, None, None] * kron(np.swapaxes(gr, 1, 2), eye_r)
        x = np.linalg.solve(k, np.swapaxes(w_f0, 1, 2).reshape(len(slots), -1, 1))
        f_bar = np.swapaxes(x.reshape(len(slots), n_r, n_r), 1, 2)
        f_bar = f_bar / np.linalg.norm(f_bar, axis=(1, 2), keepdims=True)
        alpha = np.sqrt(budget / np.real(np.einsum("rij,rjk,rik->r", f_bar, gr, np.conj(f_bar))))
        c1, c2 = h_r1 @ (alpha[:, None, None] * f_bar), h_r2 @ (alpha[:, None, None] * f_bar)
        r1 = (cfg.p2 * alpha)[:, None, None] * np.linalg.solve(c1 @ g1 @ _herm(c1) + nu_1 * eye_s, c1 @ h_2r)
        r2 = (cfg.p1 * alpha)[:, None, None] * np.linalg.solve(c2 @ g2 @ _herm(c2) + nu_2 * eye_s, c2 @ h_1r)
    # J = n_s (p1 + p2) - 2 Re tr(W_f0^H F) / alpha + (sum_l tr(E_l G_l E_l^H) + w_f) / alpha^2, E_l = R_l^H H_rl F
    _, _, w_f0, w_f = _receive_operators(cfg, h_r1, h_r2, h_1r, h_2r, r1, r2)
    f = alpha[:, None, None] * f_bar
    e1, e2 = _herm(r1) @ h_r1 @ f, _herm(r2) @ h_r2 @ f
    quad = sum(np.real(np.einsum("rij,rjk,rik->r", e, g, np.conj(e))) for e, g in ((e1, g1), (e2, g2)))
    cross = 2.0 * np.real(np.einsum("rij,rij->r", np.conj(w_f0), f))
    return n_s * (cfg.p1 + cfg.p2) - cross / alpha + (quad + w_f) / alpha**2


def test_default_design_reaches_the_alternation_limit():
    # Criterion 9's failing point: conventional design (no residual SI), SNR
    # 8 dB, INR 10 dB.  Plain alternation stops 0.2-3.4% above its limit after
    # the default 30 iterations; the default design must be at that limit.
    cfg = config_from_snr_inr(8.0, 10.0, n_s=2, n_r=5)
    slots = [_instance(cfg, 0, realization=r) for r in range(20)]
    reference = _plain_alternation_reference(cfg, slots, iterations=5000)
    designed = np.array([
        alternate_optimize(ch1, ch0, ResidualSICovariance.zero(cfg.n_r), cfg).j_value
        for ch1, ch0 in slots
    ])
    gap = (designed - reference) / reference
    assert np.max(gap) <= 1e-6, f"relative gap to the 5000-iteration alternation: {np.max(gap):.2e}"


def test_zero_tolerance_runs_every_iteration_even_when_stagnant():
    # The relay-only design repeats itself exactly after one iteration; with
    # tolerance 0 nothing "falls below" it, so all iterations still run.
    cfg = config_from_snr_inr(5.0, 0.0, n_s=2, n_r=3, convergence_tol=0.0)
    ch1, ch0 = _instance(cfg, 16)
    sol = alternate_optimize(ch1, ch0, ResidualSICovariance.zero(3), cfg, pin_receive=True)
    assert sol.iterations_used == cfg.max_iterations
    assert len(sol.j_trace) == cfg.max_iterations + 1
    assert len(set(sol.j_trace[1:])) == 1


def _stacked_problem(cfg, seed, size, g_c_scale):
    draws = [_instance(cfg, seed, realization=k) for k in range(size)]
    return SlotProblem(
        cfg,
        np.stack([ch1.h_r1 for ch1, _ in draws]), np.stack([ch1.h_r2 for ch1, _ in draws]),
        np.stack([ch0.h_1r for _, ch0 in draws]), np.stack([ch0.h_2r for _, ch0 in draws]),
        np.asarray(g_c_scale, dtype=float),
    ), draws


def _kronecker_relay_system(cfg, ch1, ch0, g_c_scale, r):
    """Dense n_r^2 x n_r^2 relay system and W_f0 of one realization, built from its channels."""
    g1, g2, gr = _relay_input_covariances(cfg, ch0.h_1r, ch0.h_2r, g_c_scale)
    w1, w2, w_f0, w_f = _receive_operators(cfg, ch1.h_r1, ch1.h_r2, ch0.h_1r, ch0.h_2r, r[0], r[1])
    k = kron(g1.T, w1) + kron(g2.T, w2) + kron(gr.T, w_f / (cfg.n_r * cfg.pr) * np.eye(cfg.n_r))
    return k, w_f0


@pytest.mark.parametrize("n_s", [1, 2, 3])
@pytest.mark.parametrize("n_r", [2, 3, 5, 8, 12])
def test_structured_relay_solve_matches_kronecker_solve(n_s, n_r):
    rng = np.random.default_rng(100 * n_s + n_r)
    size = 3
    for snr_db in (10.0, 40.0):
        cfg = config_from_snr_inr(snr_db, 0.0, n_s=n_s, n_r=n_r)
        g_c_scale = rng.uniform(0.05, 2.0, size)
        problem, draws = _stacked_problem(cfg, n_r, size, g_c_scale)
        r = crandn(rng, size, 2, n_s, n_s)
        system = RelaySystem(problem, r)
        rhs = np.concatenate([system.w0[:, None], crandn(rng, size, 2, n_r, n_r)], axis=1)
        x = system.solve(rhs)
        step, _, resolved = system.solve_stationarity()
        assert not resolved.any()
        for k, (ch1, ch0) in enumerate(draws):
            dense, w_f0 = _kronecker_relay_system(cfg, ch1, ch0, g_c_scale[k], r[k])
            assert np.allclose(rhs[k, 0], w_f0, rtol=1e-13, atol=0)
            residual = np.linalg.norm(dense @ vec(step[k]) - vec(w_f0)) / np.linalg.norm(w_f0)
            assert residual <= 1e-10, (snr_db, k, residual)
            if np.linalg.cond(dense) <= 1e6:
                for j in range(rhs.shape[1]):
                    reference = np.linalg.solve(dense, vec(rhs[k, j]))
                    error = np.linalg.norm(vec(x[k, j]) - reference) / np.linalg.norm(reference)
                    assert error <= 1e-10, (snr_db, k, j, error)
        # a realization's solution does not depend on the batch around it
        for k in range(size):
            single = RelaySystem(problem.subset(np.array([k])), r[k:k + 1])
            assert np.array_equal(single.solve(rhs[k:k + 1])[0], x[k])
            assert np.array_equal(single.solve_stationarity()[0][0], step[k])


def test_near_singular_relay_system_raises():
    # 50 dB SNR, n_r = 5 > 2 n_s: M and G_r are nearly singular and the relay
    # system of the first (identity-receiver) step has condition ~7e12
    cfg = config_from_snr_inr(50.0, -20.0, n_s=2, n_r=5)
    ch1, ch0 = _instance(cfg, 13)
    with pytest.raises(SingularSystemError) as info:
        alternate_optimize(ch1, ch0, ResidualSICovariance.zero(cfg.n_r), cfg)
    assert info.value.condition > 1e12


def test_large_relay_design_avoids_the_kronecker_system(monkeypatch):
    # n_r = 32: the dense relay system would be 1024 x 1024, about 0.3-0.7 s
    # per iteration for its inverse alone; the structured solve never forms it.
    def dense_solve(*args):
        raise AssertionError("dense relay solve at n_r = 32")

    monkeypatch.setattr(beamforming, "solve_linear", dense_solve)
    cfg = config_from_snr_inr(10.0, 0.0, n_s=2, n_r=32)
    problem, _ = _stacked_problem(cfg, 3, 2, [0.0, 0.5])
    start = time.perf_counter()
    design = design_slot_batch(problem)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"{elapsed:.2f} s for {design.iterations_used} iterations"
    for k in range(2):
        trace = design.j_trace[: design.iterations_used[k] + 1, k]
        assert np.all(np.diff(trace) <= 1e-13 * np.maximum(1.0, trace[:-1]))


def test_subset_equals_problem_built_from_the_subset_inputs(rng):
    cfg = config_from_snr_inr(5.0, 0.0, n_s=2, n_r=4)
    problem, _ = _stacked_problem(cfg, 21, 5, rng.uniform(0.0, 1.0, 5))
    keep = np.array([True, False, True, True, False])
    built = SlotProblem(cfg, problem.h_r1[keep], problem.h_r2[keep], problem.h_1r_prev[keep],
                        problem.h_2r_prev[keep], problem.g_c_scale[keep])
    problem.solve_factors  # computed on demand; must not leak into the subset
    sub = problem.subset(keep)
    for p in (sub, built):
        p.solve_factors
    assert vars(sub).keys() == vars(built).keys()
    for name, value in vars(built).items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(getattr(sub, name), value), name
        elif isinstance(value, tuple):
            assert all(np.array_equal(a, b) for a, b in zip(getattr(sub, name), value)), name
        else:
            assert getattr(sub, name) == value, name
