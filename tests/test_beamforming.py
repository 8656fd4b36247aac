import dataclasses
import itertools
import time
import tracemalloc

import numpy as np
import pytest

from scipy.linalg import block_diag

from fdrelay import beamforming, engine
from fdrelay.beamforming import (
    BatchDesign,
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
from fdrelay.matrix_core import CONDITION_LIMIT, SingularSystemError, kron, solve_linear, vec
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


def _kronecker_relay_system(cfg, ch1, ch0, g_c_scale, r, q=None, p=None):
    """Dense relay system (column-major vec) and W_f0 of one realization, built from its channels.

    Full (n_r^2 x n_r^2, for F) without bases; with orthonormal ``q`` and
    ``p`` (n_r x d), restricted to F = q Z p^H:
    sum_l (p^H G_l p)^T kron q^H W_l q + c (p^H G_r p)^T kron I (d^2 x d^2),
    and q^H W_f0 p.
    """
    g1, g2, gr = _relay_input_covariances(cfg, ch0.h_1r, ch0.h_2r, g_c_scale)
    w1, w2, w_f0, w_f = _receive_operators(cfg, ch1.h_r1, ch1.h_r2, ch0.h_1r, ch0.h_2r, r[0], r[1])
    if q is not None:
        w1, w2, w_f0 = _herm(q) @ w1 @ q, _herm(q) @ w2 @ q, _herm(q) @ w_f0 @ p
        g1, g2, gr = _herm(p) @ g1 @ p, _herm(p) @ g2 @ p, _herm(p) @ gr @ p
    k = kron(g1.T, w1) + kron(g2.T, w2) + kron(gr.T, w_f / (cfg.n_r * cfg.pr) * np.eye(len(w1)))
    return k, w_f0


def _reduction(problem):
    """The equivalent problem the design runs on and its bases Q, P (F_bar = Q Z P^H), checked to be
    orthonormal bases of range([H_r1; H_r2]^H) and range([H_1r H_2r]) that give the equivalent
    problem's channels and keep the power budget; the problem itself and identities when n_r <= 2 n_s."""
    size, n_r, n_s = len(problem.h), problem.cfg.n_r, problem.cfg.n_s
    reduced, q, p = problem.reduced()
    if n_r <= 2 * n_s:
        assert reduced is problem
        assert np.array_equal(q, np.broadcast_to(np.eye(n_r), (size, n_r, n_r))) and np.array_equal(p, q)
        return reduced, q, p
    h_out = problem.h.reshape(size, 2 * n_s, n_r)
    h_in = np.concatenate([problem.h_1r_prev, problem.h_2r_prev], axis=2)
    for basis, h in ((q, _herm(h_out)), (p, h_in)):
        assert basis.shape == (size, n_r, 2 * n_s)
        assert np.max(np.abs(_herm(basis) @ basis - np.eye(2 * n_s))) <= 1e-14
        assert _relative_error(basis @ _herm(basis) @ h, h) <= 1e-14
    assert (reduced.cfg.n_r, reduced.budget) == (2 * n_s, pytest.approx(problem.budget, rel=1e-15))
    assert _relative_error(reduced.h, problem.h @ q[:, None]) <= 1e-14
    assert _relative_error(reduced.h_bar, _herm(p)[:, None] @ problem.h_bar) <= 1e-14
    return reduced, q, p


@pytest.mark.parametrize("n_s", [1, 2, 3])
@pytest.mark.parametrize("n_r", [2, 3, 5, 8, 12])
def test_structured_relay_solve_matches_kronecker_solve(n_s, n_r):
    # The relay solve runs on the equivalent problem, F = Q Z P^H: it is
    # checked against the dense system restricted to those coordinates, built
    # from the full channels, and its step also solves the full system.
    rng = np.random.default_rng(100 * n_s + n_r)
    size = 3
    for snr_db in (10.0, 40.0):
        cfg = config_from_snr_inr(snr_db, 0.0, n_s=n_s, n_r=n_r)
        g_c_scale = rng.uniform(0.05, 2.0, size)
        problem, draws = _stacked_problem(cfg, n_r, size, g_c_scale)
        reduced, q, p = _reduction(problem)
        d = q.shape[-1]
        r = crandn(rng, size, 2, n_s, n_s)
        system = RelaySystem(reduced, r)
        rhs = np.concatenate([system.w0[:, None], crandn(rng, size, 2, d, d)], axis=1)
        x = system.solve(rhs)
        step, _ = system.solve_stationarity()
        for k, (ch1, ch0) in enumerate(draws):
            dense, w_f0 = _kronecker_relay_system(cfg, ch1, ch0, g_c_scale[k], r[k], q[k], p[k])
            # normwise: the equivalent problem's triangular channels give exact zeros where these have rounding
            assert np.linalg.norm(rhs[k, 0] - w_f0) <= 1e-13 * np.linalg.norm(w_f0)
            residual = np.linalg.norm(dense @ vec(step[k]) - vec(w_f0)) / np.linalg.norm(w_f0)
            assert residual <= 1e-10, (snr_db, k, residual)
            full, full_w_f0 = _kronecker_relay_system(cfg, ch1, ch0, g_c_scale[k], r[k])
            lifted = q[k] @ step[k] @ _herm(p[k])
            residual = np.linalg.norm(full @ vec(lifted) - vec(full_w_f0)) / np.linalg.norm(full_w_f0)
            assert residual <= 1e-10, (snr_db, k, residual)
            if np.linalg.cond(dense) <= 1e6:
                for j in range(rhs.shape[1]):
                    reference = solve_linear(dense, vec(rhs[k, j]))
                    error = np.linalg.norm(vec(x[k, j]) - reference) / np.linalg.norm(reference)
                    assert error <= 1e-10, (snr_db, k, j, error)
        # a realization's solution does not depend on the batch around it
        for k in range(size):
            single = RelaySystem(reduced.subset(np.array([k])), r[k:k + 1])
            assert np.array_equal(single.solve(rhs[k:k + 1])[0], x[k])
            assert np.array_equal(single.solve_stationarity()[0][0], step[k])


@pytest.mark.parametrize("n_r, size, bound_kib", [(5, 40, 34.0), (16, 4, 48.0), (32, 4, 50.0)])
def test_design_working_memory_per_realization(n_r, size, bound_kib):
    # The relay solve's right-hand sides, its result and the Newton directions
    # are the largest arrays of an iteration; they are built and reused in
    # place on the equivalent 2 n_s-antenna problem, which replaces its
    # subsets as realizations converge, and the identity start, scored on
    # the n_r-antenna problem, forms its largest products in place, so a
    # design call holds about 31 KiB per realization at n_r = 5, 44 KiB at
    # n_r = 16 and 47 KiB at n_r = 32
    # (32 and 110 KiB at n_r = 5 and 16 with 2 n_s x n_r unknowns, 38 and
    # 353 KiB with n_r x n_r).
    cfg = config_from_snr_inr(5.0, 10.0, n_s=2, n_r=n_r)
    design_slot_batch(_stacked_problem(cfg, 31, size, np.full(size, 0.3))[0])  # warm-up
    problem, _ = _stacked_problem(cfg, 31, size, np.full(size, 0.3))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        design_slot_batch(problem)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / size / 1024 <= bound_kib


def test_near_singular_relay_system_raises():
    # Without relay noise and residual SI, and with colinear inbound channels
    # (H_2r = H_1r), G_r = (p1 + p2) H_1r H_1r^H has rank n_s < 2 n_s: the
    # relay system of the first (identity-receiver) step is singular in full
    # coordinates and on the equivalent problem alike, at any SNR
    # (conditions 8e34-5e39 here)
    for snr_db, seed in itertools.product((10.0, 50.0), range(5)):
        cfg = dataclasses.replace(config_from_snr_inr(snr_db, -20.0, n_s=2, n_r=5), sigma_n_sq_r=0.0)
        ch1, ch0 = _instance(cfg, seed)
        with pytest.raises(SingularSystemError) as info:
            alternate_optimize(ch1, dataclasses.replace(ch0, h_2r=ch0.h_1r), ResidualSICovariance.zero(cfg.n_r), cfg)
        assert info.value.condition > 1e12, (snr_db, seed)


def test_exactly_singular_relay_system_names_its_slot_and_realization():
    # Integer-valued colinear inbound channels without relay noise make K
    # exactly singular, so its inverse fails outright.  That is a singular
    # relay step with condition inf, so a stack designs its rows alone and
    # names the failing one.
    cfg = dataclasses.replace(config_from_snr_inr(10.0, -20.0, n_s=2, n_r=5), sigma_n_sq_r=0.0)
    problem, _ = _stacked_problem(cfg, 3, 3, np.zeros(3))
    inbound = [problem.h_1r_prev.copy(), problem.h_2r_prev.copy()]
    for h in inbound:  # row 1: H_1r = H_2r = [I; 0]
        h[1] = 0.0
        h[1, :cfg.n_s] = np.eye(cfg.n_s)
    problem = SlotProblem(cfg, problem.h_r1, problem.h_r2, *inbound, problem.g_c_scale)
    for rows in ([1], [0, 1, 2]):
        with pytest.raises(SingularSystemError) as info:
            design_slot_batch(problem.subset(rows))
        assert info.value.condition == np.inf
    for row in (0, 2):
        design_slot_batch(problem.subset([row]))
    state = engine._TrajectoryState(0, [4, 7, 9])
    with pytest.raises(SingularSystemError, match="^relay step of slot 2, realization 7: singular system "
                                                  r"\(condition estimate inf\)$") as info:
        state._design(problem, 2)
    assert info.value.condition == np.inf


@pytest.mark.parametrize("n_r", [5, 12])
def test_designs_lie_in_the_outbound_channels_row_space(n_r):
    # The design is F_bar = Q Z P^H: nothing of it lies outside
    # range([H_r1; H_r2]^H) on the left or range([H_1r H_2r]) on the right,
    # also at 50 dB, where the relay system in full coordinates has
    # condition ~1e12.  The projectors come from pseudo-inverses, not from
    # the design's bases.
    size = 6
    for snr_db, inr_db in ((10.0, 0.0), (50.0, -20.0)):
        cfg = config_from_snr_inr(snr_db, inr_db, n_s=2, n_r=n_r)
        problem, _ = _stacked_problem(cfg, 41, size, np.zeros(size))
        design = design_slot_batch(problem)
        f_bar = np.stack([design.solution(k).f_bar for k in range(size)])
        h_out = problem.h.reshape(size, -1, n_r)
        h_in = np.concatenate([problem.h_1r_prev, problem.h_2r_prev], axis=2)
        inside = np.linalg.pinv(h_out) @ h_out @ f_bar @ h_in @ np.linalg.pinv(h_in)
        outside = np.linalg.norm(f_bar - inside, axis=(1, 2))
        assert f_bar.shape == (size, n_r, n_r)
        assert np.max(outside / np.linalg.norm(f_bar, axis=(1, 2))) <= 1e-14, snr_db


def test_relay_solver_in_design_coordinates_meets_the_full_stationarity(rng):
    # n_s = 1, n_r = 3 > 2 n_s: the relay step is solved for Z (2 x 2) on the
    # equivalent problem, and the returned steering F_bar = Q Z P^H (3 x 3)
    # meets criterion 3's identities
    cfg = config_from_snr_inr(5.0, 0.0, n_s=1, n_r=3)
    budget = cfg.n_r * cfg.pr
    for k in range(20):
        ch1, ch0 = _instance(cfg, 60 + k)
        r1, r2 = _random_receive(rng, 1)
        ops = build_slot_operators(ch1, ch0, ResidualSICovariance(scale=0.05 * k, n_r=3), r1, r2, cfg)
        assert ops.problem.reduced()[0].cfg.n_r == 2
        sol = solve_relay_beamformer(ops, cfg)
        assert sol.f_bar.shape == (3, 3)
        raw = sol.prenorm_scale * sol.f_bar
        residual = ops.w_f1 @ raw @ ops.g1 + ops.w_f2 @ raw @ ops.g2 + ops.w_f_scalar / budget * raw @ ops.gr - ops.w_f0
        assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(ops.w_f0)
        power = np.real(np.trace(sol.f @ ops.gr @ sol.f.conj().T))
        assert power == pytest.approx(budget, rel=1e-9)
        assert sol.lam * sol.alpha**2 == pytest.approx(ops.w_f_scalar / budget, abs=1e-10)


def _record_relay_systems(monkeypatch) -> list:
    """Every RelaySystem built from now on, in order."""
    systems = []
    init = RelaySystem.__init__

    def recording(system, *args):
        init(system, *args)
        systems.append(system)

    monkeypatch.setattr(RelaySystem, "__init__", recording)
    return systems


def test_large_relay_design_avoids_the_kronecker_system(monkeypatch):
    # n_r = 32: the dense relay system would be 1024 x 1024, about 0.3-0.7 s
    # per iteration for its inverse alone; the design inverts the 16 x 16
    # system of the equivalent 4-antenna problem instead.
    systems = _record_relay_systems(monkeypatch)
    cfg = config_from_snr_inr(10.0, 0.0, n_s=2, n_r=32)
    problem, _ = _stacked_problem(cfg, 3, 2, [0.0, 0.5])
    start = time.perf_counter()
    design = design_slot_batch(problem)
    elapsed = time.perf_counter() - start
    assert systems and all(system.problem.cfg.n_r == 2 * cfg.n_s for system in systems)
    assert elapsed < 5.0, f"{elapsed:.2f} s for {design.iterations_used} iterations"
    for k in range(2):
        trace = design.j_trace[k, : design.iterations_used[k] + 1]
        assert np.all(np.diff(trace) <= 1e-13 * np.maximum(1.0, trace[:-1]))


@pytest.mark.parametrize("n_s, seed, dense_j", [(1, 0, 1.581623340141114e-05), (2, 7, 6.751540306781934e-05)])
def test_relay_steps_that_miss_the_residual_guard_are_refined(monkeypatch, n_s, seed, dense_j):
    # The first relay step of these 50 dB designs is perturbed by a relative
    # 1e-9, so it misses the 1e-10 residual guard whatever the rounding: its
    # condition stays below the limit, and one refinement step (the second
    # solve, before the first Newton model's) finishes it; every relay system
    # is on the equivalent 2 n_s-antenna problem, never the dense n_r one.
    # dense_j is the J of the same design with its missing steps re-solved
    # through the dense Kronecker system instead.
    systems, solves = [], []
    solve = RelaySystem.solve

    def perturbed_once(system, y):
        systems.append(system)
        solves.append(solve(system, y))
        return solves[-1] * (1.0 + 1e-9) if len(solves) == 1 else solves[-1]

    monkeypatch.setattr(RelaySystem, "solve", perturbed_once)
    cfg = config_from_snr_inr(50.0, 10.0, n_s=n_s, n_r=8)
    ch1, ch0 = _instance(cfg, seed)
    sol = alternate_optimize(ch1, ch0, ResidualSICovariance.zero(cfg.n_r), cfg)
    assert [x.shape[1] for x in solves[:3]] == [1, 1, 1 + 4 * n_s * n_s]
    assert systems[1] is systems[0] and systems[0].condition(0) <= CONDITION_LIMIT
    assert all(system.problem.cfg.n_r == 2 * n_s for system in systems)
    trace = np.array(sol.j_trace)
    assert np.all(np.diff(trace) <= 1e-13 * np.maximum(1.0, trace[:-1]))
    assert sol.j_value <= dense_j * (1.0 + 1e-12)


@pytest.mark.parametrize("n_s", [1, 2])
@pytest.mark.parametrize("n_r", [3, 5, 8])
def test_condition_estimate_matches_the_dense_condition(n_s, n_r):
    # The relay step's condition is exact: ||K||_1 ||K^-1||_1 of the system on
    # the equivalent problem, built here from the full channels.
    rng = np.random.default_rng(10 * n_s + n_r)
    size = 2
    for snr_db in (10.0, 40.0, 50.0):
        cfg = config_from_snr_inr(snr_db, 0.0, n_s=n_s, n_r=n_r)
        g_c_scale = rng.uniform(0.0, 1.0, size)
        problem, draws = _stacked_problem(cfg, n_r, size, g_c_scale)
        identity = np.broadcast_to(np.eye(n_s, dtype=complex), (size, 2, n_s, n_s))
        reduced, q, p = _reduction(problem)
        for r in (identity, crandn(rng, size, 2, n_s, n_s)):
            system = RelaySystem(reduced, r)
            for k, (ch1, ch0) in enumerate(draws):
                dense, _ = _kronecker_relay_system(cfg, ch1, ch0, g_c_scale[k], r[k], q[k], p[k])
                ratio = system.condition(k) / np.linalg.cond(dense, 1)
                assert abs(ratio - 1.0) <= 1e-10, (snr_db, k, ratio)


def test_subset_equals_problem_built_from_the_subset_inputs():
    # At R = 2 the per-config p_bar, nu and nu_eye also lead with length 2,
    # so a subset that sliced every array would change their shapes.
    cfg = config_from_snr_inr(5.0, 0.0, n_s=2, n_r=4)
    cases = [(5, np.array([True, False, True, True, False])),
             (3, np.array([True, False, True])), (3, [2, 0]), (3, [1]),
             (2, np.array([False, True])), (2, [1, 0]), (2, [0])]
    for size, keep in cases:
        problem, _ = _stacked_problem(cfg, 21, size, np.linspace(0.2, 0.9, size))
        sub = problem.subset(keep)
        built = SlotProblem(cfg, *(getattr(problem, name)[keep] for name in
                                   ("h_r1", "h_r2", "h_1r_prev", "h_2r_prev", "g_c_scale")))
        assert vars(sub).keys() == vars(built).keys()
        assert {"p_bar", "nu", "nu_eye", "gr", "h_conj", "p_bar_h_bar_h"} <= vars(built).keys()
        for name, value in vars(built).items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(getattr(sub, name), value), (name, size, keep)
            else:
                assert getattr(sub, name) == value, name


def test_stack_of_one_problem_is_that_problem():
    cfg = config_from_snr_inr(5.0, 0.0, n_s=2, n_r=3)
    problem, _ = _stacked_problem(cfg, 3, 2, [0.1, 0.4])
    assert SlotProblem.stack([problem]) is problem


@pytest.mark.parametrize("n_s", [1, 2])
@pytest.mark.parametrize("n_r", [2, 3, 5, 12, 32])
def test_identity_objective_is_the_objective_at_the_identity_start(n_s, n_r):
    # A design's trace starts at F_bar = I / sqrt(n_r), R_l = I, on the configured problem.  There
    # alpha^2 = n_r budget / tr G_r and W_f0 = sum_l p_lbar H_rl^H H_lbar^H, so the sum MSE is
    # j_max - (2 / sqrt(n_r)) Re tr W_f0 + (1 / n_r) sum_l tr(H_rl G_l H_rl^H) + n_s (nu_1 + nu_2) / alpha^2.
    cfg = config_from_snr_inr(10.0, 5.0, n_s=n_s, n_r=n_r, max_iterations=1)
    problem, _ = _stacked_problem(cfg, 41, 3, [0.2, 1.1, 3.0])
    alpha_sq = n_r * problem.budget / np.trace(problem.gr, axis1=1, axis2=2).real
    cross = (problem.h.conj() * problem.p_bar_h_bar_h).real.sum(axis=(1, 2, 3))
    quad = np.einsum("rlij,rljk,rlik->r", problem.h, problem.g, problem.h.conj()).real
    reference = problem.j_max - 2.0 / np.sqrt(n_r) * cross + quad / n_r + n_s * problem.nu.sum() / alpha_sq
    assert np.max(np.abs(design_slot_batch(problem).j_trace[:, 0] / reference - 1.0)) <= 1e-13


@pytest.mark.parametrize("n_r", [2, 3, 4])
def test_identity_bases_lift_designs_unchanged(n_r):
    # n_r <= 2 n_s: the design runs on the problem itself, and its identity bases change no bit of it
    cfg = config_from_snr_inr(10.0, 5.0, n_s=2, n_r=n_r)
    problem, _ = _stacked_problem(cfg, 47, 3, [0.0, 0.4, 1.2])
    design = design_slot_batch(problem)
    assert design.q.shape == design.p.shape == (3, n_r, n_r)
    for k in range(3):
        assert np.array_equal(design.solution(k).f_bar, design.z[k])


@pytest.mark.parametrize("n_s, n_r", [(1, 3), (2, 5), (2, 12)])
def test_reduction_takes_both_bases_in_one_qr(n_s, n_r):
    # one np.linalg.qr call over both stacks gives each basis bit for bit as its own call does
    cfg = config_from_snr_inr(10.0, 5.0, n_s=n_s, n_r=n_r)
    size = 4
    problem, _ = _stacked_problem(cfg, 43, size, np.full(size, 0.5))
    reduced, q, p = problem.reduced()
    q_alone, t = np.linalg.qr(_herm(problem.h.reshape(size, 2 * n_s, n_r)))
    p_alone, u = np.linalg.qr(np.concatenate([problem.h_1r_prev, problem.h_2r_prev], axis=2))
    assert np.array_equal(q, q_alone) and np.array_equal(p, p_alone)
    assert np.array_equal(reduced.h, _herm(t).reshape(size, 2, n_s, 2 * n_s))
    assert np.array_equal(reduced.h_bar, np.stack([u[:, :, n_s:], u[:, :, :n_s]], axis=1))


def _relative_error(value, reference):
    return float(np.max(np.linalg.norm(value - reference, axis=(-2, -1)) / np.linalg.norm(reference, axis=(-2, -1))))


def _receive_coords(z):
    """Real coordinates of receive-matrix pairs (..., 2, n_s, n_s): entry (l, i, j) of R_l, real then imaginary part."""
    return np.ascontiguousarray(z).reshape(z.shape[:-3] + (-1,)).view(np.float64)


def _expand(problem, name, f):
    """A per-realization array of ``problem`` with unit axes for the candidate axes of ``f``."""
    a = getattr(problem, name)
    return a.reshape(a.shape[:1] + (1,) * (f.ndim - 3) + a.shape[1:])


def _reference_amplification(problem, f_bar):
    """alpha from tr(F_bar G_r F_bar^H) by one stacked product per (realization, candidate)."""
    gr = _expand(problem, "gr", f_bar)
    return np.sqrt(problem.budget / (f_bar @ gr @ _herm(f_bar)).trace(axis1=-2, axis2=-1).real)


def _reference_wiener(problem, f, alpha):
    """Wiener receive matrices and p_lbar C H_lbar by one product per (realization, candidate, receiver)."""
    h, g, h_bar = (_expand(problem, name, f) for name in ("h", "g", "h_bar"))
    c = h @ f[..., None, :, :]
    b = problem.p_bar[:, None, None] * (c @ h_bar)
    return alpha[..., None, None, None] * np.linalg.solve(c @ g @ _herm(c) + problem.nu_eye, b), b


def _reference_mixed(problem, f_bar, r, u):
    """B^T u through the tables of the receive-gradient change H U P1 + P2 U^H P3 + nu dg R,
    for ``f_bar`` and flattened relay directions ``u``."""
    size, n_r, n_s = len(f_bar), problem.cfg.n_r, problem.cfg.n_s
    cg = problem.h @ f_bar[:, None] @ problem.g
    d1 = _herm(r) @ cg - problem.p_bar_h_bar_h
    t1 = np.einsum("rlia,rljb->rablij", problem.h, np.conj(d1)).reshape(size, n_r * n_r, -1)
    t2 = np.einsum("rlia,rlbj->rbalij", cg, _herm(problem.h) @ r).reshape(size, n_r * n_r, -1)
    gx = np.conj(f_bar @ problem.gr).reshape(size, -1, 1) * (2.0 / problem.budget)
    nu_r = (problem.nu[:, None, None] * r).reshape(size, 1, -1)
    out = u @ t1 + np.conj(u) @ t2 + np.real(u @ gx) * nu_r
    return _receive_coords(out.reshape(*u.shape[:2], 2, n_s, n_s))


def _vector_error(value, reference):
    return float(np.max(np.linalg.norm(value - reference, axis=-1) / np.linalg.norm(reference, axis=-1)))


def _real_form(c):
    """The real matrix of complex ``c`` acting on (real, imaginary)-interleaved coordinates."""
    return np.kron(c.real, np.eye(2)) + np.kron(c.imag, np.array([[0.0, -1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("n_s", [1, 2])
@pytest.mark.parametrize("size", [1, 7])
def test_design_kernels_match_their_reference_formulas(n_s, size):
    # The design's kernels against the formulas they replace: the receive
    # Hessian D bit for bit against blockdiag_l(A_l kron I) in real
    # coordinates, the amplification and the Wiener receivers through one
    # product per candidate and receiver, K(X) - W_f0 through W_l = B_l^H B_l
    # and W_f0, B^T u through its einsum tables, and the blend steps through
    # inverted systems.  n_r = 4 runs the kernels off the 2 n_s-antenna shape
    # of the designs' equivalent problems when n_s = 1.
    rng = np.random.default_rng(10 * n_s + size)
    cfg = config_from_snr_inr(10.0, 5.0, n_s=n_s, n_r=4)
    n_r = cfg.n_r
    problem, _ = _stacked_problem(cfg, 17, size, rng.uniform(0.0, 1.0, size))

    z = crandn(rng, size, 2, n_s, n_s)
    a = z @ _herm(z) + np.eye(n_s)
    # row k of D is the image of unit receive perturbation k: the transpose of the real matrix
    reference = np.stack([block_diag(*(_real_form(np.kron(a_l, np.eye(n_s))).T for a_l in a_k)) for a_k in a])
    assert np.array_equal(beamforming._receive_hessian(a), reference)

    for shape in ((size,), (size, 4)):
        f = beamforming._unit(crandn(rng, *shape, n_r, n_r))
        alpha = problem.amplification(f)
        assert alpha.shape == shape
        assert np.max(np.abs(alpha / _reference_amplification(problem, f) - 1.0)) <= 1e-12
        r, b = problem.wiener(alpha[..., None, None] * f, alpha)
        r_ref, b_ref = _reference_wiener(problem, alpha[..., None, None] * f, alpha)
        assert _relative_error(r, r_ref) <= 1e-12 and _relative_error(b, b_ref) <= 1e-12
        _, r_received, j = problem.receive(f)
        j_ref = problem.j_max - (b_ref.conj() * r_ref).sum(axis=(-3, -2, -1)).real / alpha
        assert np.array_equal(r_received, r) and np.max(np.abs(j / j_ref - 1.0)) <= 1e-12

    f_bar = beamforming._unit(crandn(rng, size, n_r, n_r))
    alpha, r, _ = problem.receive(f_bar)
    system = RelaySystem(problem, r)
    x = crandn(rng, size, 3, n_r, n_r)
    w1, w2, w_f0, w_f = _receive_operators(cfg, problem.h_r1, problem.h_r2, problem.h_1r_prev,
                                           problem.h_2r_prev, r[:, 0], r[:, 1])
    w = np.stack([w1, w2], axis=1)
    k_x = (w[:, None] @ x[:, :, None] @ problem.g[:, None]).sum(axis=2) \
        + (w_f / problem.budget)[:, None, None, None] * (x @ problem.gr[:, None])
    assert _relative_error(system.apply(x), k_x) <= 1e-12
    assert _relative_error(system.residual(x[:, 0]), k_x[:, 0] - w_f0) <= 1e-12

    keep = 1.0 - rng.uniform(0.01, 1.0, (size, 3))
    model = beamforming._NewtonModel(problem, system, f_bar, alpha, r)
    u_rows = crandn(rng, size, 5, n_r * n_r)
    assert _vector_error(model._mixed(u_rows), _reference_mixed(problem, f_bar, r, u_rows)) <= 1e-12
    u = crandn(rng, size, n_r, n_r)
    u_vec = u.reshape(size, 1, -1)
    blend = model._d[:, None] - keep[..., None, None] * model._m[:, None]
    v = (np.linalg.inv(blend) @ model._mixed(u_vec)[..., None])[..., 0]
    steps = -(u_vec + keep[..., None] * (v @ model.w)).reshape(size, 3, n_r, n_r)
    assert _relative_error(model.steps(u, keep), steps) <= 1e-10


@pytest.mark.parametrize("n_s", [1, 2])
@pytest.mark.parametrize("pin_receive", [False, True])
def test_stacked_designs_equal_designs_alone(n_s, pin_receive):
    # Rows do not interact: a stack of 7 realizations, each with its own
    # residual-SI scale, designs each realization exactly as a stack of one.
    cfg = config_from_snr_inr(10.0, 5.0, n_s=n_s, n_r=5)
    problem, _ = _stacked_problem(cfg, 23, 7, np.linspace(0.1, 1.3, 7))
    stacked = design_slot_batch(problem, pin_receive)
    for k in range(7):
        alone = design_slot_batch(problem.subset([k]), pin_receive)
        for name in (field.name for field in dataclasses.fields(BatchDesign)):
            assert np.array_equal(getattr(stacked, name)[k], getattr(alone, name)[0], equal_nan=name == "j_trace"), (k, name)


def _chords_per_iteration(calls):
    """Chord trials per accelerated iteration from the ranks of the steering stacks passed to
    ``SlotProblem.receive``: rank 4 scores an iteration's candidates, rank 3 the plain first
    iteration and each chord trial after them."""
    chords = []
    for ndim in calls[1:]:
        if ndim == 4:
            chords.append(0)
        else:
            chords[-1] += 1
    return chords


def test_chord_loop_stops_once_no_row_accepts(monkeypatch):
    # At iteration 2, row 1 of this stack (the one of
    # test_stacked_designs_equal_designs_alone, which checks every row) rejects
    # its first chord trial while another row accepts its own: the stack then
    # tries a second chord for every row, row 1 alone stops after one, and
    # both designs of row 1 are equal bit for bit (a rejected trial leaves the
    # row as it was, so the second would repeat it).
    cfg = config_from_snr_inr(10.0, 5.0, n_s=2, n_r=5)
    problem, _ = _stacked_problem(cfg, 23, 7, np.linspace(0.1, 1.3, 7))
    calls = []
    receive = SlotProblem.receive

    def counting(self, f_bar):
        calls.append(f_bar.ndim)
        return receive(self, f_bar)

    monkeypatch.setattr(SlotProblem, "receive", counting)
    stacked = design_slot_batch(problem)
    assert stacked.iterations_used[1] >= 2 and _chords_per_iteration(calls)[0] == 2
    calls.clear()
    alone = design_slot_batch(problem.subset([1]))
    assert _chords_per_iteration(calls)[0] == 1
    for name in (field.name for field in dataclasses.fields(BatchDesign)):
        assert np.array_equal(getattr(stacked, name)[1], getattr(alone, name)[0], equal_nan=name == "j_trace"), name
