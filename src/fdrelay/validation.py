"""Independent oracles that adjudicate the closed forms by brute force.

Every analytic quantity used by the design has a sampling counterpart here:

* the chained-error trace moment is re-estimated by drawing the error chain;
* the per-slot sum MSE, relay transmit power and residual-SI covariance are
  re-estimated by propagating the exact signal recursion (or, for a finite
  design memory, the truncated model the design assumes);
* the relay subproblem solution is challenged by random unit-norm steering
  candidates with the amplification matched to the power constraint.

These run at small dimensions; they validate formulas, not performance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beamforming import BeamformingSolution, SlotOperators, alternate_optimize, build_slot_operators
from .channel import (MEMORY_INFINITE, SystemConfig, check_memory, config_from_snr_inr, crandn,
                      draw_slot_channels, slot_rng)
from .matrix_core import chained_error_trace_mean
from .si_propagation import ResidualSICovariance, residual_si_covariance
from .simulate import run_trajectory

__all__ = [
    "chained_error_trace_sample_mean",
    "SignalChainEnsemble",
    "simulate_signal_chain",
    "brute_force_relay_opt",
    "OracleCheck",
    "run_oracle_suite",
]

# Rounds of shrinking perturbations in the relay random search.
_REFINE_ROUNDS = 8


def chained_error_trace_sample_mean(v_list, sigma_sq: float, n_samples: int,
                                    rng: np.random.Generator) -> float:
    """Sample mean of the traced error-chain square (oracle for the closed form).

    Draws the random matrices with independent CN(0, sigma_sq) entries, forms
    W = V_v (D_{v-1} V_{v-1}) ... (D_1 V_1) per draw and averages ||W||_F^2.
    """
    mats = [np.asarray(v, dtype=complex) for v in v_list]
    if len(mats) < 2:
        raise ValueError("need at least two chain matrices")
    n = mats[0].shape[0]
    scale = math.sqrt(sigma_sq)
    w = np.broadcast_to(mats[-1], (n_samples, n, n))
    for k in range(len(mats) - 2, -1, -1):
        d = scale * crandn(rng, n_samples, n, n)
        w = w @ d @ mats[k]
    return float(np.mean(np.real(np.einsum("nij,nij->n", w, w.conj()))))


@dataclass(frozen=True)
class SignalChainEnsemble:
    """Sampled signals of the final slot of a trajectory.

    ``si_prev`` is the residual-SI component inside the relay's slot-(t-1)
    input, whose covariance the closed-form design models.
    """

    t: int
    n_samples: int
    x1_prev: np.ndarray
    x2_prev: np.ndarray
    x_r_t: np.ndarray
    si_prev: np.ndarray
    y_hat_1: np.ndarray
    y_hat_2: np.ndarray

    def empirical_sum_mse(self, solution: BeamformingSolution) -> float:
        est1 = (self.y_hat_1 @ solution.r1.conj()) / solution.alpha
        est2 = (self.y_hat_2 @ solution.r2.conj()) / solution.alpha
        err1 = self.x2_prev - est1
        err2 = self.x1_prev - est2
        return float(
            np.mean(np.sum(np.abs(err1) ** 2, axis=1))
            + np.mean(np.sum(np.abs(err2) ** 2, axis=1))
        )

    def empirical_relay_power(self) -> float:
        return float(np.mean(np.sum(np.abs(self.x_r_t) ** 2, axis=1)))

    def empirical_si_scale(self) -> float:
        """Estimate of c in E[si si^H] = c I."""
        n_r = self.si_prev.shape[1]
        return float(np.mean(np.sum(np.abs(self.si_prev) ** 2, axis=1))) / n_r

    def empirical_si_covariance(self) -> np.ndarray:
        return (self.si_prev.conj().T @ self.si_prev) / self.n_samples


def _draw_symbols(rng, n, dim, power):
    return math.sqrt(power) * crandn(rng, n, dim)


def _apply_error(rng, n, dim, sigma_sq, x):
    if sigma_sq == 0.0:
        return np.zeros_like(x)
    d = math.sqrt(sigma_sq) * crandn(rng, n, dim, dim)
    return np.einsum("nij,nj->ni", d, x)


def simulate_signal_chain(
    channels,
    solutions,
    cfg: SystemConfig,
    rng: np.random.Generator,
    n_samples: int,
    memory: int | float | None = None,
) -> SignalChainEnsemble:
    """Propagate the slot-by-slot signal recursion for the final slot.

    ``channels[s]`` holds slot s (0..t) and ``solutions[s-1]`` the design of
    slot s (1..t); fresh symbols, noises and loopback-error realizations are
    drawn per sample.  The residual SI of slot t-1 is built up by one pass per
    slot s = 1..t-1, which reads slot k = max(s, t - memory): the relay input
    y = (fresh input of slot k-1) + si leaves as si = D (y F_k), with a fresh
    loopback error D.  With ``memory`` unset or infinite, k = s and this is
    the exact recursion (residual SI accumulates through the true beamformer
    chain); with a finite value it is the slot-t design model, where the
    slots before the window repeat the oldest in-window beamformer and
    channels.
    """
    t = len(solutions)
    if len(channels) != t + 1 or t < 1:
        raise ValueError("need channels for slots 0..t and solutions for slots 1..t")
    memory = MEMORY_INFINITE if memory is None else check_memory(memory)

    n = int(n_samples)
    n_s, n_r = cfg.n_s, cfg.n_r
    f = [sol.f for sol in solutions]  # f[s-1] applied in slot s

    def fresh_relay_input(s):
        x1_s = _draw_symbols(rng, n, n_s, cfg.p1)
        x2_s = _draw_symbols(rng, n, n_s, cfg.p2)
        noise = math.sqrt(cfg.sigma_n_sq_r) * crandn(rng, n, n_r)
        return x1_s, x2_s, x1_s @ channels[s].h_1r.T + x2_s @ channels[s].h_2r.T + noise

    si = np.zeros((n, n_r), dtype=complex)
    for s in range(1, t):
        k = int(max(s, t - memory))
        y = fresh_relay_input(k - 1)[2] + si
        si = _apply_error(rng, n, n_r, cfg.sigma_e_sq_r, y @ f[k - 1].T)
    x1_prev, x2_prev, y = fresh_relay_input(t - 1)
    x_r_t = (y + si) @ f[t - 1].T
    ch_t, ch_prev = channels[t], channels[t - 1]
    x1_t = _draw_symbols(rng, n, n_s, cfg.p1)
    x2_t = _draw_symbols(rng, n, n_s, cfg.p2)

    y_hat = []
    for h_rl, h_own_prev, x_own_prev, x_own_t, sigma_e_sq, sigma_n_sq in (
        (ch_t.h_r1, ch_prev.h_1r, x1_prev, x1_t, cfg.sigma_e_sq_1, cfg.sigma_n_sq_1),
        (ch_t.h_r2, ch_prev.h_2r, x2_prev, x2_t, cfg.sigma_e_sq_2, cfg.sigma_n_sq_2),
    ):
        echo = x_own_prev @ (h_rl @ f[t - 1] @ h_own_prev).T
        loop = _apply_error(rng, n, n_s, sigma_e_sq, x_own_t)
        noise = math.sqrt(sigma_n_sq) * crandn(rng, n, n_s)
        y_hat.append(x_r_t @ h_rl.T - echo + loop + noise)

    return SignalChainEnsemble(
        t=t,
        n_samples=n,
        x1_prev=x1_prev,
        x2_prev=x2_prev,
        x_r_t=x_r_t,
        si_prev=si,
        y_hat_1=y_hat[0],
        y_hat_2=y_hat[1],
    )


def feasible_relay_objective(ops: SlotOperators, cfg: SystemConfig,
                             candidates: np.ndarray) -> np.ndarray:
    """Sum MSE of steering candidates with power-matched amplification.

    ``candidates`` has shape (batch, n_r, n_r); the receive matrices are the
    ones ``ops`` was built with.  Eliminating the amplification through the
    power constraint leaves a closed expression in the steering matrix alone.
    """
    d = np.asarray(candidates, dtype=complex)
    if d.ndim == 2:
        d = d[None]
    c0 = cfg.n_s * (cfg.p1 + cfg.p2)
    lin = 2.0 * np.real(np.einsum("ij,bij->b", ops.w_f0.conj(), d))
    quad = np.zeros(d.shape[0])
    budget = cfg.n_r * cfg.pr
    for w, g, weight in (
        (ops.w_f1, ops.g1, 1.0),
        (ops.w_f2, ops.g2, 1.0),
        (None, ops.gr, ops.w_f_scalar / budget),
    ):
        e = d @ g if w is None else np.einsum("ij,bjk,kl->bil", w, d, g)
        quad = quad + weight * np.real(np.einsum("bij,bij->b", e, d.conj()))
    return c0 - lin + quad


def brute_force_relay_opt(
    ops: SlotOperators,
    cfg: SystemConfig,
    budget: int,
    rng: np.random.Generator,
) -> tuple[float, np.ndarray]:
    """Random-search oracle for the relay subproblem at toy dimensions.

    Spends ~70% of the budget on uniform random unit-norm steering candidates
    and the rest on shrinking perturbations around the incumbent, always with
    the amplification matched to the power constraint.  Returns the best found
    (sum MSE, full beamformer).
    """
    n_r = cfg.n_r

    best_d = np.eye(n_r) / math.sqrt(n_r)
    best_j = float(feasible_relay_objective(ops, cfg, best_d)[0])
    if budget <= 0:
        return best_j, ops.problem.amplification(best_d[None])[0] * best_d

    def consider(batch):
        nonlocal best_d, best_j
        norms = np.sqrt(np.einsum("bij,bij->b", batch, batch.conj()).real)
        batch = batch / norms[:, None, None]
        values = feasible_relay_objective(ops, cfg, batch)
        k = int(np.argmin(values))
        if values[k] < best_j:
            best_j = float(values[k])
            best_d = batch[k]

    n_random = max(1, int(0.7 * budget))
    consider(crandn(rng, n_random, n_r, n_r))

    remaining = budget - n_random
    per_round = max(1, remaining // _REFINE_ROUNDS)
    spread = 0.3
    for _ in range(_REFINE_ROUNDS):
        if remaining <= 0:
            break
        size = min(per_round, remaining)
        consider(best_d[None] + spread * crandn(rng, size, n_r, n_r))
        remaining -= size
        spread *= 0.5

    return best_j, ops.problem.amplification(best_d[None])[0] * best_d


@dataclass(frozen=True)
class OracleCheck:
    name: str
    passed: bool
    value: float
    reference: float
    tolerance: float

    def describe(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: got {self.value:.6g}, "
            f"expected {self.reference:.6g} (tol {self.tolerance:.2g})"
        )


def run_oracle_suite(seed: int = 0, draws: int = 20000) -> list[OracleCheck]:
    """Self-contained oracle checks, scriptable from the CLI.

    Runs at toy dimensions (n_s=1, n_r=2) and compares every closed form
    against its sampling counterpart.
    """
    rng = np.random.default_rng(seed)
    checks: list[OracleCheck] = []

    def relative_check(name, value, reference, tol):
        rel = abs(value - reference) / max(abs(reference), 1e-30)
        checks.append(OracleCheck(name, rel <= tol, value, reference, tol))

    # Chained-error trace moment.
    v_list = [crandn(rng, 3, 3) for _ in range(3)]
    closed = chained_error_trace_mean(v_list, 0.2)
    sampled = chained_error_trace_sample_mean(v_list, 0.2, draws, rng)
    relative_check("chained-error trace moment vs sampling", sampled, closed, 0.03)

    cfg = config_from_snr_inr(5.0, 0.0, n_s=1, n_r=2)
    traj = run_trajectory(cfg, "proposed", slots=3, seed=seed, realization=0)
    ensemble = simulate_signal_chain(traj.channels, traj.solutions, cfg, rng, draws)
    solution = traj.solutions[-1]
    relative_check(
        "analytic sum MSE vs signal-level sampling (slot 3)",
        ensemble.empirical_sum_mse(solution),
        solution.j_value,
        0.03,
    )
    relative_check(
        "relay transmit power vs budget",
        ensemble.empirical_relay_power(),
        cfg.n_r * cfg.pr,
        0.02,
    )
    g_c = residual_si_covariance(traj.channels, [sol.f for sol in traj.solutions], cfg)
    ensemble4 = simulate_signal_chain(
        traj.channels[:4] + (traj.channels[3],), traj.solutions + (traj.solutions[-1],),
        cfg, rng, draws,
    )
    relative_check(
        "residual-SI covariance scale vs sampling (slot 4)",
        ensemble4.empirical_si_scale(),
        g_c.scale,
        0.03,
    )

    cfg_m1 = cfg.with_memory(1)
    traj_m1 = run_trajectory(cfg_m1, "proposed", slots=3, seed=seed, realization=0)
    ensemble_m1 = simulate_signal_chain(
        traj_m1.channels, traj_m1.solutions, cfg_m1, rng, draws, memory=1
    )
    relative_check(
        "analytic sum MSE vs truncated-model sampling (memory 1, slot 3)",
        ensemble_m1.empirical_sum_mse(traj_m1.solutions[-1]),
        traj_m1.solutions[-1].j_value,
        0.03,
    )

    # Closed-form relay design never loses to random search.
    worst_gap = -np.inf
    for k in range(3):
        ch0 = draw_slot_channels(cfg, slot_rng(seed, 100 + k, 0), 0)
        ch1 = draw_slot_channels(cfg, slot_rng(seed, 100 + k, 1), 1)
        sol = alternate_optimize(ch1, ch0, ResidualSICovariance.zero(cfg.n_r), cfg)
        ops = build_slot_operators(ch1, ch0, ResidualSICovariance.zero(cfg.n_r), np.eye(1), np.eye(1), cfg)
        best_j, _ = brute_force_relay_opt(ops, cfg, budget=draws, rng=rng)
        worst_gap = max(worst_gap, sol.j_value - best_j)
    checks.append(
        OracleCheck(
            "closed-form design vs random-search oracle (worst gap)",
            worst_gap <= 1e-6,
            worst_gap,
            0.0,
            1e-6,
        )
    )
    return checks
