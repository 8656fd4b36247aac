"""Trajectory engine: the slot loop of every scheme, batched over realizations.

One trajectory is one channel realization followed over ``slots`` time slots:
slot 0 carries only the sources' first transmissions (the relay is silent),
full-duplex operation starts in slot 1.  In each slot the residual-SI
covariance is built from every earlier beamformer, the slot is designed with
:func:`fdrelay.beamforming.design_slot_batch` and then scored.  Every step is
batched over a stack of realizations, which removes the Python-call overhead
that dominates at these matrix sizes.  :func:`run_trajectories_batch` runs
realizations 0..R-1 of a grid point and :func:`fdrelay.simulate.run_trajectory`
one realization with its designs; both go through the same loop.  The
per-realization formulas in ``beamforming``, ``si_propagation`` and
``metrics`` are independent references that the tests compare it against.

Scheme semantics:

* ``proposed``     - per-slot joint design with the residual-SI covariance
                     built from the configured memory window;
* ``conventional`` - same design with the residual-SI covariance forced to
                     zero (current-slot channels only); the amplification is
                     then recalibrated to the true transmit power budget, as
                     an amplify-and-forward relay's gain control would (the
                     design model knows nothing of the accumulated input
                     power, but the power amplifier is still power-limited),
                     and the receive matrices are re-derived at the
                     calibrated beamformer;
* ``relay_only``   - proposed relay design with receive matrices pinned to
                     identity;
* ``half_duplex``  - two-phase reference on the same channel draws.

Reported per-slot MSE is always evaluated against the *untruncated* residual-
SI covariance of the actually applied beamformers, so schemes and memory
settings are compared on the error they really cause, not on the model each
design believed.  Rates likewise use the realized error matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .beamforming import BatchDesign, SlotProblem, design_slot_batch
from .channel import (
    MEMORY_AUTO,
    MEMORY_INFINITE,
    SystemConfig,
    TimeSlotChannels,
    draw_slot_channels,
    slot_rng,
)
from .matrix_core import fro_sq, herm

__all__ = ["SCHEMES", "BatchTrajectoryStats", "run_trajectories_batch"]

SCHEMES = ("proposed", "conventional", "relay_only", "half_duplex")


@dataclass(frozen=True)
class BatchTrajectoryStats:
    """Per-slot, per-realization metrics; row k holds slot k+1."""

    sum_mse: np.ndarray
    sum_rate: np.ndarray


@dataclass(frozen=True)
class _Trajectories:
    """Everything the slot loop produces for a stack of realizations.

    Row k of ``sum_mse`` and ``rates`` (the latter (slots, R, 2): the rates of
    the streams decoded at source 1 and source 2) and ``designs[k]`` belong
    to slot k+1; a design carries the applied amplification and receive
    matrices (the calibrated ones for the conventional scheme).
    ``channels[s]`` holds the stacked draws of slot s = 0..slots.
    """

    sum_mse: np.ndarray
    rates: np.ndarray
    designs: list[BatchDesign]
    channels: list[TimeSlotChannels]


def _draw_stacked(cfg: SystemConfig, seed: int, slot: int, realizations: Sequence[int]) -> TimeSlotChannels:
    return TimeSlotChannels.stack(
        [draw_slot_channels(cfg, slot_rng(seed, r, slot), slot) for r in realizations]
    )


def _slot_problem(cfg: SystemConfig, ch_t: TimeSlotChannels, ch_prev: TimeSlotChannels,
                  g_c_scale: np.ndarray) -> SlotProblem:
    return SlotProblem(cfg, ch_t.h_r1, ch_t.h_r2, ch_prev.h_1r, ch_prev.h_2r, g_c_scale)


def _noise_block(cfg: SystemConfig, size: int) -> np.ndarray:
    """Stacked Gram factor of the fresh relay noise, sigma_nr I."""
    return math.sqrt(cfg.sigma_n_sq_r) * np.broadcast_to(np.eye(cfg.n_r), (size, cfg.n_r, cfg.n_r))


def _batch_rates(cfg: SystemConfig, ch_t, ch_prev, core_factor, f_bar, alpha, r) -> np.ndarray:
    """Batched rates (R, 2) of the streams decoded at source 1 and source 2.

    ``core_factor`` is the Gram factor of the relay-side interference.
    Covariances are carried as Gram factors and each rate is computed in the
    whitened factor domain (see metrics.whitened_log_rate), which stays well
    conditioned when the amplified error chains grow geometrically.
    """
    inv_alpha = (1.0 / alpha)[:, None, None]
    rates = []
    for h_rl, h_other, delta_ll, p_own, p_other, sigma_n_sq, r_l in (
        (ch_t.h_r1, ch_prev.h_2r, ch_t.delta_11, cfg.p1, cfg.p2, cfg.sigma_n_sq_1, r[:, 0]),
        (ch_t.h_r2, ch_prev.h_1r, ch_t.delta_22, cfg.p2, cfg.p1, cfg.sigma_n_sq_2, r[:, 1]),
    ):
        rb = herm(r_l)
        noise_factor = np.concatenate(
            [
                rb @ (h_rl @ f_bar) @ core_factor,
                inv_alpha * math.sqrt(p_own) * (rb @ delta_ll),
                inv_alpha * math.sqrt(sigma_n_sq) * rb,
            ],
            axis=2,
        )
        signal_factor = math.sqrt(p_other) * (rb @ h_rl @ f_bar @ h_other)
        p, s_vals, _ = np.linalg.svd(noise_factor, full_matrices=False)
        if not np.all(np.isfinite(s_vals)) or np.any(s_vals[:, -1] <= 0.0):
            raise np.linalg.LinAlgError("interference covariance is singular")
        y = (herm(p) @ signal_factor) / s_vals[..., None]
        gains = np.linalg.svd(y, compute_uv=False) ** 2
        rates.append(np.sum(np.log1p(gains), axis=-1) / math.log(2.0))
    return np.stack(rates, axis=1)


def _content_factor_batch(cfg: SystemConfig, ch: TimeSlotChannels) -> np.ndarray:
    """Batched factor G with G G^H = p1 H1 H1^H + p2 H2 H2^H + sigma_nr^2 I."""
    return np.concatenate(
        [
            math.sqrt(cfg.p1) * ch.h_1r,
            math.sqrt(cfg.p2) * ch.h_2r,
            _noise_block(cfg, len(ch.h_1r)),
        ],
        axis=2,
    )


def _design_si_scale(cfg, memory, t, f_norm_sq, content_trace, realizations) -> np.ndarray:
    """Batched residual-SI covariance scale (same gating as si_propagation)."""
    r = realizations
    sigma_sq = cfg.sigma_e_sq_r
    if sigma_sq == 0.0 or t < 2:
        return np.zeros(r)
    # f_norm_sq[s-1] / content_trace[s-1] belong to the slot-s beamformer.
    scale = sigma_sq * content_trace[t - 2]
    if t >= 3 and memory >= 2:
        outer = np.ones(r)
        for depth in range(2, int(min(memory, t - 1)) + 1):
            outer = outer * f_norm_sq[t - depth]
            scale = scale + sigma_sq**depth * outer * content_trace[t - depth - 1]
    if memory != MEMORY_INFINITE and t >= memory + 2:
        m_int = int(memory)
        outer = np.ones(r)
        for j in range(t - m_int + 1, t):
            outer = outer * f_norm_sq[j - 1]
        oldest_norm = f_norm_sq[t - m_int - 1]
        content = content_trace[t - m_int - 1]
        for depth in range(m_int + 1, t):
            scale = scale + sigma_sq**depth * outer * oldest_norm ** (depth - m_int) * content
    return scale


def _half_duplex_slot(cfg: SystemConfig, ch_mac: TimeSlotChannels,
                      ch_bc: TimeSlotChannels) -> tuple[BatchDesign, np.ndarray]:
    """Two-phase two-way relaying reference on stacked draws: (design, rates (R, 2)).

    Both sources transmit in the first phase (``ch_mac`` inbound channels) and
    the relay broadcasts in the second (``ch_bc`` outbound channels).  There is
    no loopback self-interference, so the design is the single-slot MMSE
    problem with all error variances zeroed; the rates carry the 1/2 prelog of
    the two-slot exchange.
    """
    cfg_hd = cfg.without_loopback_error()
    mac, bc = ch_mac.zero_error_copy(), ch_bc.zero_error_copy()
    size = len(mac.h_1r)
    design = design_slot_batch(_slot_problem(cfg_hd, bc, mac, np.zeros(size)))
    rates = _batch_rates(cfg_hd, bc, mac, _noise_block(cfg_hd, size), design.f_bar, design.alpha, design.r)
    return design, 0.5 * rates


def _run_trajectories(cfg: SystemConfig, scheme: str, slots: int, seed: int,
                      realizations: Sequence[int]) -> _Trajectories:
    """The slot loop for the realizations with the given indices, batched."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if cfg.memory == MEMORY_AUTO:
        raise ValueError("memory 'auto' must be resolved (see select_memory) before simulation")
    if slots < 1:
        raise ValueError("need at least one full-duplex slot")

    size = len(realizations)
    channels = [_draw_stacked(cfg, seed, 0, realizations)]
    sum_mse = np.empty((slots, size))
    rates = np.empty((slots, size, 2))
    designs: list[BatchDesign] = []

    if scheme == "half_duplex":
        for t in range(1, slots + 1):
            channels.append(_draw_stacked(cfg, seed, t, realizations))
            design, rates[t - 1] = _half_duplex_slot(cfg, channels[t - 1], channels[t])
            sum_mse[t - 1] = design.j
            designs.append(design)
        return _Trajectories(sum_mse, rates, designs, channels)

    noise_block = _noise_block(cfg, size)
    pin_receive = scheme == "relay_only"
    f_norm_sq: list[np.ndarray] = []      # per past slot s: tr(F_s F_s^H)
    content_trace: list[np.ndarray] = []  # per past slot s: tr(F_s M_{s-1} F_s^H)
    x_r_factor = None                     # Gram factor of E[x_r x_r^H | errors], previous slot

    for t in range(1, slots + 1):
        channels.append(_draw_stacked(cfg, seed, t, realizations))
        ch_t = channels[t]
        ch_prev = channels[t - 1]

        if scheme == "conventional":
            g_design = np.zeros(size)
        else:
            g_design = _design_si_scale(cfg, cfg.memory, t, f_norm_sq, content_trace, size)
        problem = _slot_problem(cfg, ch_t, ch_prev, g_design)
        design = design_slot_batch(problem, pin_receive)
        f_bar, alpha, r = design.f_bar, design.alpha, design.r

        if scheme != "conventional" and cfg.memory == MEMORY_INFINITE:
            j_true = design.j
        else:
            g_true = _design_si_scale(cfg, MEMORY_INFINITE, t, f_norm_sq, content_trace, size)
            true_problem = _slot_problem(cfg, ch_t, ch_prev, g_true)
            if scheme == "conventional":
                # gain control: the true transmit power meets the budget even
                # though the design modeled no residual interference; the
                # receive matrices are re-derived at the calibrated beamformer
                alpha = true_problem.amplification(f_bar)
                r = problem.wiener(alpha[:, None, None] * f_bar, alpha)[0]
            j_true = true_problem.objective(f_bar, alpha, r)
        sum_mse[t - 1] = j_true
        designs.append(replace(design, alpha=alpha, r=r))
        f = alpha[:, None, None] * f_bar

        # Interference factor of this slot's relay input: fresh relay noise
        # plus the previous transmission leaked through the realized error.
        if x_r_factor is None:
            leak = None
            core_factor = noise_block
        else:
            leak = ch_prev.delta_rr @ x_r_factor
            core_factor = np.concatenate([noise_block, leak], axis=2)
        rates[t - 1] = _batch_rates(cfg, ch_t, ch_prev, core_factor, f_bar, alpha, r)

        # Roll the trajectory state forward.
        relay_input_factor = _content_factor_batch(cfg, ch_prev)
        if leak is not None:
            relay_input_factor = np.concatenate([relay_input_factor, leak], axis=2)
        x_r_factor = f @ relay_input_factor
        f_norm_sq.append(fro_sq(f))
        fh1 = f @ ch_prev.h_1r
        fh2 = f @ ch_prev.h_2r
        content_trace.append(
            cfg.p1 * fro_sq(fh1) + cfg.p2 * fro_sq(fh2) + cfg.sigma_n_sq_r * fro_sq(f)
        )

    return _Trajectories(sum_mse, rates, designs, channels)


def run_trajectories_batch(
    cfg: SystemConfig,
    scheme: str,
    slots: int,
    seed: int,
    realizations: int,
) -> BatchTrajectoryStats:
    """Realizations 0..``realizations``-1 of one (config, scheme) trajectory, vectorized.

    Each realization's results do not depend on how many run alongside it:
    channel draws are keyed by (seed, realization, slot) and every design
    and metric is computed per realization.
    """
    out = _run_trajectories(cfg, scheme, slots, seed, range(realizations))
    return BatchTrajectoryStats(sum_mse=out.sum_mse, sum_rate=out.rates[..., 0] + out.rates[..., 1])
