"""Per-slot link metrics: achievable sum rate, half-duplex reference, mode choice.

The rate of one slot is a per-realization quantity: the interference-plus-
noise covariance seen by each source contains the *realized* loopback error
matrices (its own current one and the relay's past ones through the amplified
chains), while symbols and thermal noises are averaged analytically.  Ensemble
averages are taken by the sweep harness across channel realizations.
:func:`achievable_sum_rate` rebuilds those chains for one realization; it is
the reference for the rates the engine carries forward slot by slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .beamforming import BeamformingSolution
from .channel import SystemConfig, TimeSlotChannels
from .engine import _half_duplex_slot

__all__ = [
    "SlotMetrics",
    "achievable_sum_rate",
    "half_duplex_reference",
    "duplex_mode_select",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SlotMetrics:
    """Metrics of one time slot under one scheme."""

    slot_index: int
    scheme: str
    sum_mse: float
    sum_rate: float
    rate_1: float  # rate of the stream decoded at source 1
    rate_2: float


def _content_factor(ch: TimeSlotChannels, cfg: SystemConfig) -> np.ndarray:
    """Factor G with G G^H = p1 H1 H1^H + p2 H2 H2^H + sigma_nr^2 I."""
    return np.hstack([
        math.sqrt(cfg.p1) * ch.h_1r,
        math.sqrt(cfg.p2) * ch.h_2r,
        math.sqrt(cfg.sigma_n_sq_r) * np.eye(cfg.n_r),
    ])


def whitened_log_rate(noise_factor: np.ndarray, signal_factor: np.ndarray) -> float:
    """log2 det(I + S N^-1) for N = noise_factor noise_factor^H, S likewise.

    Whitening in the factor domain keeps the computation well conditioned
    even when the accumulated interference spans many orders of magnitude
    (the amplified error chains grow geometrically), and the result is
    nonnegative by construction.
    """
    p, s_vals, _ = np.linalg.svd(noise_factor, full_matrices=False)
    if not np.all(np.isfinite(s_vals)) or s_vals[-1] <= 0.0:
        raise np.linalg.LinAlgError("interference covariance is singular")
    y = (p.conj().T @ signal_factor) / s_vals[:, None]
    gains = np.linalg.svd(y, compute_uv=False) ** 2
    return float(np.sum(np.log1p(gains))) / _LN2


def achievable_sum_rate(
    channels: Sequence[TimeSlotChannels],
    beamformers: Sequence[np.ndarray],
    solution: BeamformingSolution,
    cfg: SystemConfig,
    scheme: str = "",
) -> SlotMetrics:
    """Sum rate of slot t given the realized trajectory up to t.

    ``channels[s]`` must hold slot ``s`` (0..t, with realized error matrices)
    and ``beamformers[s-1]`` the beamformer actually applied in slot ``s``
    (1..t).  The interference covariance accumulates every past slot's content
    through the realized relay-error chains, the current source loopback error
    and thermal noise; the desired stream is the other source's previous-slot
    signal through the current steering matrix.  All covariances are carried
    as Gram factors.
    """
    t = len(beamformers)
    if len(channels) != t + 1:
        raise ValueError("need channels for slots 0..t and beamformers for slots 1..t")
    ch_t = channels[t]
    ch_prev = channels[t - 1]
    f_bar = solution.f_bar
    inv_alpha = 1.0 / solution.alpha

    # Relay-side interference factor: fresh relay noise plus all realized
    # error-amplified chains; identical for both sources.
    blocks = [math.sqrt(cfg.sigma_n_sq_r) * np.eye(cfg.n_r)]
    chain = np.eye(cfg.n_r)
    for depth in range(2, t + 1):
        s = t - depth + 1  # slot whose error/beamformer extends the chain
        chain = chain @ (channels[s].delta_rr @ beamformers[s - 1])
        blocks.append(chain @ _content_factor(channels[t - depth], cfg))
    core_factor = np.hstack(blocks)

    rates = []
    for h_rl, h_other, delta_ll, p_own, p_other, sigma_n_sq, r_l in (
        (ch_t.h_r1, ch_prev.h_2r, ch_t.delta_11, cfg.p1, cfg.p2, cfg.sigma_n_sq_1, solution.r1),
        (ch_t.h_r2, ch_prev.h_1r, ch_t.delta_22, cfg.p2, cfg.p1, cfg.sigma_n_sq_2, solution.r2),
    ):
        rb = r_l.conj().T
        noise_factor = np.hstack([
            rb @ (h_rl @ f_bar) @ core_factor,
            inv_alpha * math.sqrt(p_own) * (rb @ delta_ll),
            inv_alpha * math.sqrt(sigma_n_sq) * rb,
        ])
        signal_factor = math.sqrt(p_other) * (rb @ h_rl @ f_bar @ h_other)
        rates.append(whitened_log_rate(noise_factor, signal_factor))

    return SlotMetrics(
        slot_index=ch_t.slot_index,
        scheme=scheme,
        sum_mse=solution.j_value,
        sum_rate=rates[0] + rates[1],
        rate_1=rates[0],
        rate_2=rates[1],
    )


def half_duplex_reference(
    ch_mac: TimeSlotChannels,
    ch_bc: TimeSlotChannels,
    cfg: SystemConfig,
) -> SlotMetrics:
    """Two-phase two-way relaying baseline on the same channel draws.

    Both sources transmit in the first phase (``ch_mac`` inbound channels) and
    the relay broadcasts in the second (``ch_bc`` outbound channels): the
    engine's half-duplex slot step for a stack of one.  There is no loopback
    self-interference, so the design is the single-slot MMSE problem with all
    error variances zeroed; the sum rate carries the 1/2 prelog of the
    two-slot exchange.
    """
    design, rates = _half_duplex_slot(
        cfg, TimeSlotChannels.stack([ch_mac]), TimeSlotChannels.stack([ch_bc])
    )
    rate_1, rate_2 = rates[0]
    return SlotMetrics(
        slot_index=ch_bc.slot_index,
        scheme="half_duplex",
        sum_mse=float(design.j[0]),
        sum_rate=float(rate_1 + rate_2),
        rate_1=float(rate_1),
        rate_2=float(rate_2),
    )


def duplex_mode_select(fd_rate: float, hd_rate: float) -> str:
    """Pick the duplex mode by sum rate; ties go to half-duplex."""
    return "FD" if fd_rate > hd_rate else "HD"
