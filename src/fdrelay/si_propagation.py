"""The residual loopback-SI covariance at the relay.

In slot t the relay's post-cancellation input carries, besides the fresh
signals, every past slot's content re-amplified through chains of
(error matrix x beamformer) products.  Averaging over the loopback errors,
each chain of depth c collapses to a real scalar times the identity:

    sigma_er^(2c) * [product of tr(F_j F_j^H) over the c-1 outer beamformers]
                  * tr(F_in (p1 H1 H1^H + p2 H2 H2^H + sigma_nr^2 I) F_in^H)

where F_in is the innermost beamformer and H1/H2 are the inbound channels of
the slot whose content the chain carries.  With design memory m, chains deeper
than m are modeled with the oldest stored beamformer and channels repeated in
place of the forgotten ones.  Three gates select which chain groups exist:

    depth 1        -> from slot 2 on
    depths 2..m    -> from slot 3 on, when m >= 2 (window sum)
    depths > m     -> from slot m+2 on (beyond-window sum, repeated oldest)

The covariance is exactly a nonnegative scalar times I, so it is stored by its
scalar with a matrix view for generic code paths.

:func:`residual_si_scale` is the one implementation of the scale, batched over
realizations: the engine's slot loop calls it with the traces it carries, and
:func:`residual_si_covariance` with those of one trajectory, given as its
channel draws and applied beamformers, as a stack of one.  Independent checks
are the sampling oracle :func:`fdrelay.validation.simulate_signal_chain` and
the hand-written chain sums in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import MEMORY_INFINITE, SystemConfig, TimeSlotChannels, check_memory
from .matrix_core import fro_sq

__all__ = [
    "ResidualSICovariance",
    "si_term_gates",
    "content_trace",
    "residual_si_scale",
    "residual_si_covariance",
]


@dataclass(frozen=True)
class ResidualSICovariance:
    """Residual-SI covariance at the relay: ``scale * I_{n_r}``, scale >= 0."""

    scale: float
    n_r: int

    @property
    def matrix(self) -> np.ndarray:
        return self.scale * np.eye(self.n_r)

    @classmethod
    def zero(cls, n_r: int) -> "ResidualSICovariance":
        return cls(scale=0.0, n_r=n_r)


def si_term_gates(t: int, memory: int | float) -> tuple[bool, bool, bool]:
    """Which chain groups contribute in slot t under design memory ``memory``.

    Returns (one_step, window, beyond): all False at t=1; one_step from t=2;
    window when t >= 3 and memory >= 2; beyond when t >= memory + 2.
    """
    if t < 1:
        raise ValueError("slot index must be >= 1")
    check_memory(memory)
    one_step = t >= 2
    window = t >= 3 and memory >= 2
    beyond = memory != MEMORY_INFINITE and t >= memory + 2
    return one_step, window, beyond


def content_trace(cfg: SystemConfig, f: np.ndarray, h_1r: np.ndarray, h_2r: np.ndarray) -> np.ndarray:
    """tr{F (p1 H1 H1^H + p2 H2 H2^H + sigma_nr^2 I) F^H} for stacks of F and inbound channels."""
    return cfg.p1 * fro_sq(f @ h_1r) + cfg.p2 * fro_sq(f @ h_2r) + cfg.sigma_n_sq_r * fro_sq(f)


def residual_si_scale(cfg: SystemConfig, memory: int | float, t: int, f_norm_sq, content_traces,
                      realizations: int) -> np.ndarray:
    """Residual-SI covariance scale of slot ``t`` for a stack of ``realizations`` trajectories.

    ``f_norm_sq[s - 1]`` and ``content_traces[s - 1]`` hold, per realization,
    tr(F_s F_s^H) and the :func:`content_trace` of the beamformer applied in
    slot s; only the slots that the gated chain groups need are read.
    """
    one_step, window, beyond = si_term_gates(t, memory)
    sigma_sq = cfg.sigma_e_sq_r
    if sigma_sq == 0.0 or not one_step:
        return np.zeros(realizations)
    scale = sigma_sq * content_traces[t - 2]
    if window:
        outer = np.ones(realizations)  # product of tr(F_j F_j^H) over the chain's outer beamformers
        for depth in range(2, int(min(memory, t - 1)) + 1):
            outer = outer * f_norm_sq[t - depth]
            scale = scale + sigma_sq**depth * outer * content_traces[t - depth - 1]
    if beyond:
        m_int = int(memory)
        outer = np.ones(realizations)
        for j in range(t - m_int + 1, t):
            outer = outer * f_norm_sq[j - 1]
        oldest_norm = f_norm_sq[t - m_int - 1]
        content = content_traces[t - m_int - 1]
        for depth in range(m_int + 1, t):
            scale = scale + sigma_sq**depth * outer * oldest_norm ** (depth - m_int) * content
    return scale


def residual_si_covariance(
    channels: Sequence[TimeSlotChannels],
    beamformers: Sequence[np.ndarray],
    cfg: SystemConfig,
    memory: int | float | None = None,
) -> ResidualSICovariance:
    """Residual-SI covariance G_c of slot t = ``len(beamformers)`` + 1 of one trajectory.

    ``beamformers[s-1]`` is the beamformer applied in slot s and ``channels[s]``
    holds the draws of slot s, as in :func:`fdrelay.metrics.achievable_sum_rate`;
    channels of slots 0..t-2 are read.  ``memory`` defaults to the configured
    value.
    """
    t = len(beamformers) + 1
    if len(channels) < t - 1:
        raise ValueError(f"slot {t} needs channels for slots 0..{t - 2}, got {len(channels)}")
    if any(np.shape(f) != (cfg.n_r, cfg.n_r) for f in beamformers):
        raise ValueError(f"beamformers must be {cfg.n_r}x{cfg.n_r}")
    f = np.asarray(beamformers, dtype=complex).reshape(-1, cfg.n_r, cfg.n_r)
    inbound = channels[: t - 1]
    h_1r = np.asarray([ch.h_1r for ch in inbound]).reshape(-1, cfg.n_r, cfg.n_s)
    h_2r = np.asarray([ch.h_2r for ch in inbound]).reshape(-1, cfg.n_r, cfg.n_s)
    norms, contents = fro_sq(f)[:, None], content_trace(cfg, f, h_1r, h_2r)[:, None]
    scale = residual_si_scale(cfg, cfg.memory if memory is None else memory, t, norms, contents, 1)
    return ResidualSICovariance(scale=float(scale[0]), n_r=cfg.n_r)
