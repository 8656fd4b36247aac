"""The residual loopback-SI covariance at the relay.

In slot t the relay's post-cancellation input carries, besides the fresh
signals, the previous slot's residual SI re-amplified by the previous
beamformer.  Averaging over the loopback errors, the covariance is a real
scalar times the identity, and its scale follows one recursion:

    s_1 = 0,    s_t = sigma_er^2 * (c_{t-1} + n_{t-1} * s_{t-1})

with n_k = tr(F_k F_k^H) and c_k = tr(F_k (p1 H1 H1^H + p2 H2 H2^H +
sigma_nr^2 I) F_k^H), where H1/H2 are the inbound channels of slot k-1.
Unrolled, s_t is the sum over chain depths d = 1..t-1 of
sigma_er^(2d) * n_{t-1} ... n_{t-d+1} * c_{t-d}.  With design memory m the
slots before t-m are forgotten, and the oldest kept slot t-m (its beamformer
and channels) repeats in their place: slot k is read as slot max(k, t-m).

The covariance is exactly a nonnegative scalar times I, so it is stored by its
scalar with a matrix view for generic code paths.

:func:`residual_si_scale` is the one implementation of the scale, batched over
realizations: the engine's slot loop calls it with the traces it carries, and
:func:`residual_si_covariance` with those of one trajectory, given as its
channel draws and applied beamformers, as a stack of one.  Independent checks
are the sampling oracle :func:`fdrelay.validation.simulate_signal_chain` and
the depth sums written out in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import SystemConfig, TimeSlotChannels, check_memory
from .matrix_core import fro_sq

__all__ = [
    "ResidualSICovariance",
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


def content_trace(cfg: SystemConfig, f: np.ndarray, h_1r: np.ndarray, h_2r: np.ndarray) -> np.ndarray:
    """tr{F (p1 H1 H1^H + p2 H2 H2^H + sigma_nr^2 I) F^H} for stacks of F and inbound channels."""
    return cfg.p1 * fro_sq(f @ h_1r) + cfg.p2 * fro_sq(f @ h_2r) + cfg.sigma_n_sq_r * fro_sq(f)


def residual_si_scale(cfg: SystemConfig, memory: int | float, t: int, f_norm_sq, content_traces,
                      realizations: int) -> np.ndarray:
    """Residual-SI covariance scale of slot ``t`` for a stack of ``realizations`` trajectories.

    ``f_norm_sq[k - 1]`` and ``content_traces[k - 1]`` hold, per realization,
    n_k = tr(F_k F_k^H) and the :func:`content_trace` c_k of the beamformer
    applied in slot k; slots max(1, t-m)..t-1 are read under memory m.
    """
    if t < 1:
        raise ValueError("slot index must be >= 1")
    check_memory(memory)
    scale = np.zeros(realizations)
    for s in range(1, t):
        k = int(max(s, t - memory)) - 1  # slots before t-m are read as slot t-m
        scale = cfg.sigma_e_sq_r * (content_traces[k] + f_norm_sq[k] * scale)
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
