"""Per-slot link metrics: achievable sum rate, half-duplex reference, mode choice.

The rate of one slot is a per-realization quantity: the interference-plus-
noise covariance seen by each source contains the *realized* loopback error
matrices (its own current one and the relay's past ones through the amplified
chains), while symbols and thermal noises are averaged analytically.  Ensemble
averages are taken by the sweep harness across channel realizations.

The rate formula exists once, batched, in :func:`fdrelay.engine._batch_rates`,
which carries the relay-side interference forward slot by slot.
:func:`achievable_sum_rate` instead rebuilds that interference for one
realization from the realized error chains of its whole trajectory and then
calls the batched rate with a stack of one; :func:`half_duplex_reference` is
the engine's half-duplex slot for a stack of one.  Independent checks of the
rate are the hand-written log-det formulas in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .beamforming import BeamformingSolution
from .channel import SystemConfig, TimeSlotChannels
from .engine import _batch_rates, _content_factor_batch, _half_duplex_slot, _noise_block

__all__ = [
    "SlotMetrics",
    "achievable_sum_rate",
    "half_duplex_reference",
    "duplex_mode_select",
]


@dataclass(frozen=True)
class SlotMetrics:
    """Metrics of one time slot under one scheme."""

    slot_index: int
    scheme: str
    sum_mse: float
    sum_rate: float
    rate_1: float  # rate of the stream decoded at source 1
    rate_2: float

    @classmethod
    def from_rates(cls, slot_index: int, scheme: str, sum_mse, rates) -> "SlotMetrics":
        """Metrics from the rates of the streams decoded at source 1 and source 2."""
        rate_1, rate_2 = (float(rate) for rate in rates)
        return cls(slot_index, scheme, float(sum_mse), rate_1 + rate_2, rate_1, rate_2)


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
    stacks = [TimeSlotChannels.stack([ch]) for ch in channels]

    # Relay-side interference factor: fresh relay noise plus all realized
    # error-amplified chains; identical for both sources.
    blocks = [_noise_block(cfg, 1)]
    chain = np.eye(cfg.n_r)
    for depth in range(2, t + 1):
        s = t - depth + 1  # slot whose error/beamformer extends the chain
        chain = chain @ (stacks[s].delta_rr @ beamformers[s - 1])
        blocks.append(chain @ _content_factor_batch(cfg, stacks[t - depth]))
    rates = _batch_rates(cfg, stacks[t], stacks[t - 1], np.concatenate(blocks, axis=2), solution.f_bar[None],
                         np.array([solution.alpha]), np.stack([solution.r1, solution.r2])[None])
    return SlotMetrics.from_rates(channels[t].slot_index, scheme, solution.j_value, rates[0])


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
    design, rates = _half_duplex_slot(cfg, TimeSlotChannels.stack([ch_mac]), TimeSlotChannels.stack([ch_bc]))
    return SlotMetrics.from_rates(ch_bc.slot_index, "half_duplex", design.j[0], rates[0])


def duplex_mode_select(fd_rate: float, hd_rate: float) -> str:
    """Pick the duplex mode by sum rate; ties go to half-duplex."""
    return "FD" if fd_rate > hd_rate else "HD"
