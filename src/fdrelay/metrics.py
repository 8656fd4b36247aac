"""Per-slot link metrics: achievable sum rate, half-duplex reference, mode choice.

The rate of one slot is a per-realization quantity: the interference-plus-
noise covariance seen by each source contains the *realized* loopback error
matrices (its own current one and the relay's past ones through the amplified
chains), while symbols and thermal noises are averaged analytically.  Ensemble
averages are taken by the sweep harness across channel realizations.

The rate formula exists once, batched, in :func:`fdrelay.engine._batch_rates`.
The engine and :func:`half_duplex_reference` rate a slot on the equivalent
2 n_s-antenna problem its design solved (``SlotProblem.reduced``), where the
relay-side interference factor and the steering matrix Z have 2 n_s rows
whatever n_r is.  :func:`achievable_sum_rate`, their independent check,
rolls one realization's relay-side interference in full n_r coordinates
through the applied beamformers and rates on the configured problem, a
stack of one.  Independent checks of the rate formula are the hand-written
log-det formulas in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .beamforming import BeamformingSolution, SlotProblem, design_slot_batch
from .channel import SystemConfig, TimeSlotChannels
from .engine import _batch_rates

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
) -> SlotMetrics:
    """Sum rate of slot t given the realized trajectory up to t.

    ``channels[s]`` must hold slot ``s`` (0..t, with realized error matrices)
    and ``beamformers[s-1]`` the beamformer actually applied in slot ``s``
    (1..t).  The interference covariance accumulates every past slot's content
    through the realized relay-error chains, the current source loopback error
    and thermal noise; the desired stream is the other source's previous-slot
    signal through the current steering matrix.  All covariances are carried
    as Gram factors, in full n_r coordinates.
    """
    t = len(beamformers)
    if len(channels) != t + 1:
        raise ValueError("need channels for slots 0..t and beamformers for slots 1..t")
    stacks = [TimeSlotChannels.stack([ch]) for ch in channels]

    # Relay-side interference factor: fresh noise plus the previous slot's transmission
    # F [sqrt(p1) H1, sqrt(p2) H2, interference] through the realized relay error.
    core = noise = np.sqrt(cfg.sigma_n_sq_r) * np.eye(cfg.n_r)[None]
    for prev, ch, f in zip(stacks, stacks[1:t], beamformers):
        inbound = [np.sqrt(cfg.p1) * prev.h_1r, np.sqrt(cfg.p2) * prev.h_2r, core]
        core = np.concatenate([noise, ch.delta_rr @ f @ np.concatenate(inbound, axis=2)], axis=2)
    problem = SlotProblem.from_draws(cfg, stacks[t], stacks[t - 1], np.zeros(1))
    rates = _batch_rates(problem, stacks[t].delta_11, stacks[t].delta_22, core, solution.f_bar[None],
                         np.array([solution.alpha]), np.stack([solution.r1, solution.r2])[None])
    return SlotMetrics.from_rates(channels[t].slot_index, "", solution.j_value, rates[0])


def half_duplex_reference(
    ch_mac: TimeSlotChannels,
    ch_bc: TimeSlotChannels,
    cfg: SystemConfig,
) -> SlotMetrics:
    """Two-phase two-way relaying baseline on the same channel draws.

    Both sources transmit in the first phase (``ch_mac`` inbound channels) and
    the relay broadcasts in the second (``ch_bc`` outbound channels).  There
    is no loopback self-interference, so the design is the single-slot MMSE
    problem with all error variances zeroed, the receivers see fresh noise
    only, and the sum rate carries the 1/2 prelog of the two-slot exchange.
    The slot is designed and rated on its equivalent 2 n_s-antenna problem,
    as the engine does a slot of a half-duplex trajectory, for a stack of one.
    """
    cfg = cfg.without_loopback_error()
    mac, bc = TimeSlotChannels.stack([ch_mac]), TimeSlotChannels.stack([ch_bc])
    problem = SlotProblem.from_draws(cfg, bc, mac, np.zeros(1))
    design = design_slot_batch(problem)
    noise = np.sqrt(cfg.sigma_n_sq_r) * np.eye(design.z.shape[-1])[None]  # fresh relay noise, no leak
    no_error = np.zeros((1, cfg.n_s, cfg.n_s), dtype=complex)
    reduced = problem.reduced()[0]
    rates = 0.5 * _batch_rates(reduced, no_error, no_error, noise, design.z, design.alpha, design.r)
    return SlotMetrics.from_rates(ch_bc.slot_index, "half_duplex", design.j[0], rates[0])


def duplex_mode_select(fd_rate: float, hd_rate: float) -> str:
    """Pick the duplex mode by sum rate; ties go to half-duplex."""
    return "FD" if fd_rate > hd_rate else "HD"
