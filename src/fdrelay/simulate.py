"""Single-trajectory entry point.

:func:`run_trajectory` runs one channel realization through the engine's slot
loop (:mod:`fdrelay.engine`, which also documents the schemes) as a stack of
one, and returns its per-slot metrics together with the designs and channel
draws that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .beamforming import BeamformingSolution
from .channel import SystemConfig, TimeSlotChannels
from .engine import SCHEMES, _run_trajectories
from .metrics import SlotMetrics

__all__ = ["SCHEMES", "TrajectoryResult", "run_trajectory"]


@dataclass(frozen=True)
class TrajectoryResult:
    """Per-slot metrics plus the designs and draws that produced them.

    ``solutions`` is empty for the half-duplex scheme: its designs belong to
    the configuration without loopback error, not to ``cfg``, whose noise
    and loopback powers a solution's multiplier would read.  For the
    conventional scheme a solution carries the calibrated amplification and
    receive matrices, while ``j_value``, ``j_trace`` and ``iterations_used``
    describe the design on its own (zero residual-SI) model.
    """

    metrics: tuple[SlotMetrics, ...]
    solutions: tuple[BeamformingSolution, ...]
    channels: tuple[TimeSlotChannels, ...]


def run_trajectory(
    cfg: SystemConfig,
    scheme: str,
    slots: int,
    seed: int,
    realization: int = 0,
) -> TrajectoryResult:
    """Run one realization of ``scheme`` for ``slots`` full-duplex slots.

    Channel draws depend only on (seed, realization, slot), never on the
    scheme or memory setting, so different schemes at the same seed see
    identical channels (paired comparisons).
    """
    state = _run_trajectories(cfg, scheme, slots, seed, [realization])
    metrics = tuple(SlotMetrics.from_rates(t, scheme, sum_mse[0], rates[0])
                    for t, (sum_mse, rates) in enumerate(zip(state.sum_mse, state.rates), start=1))
    solutions = () if scheme == "half_duplex" else tuple(d.solution(0, cfg) for d in state.designs)
    return TrajectoryResult(
        metrics=metrics,
        solutions=solutions,
        channels=tuple(ch.realization(0) for ch in state.channels),
    )
