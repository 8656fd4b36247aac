"""Trajectory engine: the slot loop of every scheme, batched over realizations.

One trajectory is one channel realization followed over ``slots`` time slots:
slot 0 carries only the sources' first transmissions (the relay is silent),
full-duplex operation starts in slot 1.  In each slot the residual-SI
covariance is built from every earlier beamformer, the slot is designed with
:func:`fdrelay.beamforming.design_slot_batch` and then scored.  Every step is
batched over a stack of realizations, which removes the Python-call overhead
that dominates at these matrix sizes.  :func:`run_trajectories_batch` runs
realizations 0..R-1 of a grid point and :func:`fdrelay.simulate.run_trajectory`
one realization with its designs; both run the same loop, a
:class:`_TrajectoryState`, and read its per-slot outputs.  The loop is
resumable: the memory search advances one infinite-memory trajectory and
forks it for each candidate memory (see :mod:`fdrelay.memory_select`), and a
memory-'auto' sweep cell resumes the winning fork.

Each formula of a slot exists once, batched over realizations: the design,
the true MSE and the Wiener receivers in :class:`fdrelay.beamforming.SlotProblem`
and :class:`fdrelay.beamforming.RelaySystem`, the residual-SI scale in
:func:`fdrelay.si_propagation.residual_si_scale`, the rate in
:func:`_batch_rates`.  Each carried quantity follows one recursion per slot:
the scale folds the previous slot's traces, and the realized relay-side
interference is rolled forward by :func:`_relay_interference` (fresh noise
plus the previous transmission through the realized loopback error) and
:func:`_relay_transmission` (the beamformer applied to the sources' signals
and that interference).  The per-realization entry points of ``beamforming``,
``si_propagation`` and ``metrics`` call the same code with a stack of one.
Independent checks are the sampling oracles in :mod:`fdrelay.validation` and
the hand-written formulas in the tests.

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

import copy
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .beamforming import BatchDesign, SlotProblem, design_slot_batch
from .channel import MEMORY_INFINITE, SystemConfig, TimeSlotChannels, draw_slot_channels, slot_rng
from .matrix_core import fro_sq, herm
from .si_propagation import content_trace, residual_si_scale

__all__ = ["SCHEMES", "BatchTrajectoryStats", "run_trajectories_batch"]

SCHEMES = ("proposed", "conventional", "relay_only", "half_duplex")


@dataclass(frozen=True)
class BatchTrajectoryStats:
    """Per-slot, per-realization metrics; row k holds slot k+1."""

    sum_mse: np.ndarray
    sum_rate: np.ndarray


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


def _relay_interference(cfg: SystemConfig, ch_prev: TimeSlotChannels, x_r_factor) -> np.ndarray:
    """Gram factor of a slot's relay-side interference: fresh relay noise plus
    the previous slot's transmission ``x_r_factor`` leaked through its realized
    relay loopback error (none before the first full-duplex slot)."""
    noise = _noise_block(cfg, len(ch_prev.h_1r))
    if x_r_factor is None:
        return noise
    return np.concatenate([noise, ch_prev.delta_rr @ x_r_factor], axis=2)


def _relay_transmission(cfg: SystemConfig, ch_prev: TimeSlotChannels, core: np.ndarray, f) -> np.ndarray:
    """Gram factor F [sqrt(p1) H1, sqrt(p2) H2, core] of the relay's transmission
    in a slot: the sources' previous-slot signals plus the interference ``core``."""
    return f @ np.concatenate([math.sqrt(cfg.p1) * ch_prev.h_1r, math.sqrt(cfg.p2) * ch_prev.h_2r, core], axis=2)


def _batch_rates(cfg: SystemConfig, ch_t, ch_prev, core_factor, f_bar, alpha, r) -> np.ndarray:
    """Batched rates (R, 2) of the streams decoded at source 1 and source 2.

    ``core_factor`` is the Gram factor of the relay-side interference.
    Covariances are carried as Gram factors N N^H and S S^H, and each rate
    log2 det(I + S S^H (N N^H)^-1) is computed in the whitened factor domain,
    from the singular values of (U_N^H S) / s_N, where N = U_N diag(s_N) V^H.
    That stays well conditioned when the amplified error chains grow
    geometrically, and is nonnegative by construction.
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


class _TrajectoryState:
    """A stack of trajectories run up to some slot, resumable and forkable.

    Holds what the slot loop carries from one slot to the next: the stacked
    channel draws (at least of slots 0..``slot``), per past slot the beamformer's
    squared norm tr(F_s F_s^H) and content trace tr(F_s M_{s-1} F_s^H), the
    Gram factor of the previous slot's relay transmission, and the per-slot
    outputs: entry k of ``sum_mse``, ``rates`` (R, 2: the rates of the
    streams decoded at source 1 and source 2) and ``designs`` belongs to
    slot k+1, and a design carries the applied amplification and receive
    matrices (the calibrated ones for the conventional scheme).  The
    per-slot histories are tuples that each slot replaces by a longer one
    and stored arrays are never modified in place, so a shallow copy is a
    :meth:`fork` that can be advanced with another memory setting without
    touching its parent.  Only the channel list is mutable and shared
    on purpose: a draw depends only on (seed, realization, slot), so whichever
    fork reaches a slot first draws it for all.
    """

    def __init__(self, cfg: SystemConfig, seed: int, realizations: Sequence[int]):
        self.seed = seed
        self.realizations = realizations
        self.channels = [_draw_stacked(cfg, seed, 0, realizations)]
        self.f_norm_sq: tuple[np.ndarray, ...] = ()
        self.content_trace: tuple[np.ndarray, ...] = ()
        self.x_r_factor = None
        self.sum_mse: tuple[np.ndarray, ...] = ()
        self.rates: tuple[np.ndarray, ...] = ()
        self.designs: tuple[BatchDesign, ...] = ()

    @property
    def slot(self) -> int:
        """The last slot run (0 before the first full-duplex slot)."""
        return len(self.designs)

    def fork(self) -> "_TrajectoryState":
        return copy.copy(self)

    def advance(self, cfg: SystemConfig, scheme: str, until_slot: int) -> "_TrajectoryState":
        """Run slots ``slot``+1..``until_slot`` of ``scheme`` under ``cfg``; returns self.

        ``cfg`` may differ between calls only in its memory setting: the
        channel draws do not depend on it.
        """
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
        for t in range(self.slot + 1, until_slot + 1):
            if len(self.channels) == t:
                self.channels.append(_draw_stacked(cfg, self.seed, t, self.realizations))
            if scheme == "half_duplex":
                design, rates = _half_duplex_slot(cfg, self.channels[t - 1], self.channels[t])
                self._record(design.j, rates, design)
            else:
                self._step(cfg, scheme, t)
        return self

    def _record(self, sum_mse: np.ndarray, rates: np.ndarray, design: BatchDesign):
        self.sum_mse += (sum_mse,)
        self.rates += (rates,)
        self.designs += (design,)

    def _step(self, cfg: SystemConfig, scheme: str, t: int):
        """Design, score and roll forward one full-duplex slot ``t``."""
        ch_t, ch_prev = self.channels[t], self.channels[t - 1]
        size = len(self.realizations)
        if scheme == "conventional":
            g_design = np.zeros(size)
        else:
            g_design = residual_si_scale(cfg, cfg.memory, t, self.f_norm_sq, self.content_trace, size)
        problem = _slot_problem(cfg, ch_t, ch_prev, g_design)
        design = design_slot_batch(problem, scheme == "relay_only")
        f_bar, alpha, r = design.f_bar, design.alpha, design.r

        # The memory window first truncates the design's scale at slot m+2;
        # before that the design already saw the true (untruncated) scale.
        if scheme != "conventional" and t < cfg.memory + 2:
            j_true = design.j
        else:
            g_true = residual_si_scale(cfg, MEMORY_INFINITE, t, self.f_norm_sq, self.content_trace, size)
            true_problem = _slot_problem(cfg, ch_t, ch_prev, g_true)
            if scheme == "conventional":
                # gain control: the true transmit power meets the budget even
                # though the design modeled no residual interference; the
                # receive matrices are re-derived at the calibrated beamformer
                alpha = true_problem.amplification(f_bar)
                r = problem.wiener(alpha[:, None, None] * f_bar, alpha)[0]
            j_true = true_problem.objective(f_bar, alpha, r)
        f = alpha[:, None, None] * f_bar

        core = _relay_interference(cfg, ch_prev, self.x_r_factor)
        rates = _batch_rates(cfg, ch_t, ch_prev, core, f_bar, alpha, r)
        self._record(j_true, rates, replace(design, alpha=alpha, r=r))
        self.x_r_factor = _relay_transmission(cfg, ch_prev, core, f)
        self.f_norm_sq += (fro_sq(f),)
        self.content_trace += (content_trace(cfg, f, ch_prev.h_1r, ch_prev.h_2r),)


def _run_trajectories(cfg: SystemConfig, scheme: str, slots: int, seed: int,
                      realizations: Sequence[int]) -> _TrajectoryState:
    """The slot loop for the realizations with the given indices, batched."""
    if slots < 1:
        raise ValueError("need at least one full-duplex slot")
    return _TrajectoryState(cfg, seed, realizations).advance(cfg, scheme, slots)


def run_trajectories_batch(
    cfg: SystemConfig,
    scheme: str,
    slots: int,
    seed: int,
    realizations: int,
    start: _TrajectoryState | None = None,
) -> BatchTrajectoryStats:
    """Realizations 0..``realizations``-1 of one (config, scheme) trajectory, vectorized.

    Each realization's results do not depend on how many run alongside it:
    channel draws are keyed by (seed, realization, slot) and every design
    and metric is computed per realization.  ``start``, a state of these
    realizations already run with this config and scheme (the winning branch
    of :func:`fdrelay.memory_select.select_memory`), is resumed instead of
    starting from slot 1: a fork of it is advanced to ``slots``, so ``start``
    itself is left as it was, and only the first ``slots`` slots are returned
    when it already holds more.
    """
    if start is None:
        state = _run_trajectories(cfg, scheme, slots, seed, range(realizations))
    elif slots < 1 or start.seed != seed or len(start.realizations) != realizations:
        raise ValueError(f"cannot resume {len(start.realizations)} realizations of seed {start.seed} "
                         f"as {slots} slots of {realizations} realizations of seed {seed}")
    else:
        state = start.fork().advance(cfg, scheme, slots)
    rates = np.stack(state.rates[:slots])
    return BatchTrajectoryStats(sum_mse=np.stack(state.sum_mse[:slots]), sum_rate=rates[..., 0] + rates[..., 1])
