"""Trajectory engine: the slot loop of every scheme, batched over realizations.

One trajectory is one channel realization followed over ``slots`` time slots:
slot 0 carries only the sources' first transmissions (the relay is silent),
full-duplex operation starts in slot 1.  One loop serves every scheme: it
designs a chunk of slots in one :func:`fdrelay.beamforming.design_slot_batch`
call, stacked with the realizations, then scores them in slot order; half
duplex runs it on the configuration without loopback error.  The
designs of ``MEMORY_SCHEMES`` (proposed, relay-only) read the residual-SI
covariance built from every earlier beamformer, so their chunks hold one
slot; the conventional and half-duplex designs read only the draws of their
slot and the one before, so their chunks hold ``max(1, _STACK_ROWS // R)``
slots (at most 32 rows; one slot per call from 32 realizations on).  Every step is batched over a stack
of realizations, which removes the Python-call overhead that dominates at
these matrix sizes; each row is computed on its own, so the results do not
depend on what is stacked alongside it.  :func:`run_trajectories_batch` runs
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
:func:`_batch_rates`.  A slot is scored, rated and carried on the equivalent
2 n_s-antenna problem its design solved (``SlotProblem.reduced``): n_r
enters only through the draws, the bases Q and P (n_r x 2 n_s) and the
slot's realized leak into the next.  The relay-side interference is one
square Gram factor, fresh noise plus that leak.  Independent checks are
:func:`fdrelay.metrics.achievable_sum_rate` and
:func:`fdrelay.si_propagation.residual_si_covariance` in full n_r
coordinates, the oracles of :mod:`fdrelay.validation` and the tests.

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
* ``half_duplex``  - two-phase reference on the same channel draws: the
                     loop runs without loopback error and with infinite
                     memory, so the residual SI is zero, the zero-scale
                     design's own MSE is the one reported and the relay
                     leaks nothing into the next slot; the rates carry the
                     1/2 prelog of the two-slot exchange.

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
from .matrix_core import SingularSystemError, fro_sq, herm
from .si_propagation import content_trace, residual_si_scale

__all__ = ["SCHEMES", "MEMORY_SCHEMES", "BatchTrajectoryStats", "run_trajectories_batch"]

SCHEMES = ("proposed", "conventional", "relay_only", "half_duplex")
# Schemes whose design reads the residual SI carried from every earlier slot.
MEMORY_SCHEMES = ("proposed", "relay_only")

# Slot-realizations per stacked design call (see _TrajectoryState.advance).
# At n_r = 5 a design iteration costs about 0.60 ms plus 0.076 ms per row (one
# BLAS thread), so 32 rows keep the fixed part near 20%, and their working
# memory (about 31 KiB per row, buffers reused in place) near 1 MiB; from 32
# realizations on, stacking slots saves nothing.
_STACK_ROWS = 32


@dataclass(frozen=True)
class BatchTrajectoryStats:
    """Per-slot, per-realization metrics; row k holds slot k+1."""

    sum_mse: np.ndarray
    sum_rate: np.ndarray


def _draw_stacked(cfg: SystemConfig, seed: int, slot: int, realizations: Sequence[int]) -> TimeSlotChannels:
    return draw_slot_channels(cfg, [slot_rng(seed, r, slot) for r in realizations], slot)


def _batch_rates(problem: SlotProblem, delta_11, delta_22, core_factor, f_bar, alpha, r) -> np.ndarray:
    """Batched rates (R, 2) of the streams decoded at source 1 and source 2.

    ``f_bar`` and ``core_factor``, the Gram factor of the relay-side
    interference, are in the coordinates of ``problem``; ``delta_11`` and
    ``delta_22`` are the sources' realized loopback errors.
    Covariances are carried as Gram factors N N^H and S S^H, and each rate
    log2 det(I + S S^H (N N^H)^-1) is computed in the whitened factor domain,
    from the singular values of (U_N^H S) / s_N, where N = U_N diag(s_N) V^H.
    That stays well conditioned when the amplified error chains grow
    geometrically, and is nonnegative by construction.  Both receivers run in
    one pass, stacked along a receiver axis after the realization axis.
    """
    cfg = problem.cfg
    inv_alpha = (1.0 / alpha)[:, None, None, None]
    rb = herm(r)                                             # R_l^H, (R, 2, n_s, n_s)
    f_bar = f_bar[:, None]
    noise_factor = np.concatenate(
        [
            rb @ (problem.h @ f_bar) @ core_factor[:, None],
            inv_alpha * np.sqrt([cfg.p1, cfg.p2])[:, None, None] * (rb @ np.stack([delta_11, delta_22], axis=1)),
            inv_alpha * np.sqrt([cfg.sigma_n_sq_1, cfg.sigma_n_sq_2])[:, None, None] * rb,
        ],
        axis=3,
    )
    signal_factor = np.sqrt([cfg.p2, cfg.p1])[:, None, None] * (rb @ problem.h @ f_bar @ problem.h_bar)
    p, s_vals, _ = np.linalg.svd(noise_factor, full_matrices=False)
    if not np.isfinite(s_vals).all() or (s_vals[..., -1] <= 0.0).any():
        raise np.linalg.LinAlgError("interference covariance is singular")
    y = (herm(p) @ signal_factor) / s_vals[..., None]
    gains = np.linalg.svd(y, compute_uv=False) ** 2
    return np.sum(np.log1p(gains), axis=-1) / math.log(2.0)


class _TrajectoryState:
    """A stack of trajectories run up to some slot, resumable and forkable.

    Holds what the slot loop carries from one slot to the next: the stacked
    channel draws (of slots 0..``slot`` once advanced), per past slot the
    beamformer's squared norm tr(F_s F_s^H) and content trace
    tr(F_s M_{s-1} F_s^H), the Gram factor ``leak`` (n_r x 4 n_s at most)
    of the last transmission through the relay loopback error, and the per-slot
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

    def __init__(self, seed: int, realizations: Sequence[int]):
        self.seed = seed
        self.realizations = realizations
        self.channels: list[TimeSlotChannels] = []
        self.f_norm_sq: tuple[np.ndarray, ...] = ()
        self.content_trace: tuple[np.ndarray, ...] = ()
        self.leak = None
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
        channel draws do not depend on it.  A half-duplex trajectory runs
        under ``cfg`` without loopback error and with infinite memory: its
        draws, slot 0's included, carry zero error matrices, and its design
        sees the whole, zero, residual SI.  The slots not yet drawn are drawn
        first, then run in chunks of one slot for ``MEMORY_SCHEMES`` (slot
        t+1's problem reads slot t's score), else of ``max(1, _STACK_ROWS // R)``.
        """
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
        if scheme == "half_duplex":
            cfg = cfg.without_loopback_error().with_memory(MEMORY_INFINITE)
        while len(self.channels) <= until_slot:
            self.channels.append(_draw_stacked(cfg, self.seed, len(self.channels), self.realizations))
        chunk = 1 if scheme in MEMORY_SCHEMES else max(1, _STACK_ROWS // len(self.realizations))
        for first in range(self.slot + 1, until_slot + 1, chunk):
            self._run(cfg, scheme, range(first, min(first + chunk, until_slot + 1)))
        return self

    def _problem(self, cfg: SystemConfig, scheme: str, t: int) -> SlotProblem:
        """The design problem of slot ``t``: on the carried residual-SI scale for the schemes in
        ``MEMORY_SCHEMES``, else on a zero scale."""
        g_design = np.zeros(len(self.realizations))
        if scheme in MEMORY_SCHEMES:
            g_design = residual_si_scale(cfg, cfg.memory, t, self.f_norm_sq, self.content_trace, len(g_design))
        return SlotProblem.from_draws(cfg, self.channels[t], self.channels[t - 1], g_design)

    def _run(self, cfg: SystemConfig, scheme: str, slots: range):
        """Design ``slots`` of ``scheme`` in one call, then score them in slot order."""
        size = len(self.realizations)
        problem = SlotProblem.stack([self._problem(cfg, scheme, t) for t in slots])
        design = self._design(problem, slots[0], scheme == "relay_only")
        reduced = problem.reduced()[0]
        for k, t in enumerate(slots):
            rows = slice(k * size, (k + 1) * size)
            self._score(cfg, scheme, t, reduced.subset(rows), design.subset(rows))

    def _design(self, problem: SlotProblem, first_slot: int, pin_receive: bool = False) -> BatchDesign:
        """The designs of rows (slot, realization), slot-major from ``first_slot``.  On a singular relay
        step the rows are designed alone, in order; the first to fail raises with its slot and realization."""
        try:
            return design_slot_batch(problem, pin_receive)
        except SingularSystemError:
            for row in range(len(problem.h)):
                try:
                    design_slot_batch(problem.subset([row]), pin_receive)
                except SingularSystemError as exc:
                    slot, k = divmod(row, len(self.realizations))
                    raise SingularSystemError(exc.condition, f"relay step of slot {first_slot + slot}, realization "
                                              f"{self.realizations[k]}: {exc}") from exc
            raise

    def _score(self, cfg: SystemConfig, scheme: str, t: int, problem: SlotProblem, design: BatchDesign):
        """Score slot ``t``, designed as ``design`` on ``problem``, the equivalent problem it solved, record
        it and roll it forward."""
        ch_t = self.channels[t]
        z, alpha, r = design.z, design.alpha, design.r

        # The memory window first truncates the design's scale at slot m+2;
        # before that the design already saw the true (untruncated) scale.
        if scheme != "conventional" and t < cfg.memory + 2:
            j_true = design.j
        else:
            g_true = residual_si_scale(cfg, MEMORY_INFINITE, t, self.f_norm_sq, self.content_trace, len(z))
            true_problem = replace(problem, g_c_scale=g_true)
            if scheme == "conventional":
                # gain control: the true transmit power meets the budget even
                # though the design modeled no residual interference; the
                # receive matrices are re-derived at the calibrated beamformer
                alpha = true_problem.amplification(z)
                r = problem.wiener(alpha[:, None, None] * z, alpha)[0]
            j_true = true_problem.objective(z, alpha, r)
        f = alpha[:, None, None] * z

        core = math.sqrt(cfg.sigma_n_sq_r) * np.broadcast_to(np.eye(z.shape[-1]), z.shape)  # fresh relay noise
        if self.leak is not None:  # and the last slot's leak, seen through P; one QR keeps the factor square
            seen = self.leak if design.p is None else herm(design.p) @ self.leak
            core = herm(np.linalg.qr(herm(np.concatenate([core, seen], axis=2)), mode="r"))
        rates = _batch_rates(problem, ch_t.delta_11, ch_t.delta_22, core, z, alpha, r)
        if scheme == "half_duplex":
            rates = 0.5 * rates  # the prelog of the two-phase exchange
        self.sum_mse += (j_true,)
        self.rates += (rates,)
        self.designs += (replace(design, alpha=alpha, r=r),)
        h_1r, h_2r = problem.h_1r_prev, problem.h_2r_prev
        if cfg.sigma_e_sq_r:
            # F [sqrt(p1) H1, sqrt(p2) H2, noise + leak] = Q alpha Z [sqrt(p1) U1, sqrt(p2) U2, core], U_l = P^H H_l
            sent = f @ np.concatenate([math.sqrt(cfg.p1) * h_1r, math.sqrt(cfg.p2) * h_2r, core], axis=2)
            self.leak = ch_t.delta_rr @ (sent if design.q is None else design.q @ sent)
        self.f_norm_sq += (fro_sq(f),)
        self.content_trace += (content_trace(cfg, f, h_1r, h_2r),)


def _run_trajectories(cfg: SystemConfig, scheme: str, slots: int, seed: int,
                      realizations: Sequence[int]) -> _TrajectoryState:
    """The slot loop for the realizations with the given indices, batched."""
    if slots < 1:
        raise ValueError("need at least one full-duplex slot")
    return _TrajectoryState(seed, realizations).advance(cfg, scheme, slots)


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
