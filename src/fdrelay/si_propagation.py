"""Cross-slot history and the residual loopback-SI covariance at the relay.

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
:func:`residual_si_covariance` with those of a :class:`RelayHistory` (which
keeps every pushed slot) as a stack of one.  Independent checks are the
sampling oracle :func:`fdrelay.validation.simulate_signal_chain` and the
hand-written chain sums in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import MEMORY_INFINITE, SystemConfig, check_memory
from .matrix_core import fro_sq, frobenius_sq

__all__ = [
    "MissingHistoryError",
    "HistoryEntry",
    "RelayHistory",
    "ResidualSICovariance",
    "si_term_gates",
    "content_trace",
    "residual_si_scale",
    "residual_si_covariance",
]


class MissingHistoryError(LookupError):
    """A required past slot is not present in the relay history."""

    def __init__(self, slot: int):
        self.slot = slot
        super().__init__(f"history entry for slot {slot} is absent")


@dataclass(frozen=True)
class HistoryEntry:
    """Beamformer applied in ``slot`` and the inbound channels it amplified.

    The stored channels belong to slot ``slot - 1``: every covariance term
    pairs F applied in slot s with the channels whose content it forwarded.
    """

    slot: int
    f: np.ndarray
    h_1r: np.ndarray
    h_2r: np.ndarray
    f_norm_sq: float


class RelayHistory:
    """Ordered, contiguous record of finalized relay beamformers.

    The first pushed slot may be any slot; later pushes must follow it
    without gaps.  Entries are only appended once the slot's beamformer is
    final, so the covariance seen inside one slot's optimization is frozen.
    """

    def __init__(self, n_r: int):
        self.n_r = int(n_r)
        self._entries: dict[int, HistoryEntry] = {}

    @property
    def next_slot(self) -> int:
        if not self._entries:
            return 1
        return next(reversed(self._entries)) + 1

    def entry(self, slot: int) -> HistoryEntry:
        try:
            return self._entries[slot]
        except KeyError:
            raise MissingHistoryError(slot) from None

    def push(self, slot: int, f: np.ndarray, h_1r_prev: np.ndarray, h_2r_prev: np.ndarray) -> "RelayHistory":
        f = np.asarray(f, dtype=complex)
        if f.shape != (self.n_r, self.n_r):
            raise ValueError(f"beamformer shape {f.shape} != ({self.n_r}, {self.n_r})")
        h_1r_prev = np.asarray(h_1r_prev, dtype=complex)
        h_2r_prev = np.asarray(h_2r_prev, dtype=complex)
        if h_1r_prev.shape[0] != self.n_r or h_2r_prev.shape[0] != self.n_r:
            raise ValueError("inbound channels must have n_r rows")
        if self._entries and slot != self.next_slot:
            raise ValueError(f"slots must be contiguous: expected {self.next_slot}, got {slot}")
        self._entries[slot] = HistoryEntry(
            slot=slot, f=f, h_1r=h_1r_prev, h_2r=h_2r_prev, f_norm_sq=frobenius_sq(f)
        )
        return self


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


class _SlotSeries(dict):
    """Per-slot values keyed s - 1 for slot s, as :func:`residual_si_scale` reads them."""

    def __missing__(self, index: int):
        raise MissingHistoryError(index + 1)


def residual_si_covariance(
    history: RelayHistory,
    cfg: SystemConfig,
    t: int | None = None,
    memory: int | float | None = None,
) -> ResidualSICovariance:
    """Residual-SI covariance G_c for the slot being designed.

    ``t`` defaults to the slot after the last pushed entry; ``memory``
    defaults to the configured value.  Raises :class:`MissingHistoryError`
    when a gated term needs a slot the history does not hold, such as one
    before its first entry.
    """
    t = history.next_slot if t is None else t
    entries = history._entries.items()
    norms = _SlotSeries({s - 1: np.array([e.f_norm_sq]) for s, e in entries})
    contents = _SlotSeries({s - 1: content_trace(cfg, e.f[None], e.h_1r[None], e.h_2r[None]) for s, e in entries})
    scale = residual_si_scale(cfg, cfg.memory if memory is None else memory, t, norms, contents, 1)
    return ResidualSICovariance(scale=float(scale[0]), n_r=cfg.n_r)
