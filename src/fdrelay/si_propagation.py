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

This module is the per-realization reference for the scale; the simulator
computes it batched over realizations in :mod:`fdrelay.engine`.  The history
keeps every pushed slot: a finite design memory truncates the covariance
model, not the record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import MEMORY_AUTO, MEMORY_INFINITE, SystemConfig
from .matrix_core import frobenius_sq

__all__ = [
    "MissingHistoryError",
    "HistoryEntry",
    "RelayHistory",
    "ResidualSICovariance",
    "si_term_gates",
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
    if memory != MEMORY_INFINITE and (not float(memory).is_integer() or memory < 1):
        raise ValueError("memory must be a positive integer or infinite")
    one_step = t >= 2
    window = t >= 3 and memory >= 2
    beyond = memory != MEMORY_INFINITE and t >= memory + 2
    return one_step, window, beyond


def _content_trace(entry: HistoryEntry, cfg: SystemConfig) -> float:
    """tr{F (p1 H1 H1^H + p2 H2 H2^H + sigma_nr^2 I) F^H} for one entry."""
    return (
        cfg.p1 * frobenius_sq(entry.f @ entry.h_1r)
        + cfg.p2 * frobenius_sq(entry.f @ entry.h_2r)
        + cfg.sigma_n_sq_r * entry.f_norm_sq
    )


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
    if t is None:
        t = history.next_slot
    m = cfg.memory if memory is None else memory
    if m == MEMORY_AUTO:
        raise ValueError("memory 'auto' must be resolved before covariance evaluation")

    sigma_sq = cfg.sigma_e_sq_r
    one_step, window, beyond = si_term_gates(t, m)
    if sigma_sq == 0.0 or not one_step:
        return ResidualSICovariance.zero(cfg.n_r)

    scale = sigma_sq * _content_trace(history.entry(t - 1), cfg)

    if window:
        outer = 1.0  # product of tr(F_j F_j^H) over the chain's outer beamformers
        for depth in range(2, int(min(m, t - 1)) + 1):
            outer *= history.entry(t - depth + 1).f_norm_sq
            scale += sigma_sq**depth * outer * _content_trace(history.entry(t - depth), cfg)

    if beyond:
        m_int = int(m)
        oldest = history.entry(t - m_int)
        outer = 1.0
        for j in range(t - m_int + 1, t):
            outer *= history.entry(j).f_norm_sq
        content = _content_trace(oldest, cfg)
        for depth in range(m_int + 1, t):
            scale += sigma_sq**depth * outer * oldest.f_norm_sq ** (depth - m_int) * content

    return ResidualSICovariance(scale=float(scale), n_r=cfg.n_r)
