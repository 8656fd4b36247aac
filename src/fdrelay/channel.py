"""System configuration and per-slot channel generation.

Channels follow independent frequency-flat Rayleigh fading: inter-node entries
are CN(0, 1) and loopback estimation-error entries are CN(0, sigma_e^2), drawn
independently per slot.  Reproducibility contract: the triple
``(seed, realization, slot)`` fully determines every matrix, via independent
numpy SeedSequence sub-streams, one per row of a stacked draw: parallel and
serial sweeps see identical draws and schemes are compared on paired channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

__all__ = [
    "MEMORY_INFINITE",
    "MEMORY_AUTO",
    "SystemConfig",
    "TimeSlotChannels",
    "config_from_snr_inr",
    "slot_rng",
    "draw_slot_channels",
    "crandn",
    "check_memory",
]

MEMORY_INFINITE = math.inf
MEMORY_AUTO = "auto"


def check_memory(memory):
    """``memory`` if it is a positive integer or infinite; else ValueError."""
    if memory == MEMORY_INFINITE:
        return memory
    if isinstance(memory, str) or not float(memory).is_integer() or memory < 1:
        raise ValueError(f"memory must be a positive integer or infinite, got {memory!r}")
    return memory


@dataclass(frozen=True)
class SystemConfig:
    """Scalar parameters feeding every formula in the design.

    ``memory`` is the number of latest past slots the beamforming design may
    use: a positive integer, or ``MEMORY_INFINITE`` for unbounded.  A sweep
    resolves its ``MEMORY_AUTO`` before it builds a configuration.
    """

    n_s: int
    n_r: int
    p1: float = 1.0
    p2: float = 1.0
    pr: float = 1.0
    sigma_n_sq_1: float = 1.0
    sigma_n_sq_2: float = 1.0
    sigma_n_sq_r: float = 1.0
    sigma_e_sq_1: float = 0.0
    sigma_e_sq_2: float = 0.0
    sigma_e_sq_r: float = 0.0
    memory: int | float = MEMORY_INFINITE
    max_iterations: int = 30
    convergence_tol: float = 1e-8

    def __post_init__(self):
        if self.n_s < 1 or self.n_r < 1:
            raise ValueError("antenna counts must be >= 1")
        for name in ("p1", "p2", "pr"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise ValueError(f"{name} must be positive")
        for name in (
            "sigma_n_sq_1", "sigma_n_sq_2", "sigma_n_sq_r",
            "sigma_e_sq_1", "sigma_e_sq_2", "sigma_e_sq_r",
        ):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")
        check_memory(self.memory)
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.convergence_tol >= 0:
            raise ValueError("convergence_tol must be nonnegative")

    @property
    def nu(self) -> tuple[float, float]:
        """Noise plus source-loopback power at each source, n_s p_l sigma_el^2 + sigma_nl^2."""
        return (
            self.n_s * self.p1 * self.sigma_e_sq_1 + self.sigma_n_sq_1,
            self.n_s * self.p2 * self.sigma_e_sq_2 + self.sigma_n_sq_2,
        )

    def with_memory(self, memory) -> "SystemConfig":
        return replace(self, memory=memory)

    def without_loopback_error(self) -> "SystemConfig":
        """Copy with all loopback estimation-error variances zeroed."""
        return replace(self, sigma_e_sq_1=0.0, sigma_e_sq_2=0.0, sigma_e_sq_r=0.0)


_CHANNEL_ARRAYS = ("h_1r", "h_2r", "h_r1", "h_r2", "delta_11", "delta_22", "delta_rr")


@dataclass(frozen=True)
class TimeSlotChannels:
    """All channel and loopback-error realizations of one time slot.

    The batched code holds a stack of realizations in one instance, each array
    with a leading realization axis (see :meth:`stack`, :func:`draw_slot_channels`).
    """

    h_1r: np.ndarray  # source 1 -> relay, N_r x N_s
    h_2r: np.ndarray  # source 2 -> relay, N_r x N_s
    h_r1: np.ndarray  # relay -> source 1, N_s x N_r
    h_r2: np.ndarray  # relay -> source 2, N_s x N_r
    delta_11: np.ndarray  # loopback error at source 1, N_s x N_s
    delta_22: np.ndarray  # loopback error at source 2, N_s x N_s
    delta_rr: np.ndarray  # loopback error at relay, N_r x N_r
    slot_index: int = 0

    @classmethod
    def stack(cls, draws: Sequence["TimeSlotChannels"]) -> "TimeSlotChannels":
        """Draws of one slot stacked along a leading realization axis."""
        arrays = {name: np.stack([getattr(d, name) for d in draws]) for name in _CHANNEL_ARRAYS}
        return cls(**arrays, slot_index=draws[0].slot_index)

    def realization(self, index: int) -> "TimeSlotChannels":
        """Realization ``index`` of a stack built by :meth:`stack`."""
        return replace(self, **{name: getattr(self, name)[index] for name in _CHANNEL_ARRAYS})


def config_from_snr_inr(
    snr_db: float,
    inr_db: float,
    n_s: int = 2,
    n_r: int = 5,
    memory: int | float | str = MEMORY_INFINITE,
    max_iterations: int = 30,
    convergence_tol: float = 1e-8,
) -> SystemConfig:
    """Symmetric configuration with p1 = p2 = pr = 1.

    SNR(dB) = 10 log10(p / sigma_n^2) and INR(dB) = 10 log10(sigma_e^2 /
    sigma_n^2), so sigma_n^2 = 10^(-snr/10) and sigma_e^2 = sigma_n^2 *
    10^(inr/10).  Pass ``inr_db = -inf`` for a loopback-error-free system.
    """
    sigma_n_sq = 10.0 ** (-snr_db / 10.0)
    sigma_e_sq = sigma_n_sq * 10.0 ** (inr_db / 10.0)
    return SystemConfig(
        n_s=n_s,
        n_r=n_r,
        p1=1.0,
        p2=1.0,
        pr=1.0,
        sigma_n_sq_1=sigma_n_sq,
        sigma_n_sq_2=sigma_n_sq,
        sigma_n_sq_r=sigma_n_sq,
        sigma_e_sq_1=sigma_e_sq,
        sigma_e_sq_2=sigma_e_sq,
        sigma_e_sq_r=sigma_e_sq,
        memory=memory,
        max_iterations=max_iterations,
        convergence_tol=convergence_tol,
    )


def crandn(rng: np.random.Generator, *shape) -> np.ndarray:
    """Circular complex Gaussian draws with unit variance per entry."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(0.5)


def slot_rng(seed: int, realization: int, slot: int) -> np.random.Generator:
    """Independent sub-stream for one (seed, realization, slot) triple: ``default_rng([seed, realization, slot])``,
    a PCG64 Generator seeded by ``SeedSequence([seed, realization, slot])``."""
    return np.random.default_rng([int(seed), int(realization), int(slot)])


def draw_slot_channels(cfg: SystemConfig, rng: np.random.Generator | Sequence[np.random.Generator],
                       t: int) -> TimeSlotChannels:
    """Draw all matrices of slot ``t`` from ``rng``, a Generator or a sequence of them.

    Realization k of a stack is drawn from generator k; a single Generator
    gives the stack of one without its leading axis.  Each generator fills its
    row of normals in one call, read out as :func:`crandn` would draw h_1r,
    h_2r, h_r1, h_r2, Delta_11, Delta_22 and Delta_rr in turn.  The loopback
    errors are unit-variance matrices scaled by sigma_e, so configurations
    differing only in variances see identical underlying noise shapes from
    the same stream (paired comparisons across SNR/INR).
    """
    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else rng
    shapes = [(cfg.n_r, cfg.n_s)] * 2 + [(cfg.n_s, cfg.n_r)] * 2 + [(cfg.n_s, cfg.n_s)] * 2 + [(cfg.n_r, cfg.n_r)]
    sizes = [2 * a * b for a, b in shapes]
    normals = np.empty((len(rngs), sum(sizes)))
    for generator, row in zip(rngs, normals):
        generator.standard_normal(out=row)
    blocks = np.split(normals, np.cumsum(sizes)[:-1], axis=1)  # per matrix: real parts, then imaginary parts
    h_1r, h_2r, h_r1, h_r2, d_11, d_22, d_rr = (
        (x[:, 0] + 1j * x[:, 1]) * np.sqrt(0.5) for x in (b.reshape(-1, 2, *s) for b, s in zip(blocks, shapes))
    )
    stack = TimeSlotChannels(h_1r, h_2r, h_r1, h_r2, np.sqrt(cfg.sigma_e_sq_1) * d_11,
                             np.sqrt(cfg.sigma_e_sq_2) * d_22, np.sqrt(cfg.sigma_e_sq_r) * d_rr, t)
    return stack.realization(0) if single else stack
