"""Stability-driven choice of the design memory parameter.

With design memory m the first slot whose covariance model truncates history
is m+2.  If truncation matters, the design there transmits against an
underestimated interference level, which shows up as the ensemble-average MSE
*dropping* from slot m+1 to slot m+2 (the relay momentarily exceeds its power
budget) and oscillating afterwards.  The search returns the smallest m whose
slot-(m+1) to slot-(m+2) average MSE change is not a significant drop.

The comparison is made on paired channel realizations and judged against the
Monte Carlo standard error of the paired differences, so sampling noise does
not masquerade as instability (with zero loopback error the two averages are
equal in distribution and the smallest candidate is accepted).

Up to slot m+1 a memory-m design is the infinite-memory design (the window
has not truncated anything yet), so the search runs one infinite-memory
trajectory and branches off it one memory-m slot per candidate: M candidates
cost 2M+1 slot designs instead of M(M+5)/2 for restarting every candidate.
The winning branch is a memory-m̂ run of slots 1..m̂+2 and is handed back
with the selection, so a T-slot cell at memory m̂ resumes it: T+m̂-1 slot
designs per cell (2m̂+1 when T <= m̂+2) instead of 2m̂+1+T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .channel import MEMORY_INFINITE, SystemConfig
from .engine import _TrajectoryState

__all__ = ["NoStableMemoryError", "MemoryProbe", "MemorySelection", "select_memory"]


class NoStableMemoryError(RuntimeError):
    """No stable memory value found up to the candidate cap."""


@dataclass(frozen=True)
class MemoryProbe:
    """Stability probe of one candidate memory value."""

    candidate: int
    j_at_m_plus_1: float
    j_at_m_plus_2: float
    diff_stderr: float
    stable: bool


@dataclass(frozen=True)
class MemorySelection:
    """The selected memory, its probes, and the winning branch: the proposed
    scheme's trajectories run at memory ``m_hat`` up to slot ``m_hat`` + 2,
    which :func:`fdrelay.engine.run_trajectories_batch` can resume."""

    m_hat: int
    probes: tuple[MemoryProbe, ...]
    branch: _TrajectoryState = field(compare=False, repr=False)


def select_memory(
    cfg: SystemConfig,
    seed: int,
    realizations: int,
    max_candidate: int = 32,
    significance: float = 1.0,
) -> MemorySelection:
    """Smallest memory whose truncation slot shows no significant MSE drop.

    Runs the proposed scheme with infinite memory over ``realizations``
    paired realizations and, for each candidate i, branches off it at slot
    i+1 to run slot i+2 with memory i; this equals a run with memory i from
    slot 1 and is returned as the selection's ``branch`` when i wins.  The
    averaged MSE at slots i+1 and i+2 are compared: the candidate is
    unstable when the slot-(i+2) average falls more than ``significance``
    standard errors below the slot-(i+1) average.
    Sensitivity therefore grows with the realization count; around a
    thousand realizations resolves drops of a fraction of a percent.  Raises
    :class:`NoStableMemoryError` once ``max_candidate`` probes fail (the raw
    stopping rule need not terminate).
    """
    if realizations < 1:
        raise ValueError("need at least one realization")
    shared = _TrajectoryState(cfg, seed, range(realizations))
    cfg_shared = cfg.with_memory(MEMORY_INFINITE)
    probes: list[MemoryProbe] = []
    for candidate in range(1, max_candidate + 1):
        shared.advance(cfg_shared, "proposed", candidate + 1)
        branch = shared.fork().advance(cfg.with_memory(candidate), "proposed", candidate + 2)
        j1 = branch.sum_mse[candidate]      # slot candidate + 1
        j2 = branch.sum_mse[candidate + 1]  # slot candidate + 2
        diffs = j1 - j2
        stderr = float(diffs.std(ddof=1) / math.sqrt(realizations)) if realizations > 1 else 0.0
        stable = float(diffs.mean()) <= significance * stderr + 1e-12
        probes.append(
            MemoryProbe(
                candidate=candidate,
                j_at_m_plus_1=float(j1.mean()),
                j_at_m_plus_2=float(j2.mean()),
                diff_stderr=stderr,
                stable=stable,
            )
        )
        if stable:
            return MemorySelection(m_hat=candidate, probes=tuple(probes), branch=branch)
    raise NoStableMemoryError(
        f"no stable memory in 1..{max_candidate} "
        f"(last averaged MSE pair {probes[-1].j_at_m_plus_1:.4g} -> {probes[-1].j_at_m_plus_2:.4g})"
    )
