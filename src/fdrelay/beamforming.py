"""Per-slot MMSE relay and receive beamforming solvers.

The relay forwards with F = alpha * F_bar, where F_bar carries the steering
directions (kept at unit Frobenius norm) and alpha the power amplification;
receivers estimate with (1/alpha) R_l^H.  Each subproblem has a closed-form
solution:

* relay step: the stationarity system
      W_f1 Fb G_1 + W_f2 Fb G_2 + w_f / (n_r pr) * Fb G_r = W_f0
  is solved as one dense system (:class:`RelaySystem`: its Kronecker matrix,
  (2 n_s)^2 square on the equivalent problem below, is inverted once per
  system, and every further right-hand side is one product with that inverse;
  a system whose exact 1-norm condition exceeds ``CONDITION_LIMIT`` is
  singular, and a step that misses its residual check is refined once);
  the solution is renormalized to unit Frobenius norm with alpha restored
  from the transmit power constraint tr(F G_r F^H) = n_r pr (the physical F
  is invariant to that rescaling);
* receive step: per-source regularized Wiener inverse.

The sum MSE and the transmit power see F only through H_r1 F, H_r2 F and
tr(F G_r F^H), and the relay-input covariances are (g_c + sigma_r^2) I plus
terms in range([H_1r H_2r]).  So with n_r > 2 n_s relay antennas an optimum
has the form F_bar = Q Z P^H, where Q and P (n_r x 2 n_s) are orthonormal
bases of range([H_r1; H_r2]^H) and range([H_1r H_2r]) and Z is
2 n_s x 2 n_s: the part of F_bar outside range(Q) reaches no receiver, and
the part F_bar (I - P P^H) forwards only isotropic noise, so removing
either raises neither the sum MSE nor the power.  This is the
channel-aligned structure of the optimal AF MIMO relay on both sides (Rong,
Tang and Hua, IEEE Trans. Signal Process. 57(12), 2009).
:func:`design_slot_batch` therefore designs Z on the equivalent
2 n_s-antenna problem (:meth:`SlotProblem.reduced`) and returns Z with the
bases Q and P; :meth:`BatchDesign.solution` lifts one realization's
F_bar = Q Z P^H.  Its relay system has (2 n_s)^2 unknowns whatever n_r is, and
keeps no directions in which only the noise term acts.  With n_r <= 2 n_s
the reduction is the identity.

Both steps and the sum MSE exist once, batched over realizations, in
:class:`SlotProblem` and :class:`RelaySystem`; the per-realization functions
(:func:`build_slot_operators`, :func:`solve_relay_beamformer`, ...) call them
with a batch of one.  Per iteration, each kernel takes one product per
realization (and receiver) over all its matrices, never one per matrix.

Alternating the two steps never increases the sum MSE, because each solves
its subproblem exactly and the receive update absorbs the scaling
convention, but it converges slowly: at paper dimensions it is typically
still 0.2-20% above its limit after 30 iterations.  The joint design
(:func:`design_slot_batch`, and :func:`alternate_optimize` for one
realization) therefore takes the plain step only as its first iteration.
Afterwards it keeps the receive matrices at their Wiener optimum and
minimizes the resulting function of F_bar alone with damped Newton steps
(:class:`_NewtonModel`; each solves a 4 n_s^2 real system, never inverting
it); a step is accepted only if it lowers the sum MSE (up to rounding), and
the plain step is always among the candidates, so J never increases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cache, cached_property
from typing import Sequence

import numpy as np

from .channel import SystemConfig, TimeSlotChannels
from .matrix_core import CONDITION_LIMIT, SingularSystemError, fro_sq, herm, trace_quad
from .si_propagation import ResidualSICovariance

__all__ = [
    "BatchDesign",
    "DegenerateObjectiveError",
    "SlotProblem",
    "RelaySystem",
    "SlotOperators",
    "RelaySolution",
    "BeamformingSolution",
    "build_slot_operators",
    "solve_relay_beamformer",
    "solve_receive_beamformers",
    "evaluate_sum_mse",
    "design_slot_batch",
    "alternate_optimize",
]


# Relay steps whose relative residual exceeds this get one refinement step.
_SOLVE_RESIDUAL_LIMIT = 1e-10

# Blend weights tried around the current one at every accelerated iteration.
_SIGMA_FACTORS = np.array([0.25, 1.0, 4.0])
_SIGMA_START = 0.1
# Extra steps per iteration that reuse the iteration's Hessian model.
_CHORD_STEPS = 2
# Objective values this close (relative) are equal up to rounding.
_TIE_RTOL = 1e-13


class DegenerateObjectiveError(ValueError):
    """The desired-signal operator vanished; there is nothing to beamform."""


@dataclass(frozen=True)
class SlotOperators:
    """All operators of one slot's design, for the receive matrices they were built with.

    A :class:`SlotProblem` and its :class:`RelaySystem` for a batch of one.
    g1/g2/gr are the relay-input covariances seen by source 1's estimate,
    source 2's estimate, and the transmit power; they do not depend on the
    receive matrices.  w_f0 is the desired-signal operator, w_f1/w_f2 the
    receive-side quadratic kernels, and w_f_scalar collects the noise and
    source-loopback power picked up by the receive matrices.
    """

    problem: SlotProblem
    system: RelaySystem

    g1 = property(lambda self: self.problem.g[0, 0])
    g2 = property(lambda self: self.problem.g[0, 1])
    gr = property(lambda self: self.problem.gr[0])
    w_f0 = property(lambda self: self.system.w0[0])
    w_f1 = property(lambda self: herm(self.system.b[0, 0]) @ self.system.b[0, 0])
    w_f2 = property(lambda self: herm(self.system.b[0, 1]) @ self.system.b[0, 1])
    w_f_scalar = property(lambda self: float(self.system.c[0] * self.problem.budget))


@dataclass(frozen=True)
class RelaySolution:
    """Relay subproblem output: unit-norm steering, amplification, multiplier.

    ``prenorm_scale`` is the Frobenius norm of the raw vectorized solution
    before renormalization (the raw stationary point is prenorm_scale *
    f_bar); it is exposed so the stationarity residual can be checked.
    """

    f_bar: np.ndarray
    alpha: float
    lam: float
    prenorm_scale: float

    @property
    def f(self) -> np.ndarray:
        return self.alpha * self.f_bar


@dataclass(frozen=True)
class BeamformingSolution:
    """Finished per-slot design with the achieved objective."""

    f_bar: np.ndarray
    alpha: float
    f: np.ndarray
    lam: float
    r1: np.ndarray
    r2: np.ndarray
    j_value: float
    iterations_used: int
    j_trace: tuple[float, ...] = field(default=())


def build_slot_operators(
    ch_t: TimeSlotChannels,
    ch_prev: TimeSlotChannels,
    g_c: ResidualSICovariance,
    r1: np.ndarray,
    r2: np.ndarray,
    cfg: SystemConfig,
) -> SlotOperators:
    """Assemble one slot's operators for the given receive matrices."""
    if ch_t.h_r1.shape != (cfg.n_s, cfg.n_r) or ch_prev.h_1r.shape != (cfg.n_r, cfg.n_s):
        raise ValueError("channel dimensions inconsistent with configuration")
    problem = SlotProblem.from_draws(cfg, TimeSlotChannels.stack([ch_t]), TimeSlotChannels.stack([ch_prev]),
                                     np.array([g_c.scale]))
    return SlotOperators(problem, RelaySystem(problem, np.stack([r1, r2])[None]))


def solve_relay_beamformer(ops: SlotOperators, cfg: SystemConfig) -> RelaySolution:
    """Closed-form relay steering/amplification for fixed receive matrices.

    The relay step of :meth:`RelaySystem.solve_stationarity`, solved on the
    equivalent problem of :meth:`SlotProblem.reduced` and lifted.  Raises
    :class:`DegenerateObjectiveError` when the desired-signal operator is
    exactly zero (zero source power or zero receive matrices), since
    normalizing a zero steering matrix would hide a configuration error.
    """
    problem, q, p = ops.problem.reduced()
    raw = _lift(RelaySystem(problem, ops.system.r).solve_stationarity()[0], q, p)[0]
    prenorm_scale = float(np.linalg.norm(raw))
    f_bar = raw / prenorm_scale
    alpha = float(ops.problem.amplification(f_bar[None])[0])
    lam = ops.w_f_scalar / (alpha**2 * ops.problem.budget)
    return RelaySolution(f_bar=f_bar, alpha=alpha, lam=lam, prenorm_scale=prenorm_scale)


def solve_receive_beamformers(
    ch_t: TimeSlotChannels,
    ch_prev: TimeSlotChannels,
    f: np.ndarray,
    alpha: float,
    g_c: ResidualSICovariance,
    cfg: SystemConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form receive matrices (:meth:`SlotProblem.wiener` for one realization).

    R_l = alpha p_lbar (C G_l C^H + nu_l I)^-1 C H_lbar with C = H_rl F, the
    source-l end-to-end forward channel, and G_l the relay-input covariance
    for residual SI ``g_c``.  The composite estimator (1/alpha) R_l^H does not
    depend on alpha.
    """
    problem = SlotProblem.from_draws(cfg, TimeSlotChannels.stack([ch_t]), TimeSlotChannels.stack([ch_prev]),
                                     np.array([g_c.scale]))
    r = problem.wiener(np.asarray(f)[None], np.array([alpha]))[0][0]
    return r[0], r[1]


def evaluate_sum_mse(
    ops: SlotOperators,
    f_bar: np.ndarray,
    alpha: float,
    r1: np.ndarray,
    r2: np.ndarray,
    cfg: SystemConfig,
) -> float:
    """Analytic sum MSE of both source estimates for the given design (:meth:`SlotProblem.objective`).

    Uses the closed-form signal expectations (never sampling).  The receive
    matrices are taken from the arguments, not from the ones ``ops`` was built
    with, so the objective can be tracked right after a receive update.
    """
    return float(ops.problem.objective(f_bar[None], np.array([alpha]), np.stack([r1, r2])[None])[0])


def _w_f(nu: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Noise and source-loopback power sum_l nu_l ||R_l||_F^2 of receive pairs (..., 2, n_s, n_s)."""
    return (nu[:, None, None] * (r * r.conj()).real).sum(axis=(-3, -2, -1))


def _receive_hessian(a: np.ndarray) -> np.ndarray:
    """blockdiag_l(A_l kron I) (R, 4 n_s^2, 4 n_s^2) in receive coordinates: row (l, b, c, s) is A_l i^s E_bc.

    Block l has entry ((b, c, s), (a, c, s')) = [[Re, Im], [-Im, Re]][s][s'] of A_l[a, b]; every entry is
    written in one scatter from [Re, Im, -Re, -Im] of A (see :func:`_hessian_index`).
    """
    size, _, n_s, _ = a.shape
    source, target = _hessian_index(n_s)
    parts = a.view(np.float64).reshape(size, -1, 2)
    entries = np.concatenate([parts, -parts], axis=2).reshape(size, -1)[:, source]
    d = np.zeros((size, 16 * n_s**4))
    d[:, target] = entries
    return d.reshape(size, 4 * n_s * n_s, 4 * n_s * n_s)


@cache
def _hessian_index(n_s: int) -> tuple[np.ndarray, np.ndarray]:
    """Where :func:`_receive_hessian` reads and writes: flat indices into [Re, Im, -Re, -Im] of each entry of
    A (l, a, b) and into D, over (l, a, b, c, s, s')."""
    l, a, b, c, s, t = np.indices((2, n_s, n_s, n_s, 2, 2)).reshape(6, -1)
    m = 2 * n_s * n_s
    source = 4 * ((l * n_s + a) * n_s + b) + np.array([[0, 1], [3, 0]])[s, t]
    row, col = l * m + (b * n_s + c) * 2 + s, l * m + (a * n_s + c) * 2 + t
    target = row * 2 * m + col
    source.flags.writeable = target.flags.writeable = False  # shared by every call
    return source, target


def _replace_rows(stack, rows):
    """``stack``, a dataclass of per-realization arrays (and possibly ``cfg`` and None),
    with each array field replaced by ``rows(name)``."""
    return replace(stack, **{f.name: rows(f.name) for f in fields(stack)
                             if f.name != "cfg" and getattr(stack, f.name) is not None})


@dataclass
class BatchDesign:
    """Per-slot designs of a stack of realizations (leading axis).

    ``z`` is on the equivalent problem of :meth:`SlotProblem.reduced`, with
    bases ``q``, ``p`` (or None); ``j_trace`` has one column per iteration
    (column 0 is the projected identity start), NaN after a realization's exit.
    """

    z: np.ndarray
    q: np.ndarray | None
    p: np.ndarray | None
    alpha: np.ndarray
    r: np.ndarray  # (R, 2, n_s, n_s): R_1, R_2
    j: np.ndarray
    iterations_used: np.ndarray
    j_trace: np.ndarray

    def solution(self, index: int, cfg: SystemConfig) -> BeamformingSolution:
        """Realization ``index`` as a :class:`BeamformingSolution`, its steering matrix lifted to
        F_bar = Q Z P^H."""
        q, p = (None, None) if self.q is None else (self.q[index], self.p[index])
        f_bar, alpha, r = _lift(self.z[index], q, p), float(self.alpha[index]), self.r[index]
        used = int(self.iterations_used[index])
        return BeamformingSolution(
            f_bar=f_bar,
            alpha=alpha,
            f=alpha * f_bar,
            lam=float(_w_f(np.array(cfg.nu), r)) / (alpha**2 * (cfg.n_r * cfg.pr)),
            r1=r[0],
            r2=r[1],
            j_value=float(self.j[index]),
            iterations_used=used,
            j_trace=tuple(float(v) for v in self.j_trace[index, : used + 1]),
        )

    def subset(self, keep) -> "BatchDesign":
        """The designs of the realizations ``keep``."""
        return _replace_rows(self, lambda name: getattr(self, name)[keep])


@dataclass(eq=False)
class SlotProblem:
    """One slot's design problem for a stack of realizations.

    The fields after ``cfg`` are the per-realization inputs, realization axis
    first; every other array is derived from them.  :meth:`stack` derives them
    again from the concatenated fields and :meth:`subset` slices them with the
    fields, so neither leaves one at another batch.  Derived arrays carry,
    where the two receivers differ, a receiver axis l (0: source 1,
    1: source 2) second: ``h`` holds H_r1, H_r2 (n_s x n_r), ``h_bar`` the
    previous slot's inbound channel of the *other* source (H_2r for source 1,
    H_1r for source 2), ``g`` the relay-input covariances G_1, G_2 seen by
    each estimate and ``gr`` the one of the transmit power.  A steering
    matrix is n_r x n_r for the problem's own n_r: :func:`design_slot_batch`
    designs on the equivalent problem of :meth:`reduced`, whose n_r is 2 n_s
    whenever the configured one is larger (see the module docstring).
    """

    # the inputs and derived arrays with a realization axis; subsets share the others
    _ROWS = ("h_r1", "h_r2", "h_1r_prev", "h_2r_prev", "g_c_scale", "h", "h_bar", "h_conj", "g", "gr",
             "p_bar_h_bar_h")

    cfg: SystemConfig
    h_r1: np.ndarray
    h_r2: np.ndarray
    h_1r_prev: np.ndarray
    h_2r_prev: np.ndarray
    g_c_scale: np.ndarray

    def __post_init__(self):
        cfg = self.cfg
        n_r = cfg.n_r
        self.g_c_scale = np.asarray(self.g_c_scale)
        self.h = np.stack([self.h_r1, self.h_r2], axis=1)
        self.h_bar = np.stack([self.h_2r_prev, self.h_1r_prev], axis=1)
        self.h_conj = np.conj(self.h)[:, :, :, None, :, None]
        hh1 = cfg.p1 * (self.h_1r_prev @ herm(self.h_1r_prev))
        hh2 = cfg.p2 * (self.h_2r_prev @ herm(self.h_2r_prev))
        base = (self.g_c_scale + cfg.sigma_n_sq_r)[:, None, None] * np.eye(n_r)
        self.g = np.stack([base + hh2, base + hh1], axis=1)
        self.gr = base + hh1 + hh2
        self.p_bar = np.array([cfg.p2, cfg.p1])
        self.nu = np.array(cfg.nu)
        self.nu_eye = self.nu[:, None, None] * np.eye(cfg.n_s)
        self.p_bar_h_bar_h = self.p_bar[:, None, None] * herm(self.h_bar)
        self.budget = n_r * cfg.pr
        self.j_max = cfg.n_s * (cfg.p1 + cfg.p2)

    @classmethod
    def from_draws(cls, cfg: SystemConfig, ch_t: TimeSlotChannels, ch_prev: TimeSlotChannels,
                   g_c_scale: np.ndarray) -> "SlotProblem":
        """The problem of slot t from stacked draws: the outbound channels of ``ch_t`` (slot t), the
        inbound ones of ``ch_prev`` (slot t-1) and the residual-SI scales ``g_c_scale`` (R,)."""
        return cls(cfg, ch_t.h_r1, ch_t.h_r2, ch_prev.h_1r, ch_prev.h_2r, g_c_scale)

    @classmethod
    def stack(cls, problems: Sequence["SlotProblem"]) -> "SlotProblem":
        """Problems of one config stacked along the realization axis, in order."""
        if len(problems) == 1:
            return problems[0]
        return _replace_rows(problems[0], lambda name: np.concatenate([getattr(p, name) for p in problems]))

    def subset(self, keep) -> "SlotProblem":
        """The same problem restricted to the realizations ``keep``, by slicing: each array is
        computed row by row, so its slice equals the one derived from the sliced inputs, bit for bit."""
        rows = {name: getattr(self, name)[keep] for name in self._ROWS}
        sub = object.__new__(SlotProblem)
        vars(sub).update(vars(self), **rows)
        vars(sub).pop("_reduction", None)  # the parent's, for all its rows
        return sub

    def reduced(self) -> tuple["SlotProblem", np.ndarray | None, np.ndarray | None]:
        """The equivalent problem on 2 n_s relay antennas, and the bases Q, P (R, n_r, 2 n_s) that lift
        its steering matrices Z to F_bar = Q Z P^H; with n_r <= 2 n_s, this problem and no bases.

        From the reduced QRs [H_r1; H_r2]^H = Q T and [H_1r H_2r] = P U, both
        n_r x 2 n_s and taken in one call, its outbound channels H_rl Q are
        the blocks of T^H and its inbound ones P^H H_lr the blocks of U; its
        p_r = p_r n_r / (2 n_s) keeps the budget n_r p_r, and its noise and
        residual-SI scale are this problem's.  Its sum MSE, power and relay
        system at Z are this problem's at Q Z P^H.  Householder Q and P span
        the ranges also when a stack is rank-deficient.  Computed once per problem.
        """
        return (self, None, None) if self.cfg.n_r <= 2 * self.cfg.n_s else self._reduction

    @cached_property
    def _reduction(self) -> tuple["SlotProblem", np.ndarray, np.ndarray]:
        cfg, size, n_s, d = self.cfg, len(self.h), self.cfg.n_s, 2 * self.cfg.n_s
        h_in = np.concatenate([self.h_1r_prev, self.h_2r_prev], axis=2)
        qp, tu = np.linalg.qr(np.stack([herm(self.h.reshape(size, d, cfg.n_r)), h_in], axis=1))
        q, p, h_out, u = qp[:, 0], qp[:, 1], herm(tu[:, 0]), tu[:, 1].copy()  # the copy lets T go with tu
        reduced = SlotProblem(replace(cfg, n_r=d, pr=cfg.pr * cfg.n_r / d), h_out[:, :n_s], h_out[:, n_s:],
                              u[:, :, :n_s], u[:, :, n_s:], self.g_c_scale)
        return reduced, q, p

    def amplification(self, f_bar: np.ndarray) -> np.ndarray:
        """alpha meeting tr(F G_r F^H) = n_r p_r for ``f_bar`` (R, [k,] n_r, n_r): one G_r product per realization."""
        fg = (f_bar.reshape(len(f_bar), -1, f_bar.shape[-1]) @ self.gr).reshape(f_bar.shape)
        return np.sqrt(self.budget / (fg * f_bar.conj()).real.sum(axis=(-2, -1)))

    def wiener(self, f: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form receive matrices R_l = alpha p_lbar (C G_l C^H + nu_l I)^-1 C H_lbar.

        C = H_rl F is the source-l end-to-end forward channel.  Also returns
        the right-hand sides p_lbar C H_lbar.  ``f`` (R, [k,] n_r, n_r) may
        carry a candidate axis.  H = [H_r1; H_r2] multiplies the candidates
        side by side; C G_l C^H and C H_lbar are one product per receiver,
        whose n_s x n_s diagonal blocks are read.
        """
        size, n_s, n_r = len(f), self.cfg.n_s, self.cfg.n_r
        f_k = f.reshape(size, -1, n_r, n_r)                 # (R, k, n_r, n_r)
        count = f_k.shape[1]
        f_cat = f_k.swapaxes(1, 2).reshape(size, n_r, -1)   # [F_1 ... F_k]
        c = (self.h.reshape(size, 2 * n_s, n_r) @ f_cat).reshape(size, 2, n_s * count, n_r)  # rows (i, k) of C_l
        del f_cat
        e = (c @ self.h_bar).reshape(size, 2, n_s, count, n_s).transpose(0, 3, 1, 2, 4)
        cgc = ((c @ self.g) @ herm(c)).reshape(size, 2, n_s, count, n_s, count)
        a = np.diagonal(cgc, axis1=3, axis2=5).transpose(0, 4, 1, 2, 3) + self.nu_eye
        del c, cgc
        b = self.p_bar[:, None, None] * e
        r = alpha.reshape(size, count, 1, 1, 1) * np.linalg.solve(a, b)
        shape = f.shape[:-2] + (2, n_s, n_s)
        return r.reshape(shape), b.reshape(shape)

    def receive(self, f_bar: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(alpha, Wiener receive matrices, sum MSE) for unit-norm steering ``f_bar``.

        With the receive matrices at their optimum the sum MSE reduces to
        n_s (p1 + p2) - sum_l Re tr(b_l^H R_l) / alpha.
        """
        alpha = self.amplification(f_bar)
        r, b = self.wiener(alpha[..., None, None] * f_bar, alpha)
        j = self.j_max - (b.conj() * r).sum(axis=(-3, -2, -1)).real / alpha
        return alpha, r, j

    def objective(self, f_bar: np.ndarray, alpha: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Analytic sum MSE of the design (f_bar, alpha, R_1, R_2)."""
        f = alpha[:, None, None] * f_bar
        b = herm(r) @ self.h
        cross = 2.0 * np.real(np.einsum("rij,rij->r", np.conj(self._w_f0(b)), f))
        e = b @ f[:, None]
        quad = sum(trace_quad(e[:, l], self.g[:, l]) + self.nu[l] * fro_sq(r[:, l]) for l in (0, 1))
        return self.j_max - cross / alpha + quad / alpha**2

    def identity_objective(self) -> np.ndarray:
        """:meth:`objective` at F_bar = I / sqrt(n_r) and R_l = I, in O(n_r^2) per realization.

        There alpha^2 = n_r budget / tr G_r and W_f0 = sum_l p_lbar H_rl^H H_lbar^H, so the sum MSE is
        j_max - (2 / sqrt(n_r)) Re tr W_f0 + (1 / n_r) sum_l tr(H_rl G_l H_rl^H) + n_s (nu_1 + nu_2) / alpha^2.
        """
        n_r = self.cfg.n_r
        alpha_sq = n_r * self.budget / np.trace(self.gr, axis1=1, axis2=2).real
        cross = (self.h.conj() * self.p_bar_h_bar_h).real.sum(axis=(1, 2, 3))
        quad = trace_quad(self.h, self.g).sum(axis=1)
        return self.j_max - 2.0 / math.sqrt(n_r) * cross + (quad / n_r + self.cfg.n_s * self.nu.sum() / alpha_sq)

    def _w_f0(self, b: np.ndarray) -> np.ndarray:
        """Desired-signal operator sum_l p_lbar H_rl^H R_l H_lbar^H, from B_l = R_l^H H_rl."""
        return (herm(b) @ self.p_bar_h_bar_h).sum(axis=1)


class RelaySystem:
    """Relay stationarity operator of a slot problem for fixed receive matrices, and its inverse.

    For receive matrices R_l, with B_l = R_l^H H_rl, W_l = B_l^H B_l and
    c = w_f / (n_r p_r), the operator is K(X) = sum_l W_l X G_l + c X G_r and
    the relay step solves K(F_bar) = W_f0, which minimizes the sum MSE over
    an unnormalized F_bar.  On row-major flattened matrices K is the
    n_r^2 x n_r^2 matrix sum_l W_l kron G_l^T + c I kron G_r^T; it is
    Hermitian (W_l, G_l and G_r are), and so is K^-1.  On the equivalent
    problem the design solves (:meth:`SlotProblem.reduced`) that is
    (2 n_s)^2 unknowns, 16 at n_s = 2, whatever the configured n_r: small
    enough to invert K once per system, so that each later solve, for the
    Newton model's right-hand sides, the chord steps and the refinement, is
    one product.  :meth:`apply` forms K(X) from the factors instead, never
    from K, so the residual guard checks the inverse against an independent
    formula.
    """

    def __init__(self, problem: SlotProblem, r: np.ndarray):
        self.problem = problem
        self.r = r
        self.b = herm(r) @ problem.h                  # B_l, (R, 2, n_s, n_r)
        self.c = _w_f(problem.nu, r) / problem.budget

    w0 = cached_property(lambda self: self.problem._w_f0(self.b))  # W_f0, (R, n_r, n_r); not needed for residual

    def residual(self, x: np.ndarray) -> np.ndarray:
        """K(X) - W_f0 for a stack of n_r x n_r matrices.

        At a unit-norm steering matrix whose receive matrices are its Wiener
        solution, this is the gradient of the receive-eliminated sum MSE (by
        the envelope theorem; conjugate-gradient convention
        dJ = 2 Re tr(grad^H dF)).
        """
        return self.apply(x[:, None], self.problem.p_bar_h_bar_h[:, :, :, None])[:, 0]

    def apply(self, x: np.ndarray, target=0.0) -> np.ndarray:
        """sum_l B_l^H (B_l X G_l - T_l) + c X G_r for X (R, count, n_r, n_r), never forming W_l:
        K(X) at T = 0, K(X) - W_f0 at T_l = p_lbar H_lbar^H, given as (R, 2, n_s, 1, n_r).
        [B_1; B_2] multiplies the X side by side, and [B_1^H B_2^H] sums over l."""
        p = self.problem
        size, count, n_r, _ = x.shape
        b = self.b.reshape(size, -1, n_r)                   # [B_1; B_2], (R, 2 n_s, n_r)
        bx = (b @ x.swapaxes(1, 2).reshape(size, n_r, count * n_r)).reshape(size, 2, -1, n_r)
        inner = (bx @ p.g).reshape(size, 2, -1, count, n_r) - target
        out = (herm(b) @ inner.reshape(size, b.shape[1], -1)).reshape(size, n_r, count, n_r).swapaxes(1, 2)
        return out + self.c[:, None, None, None] * (x.reshape(size, -1, n_r) @ p.gr).reshape(x.shape)

    @cached_property
    def _inverse(self) -> tuple[np.ndarray, np.ndarray]:
        """(K^T)^-1 (R, n_r^2, n_r^2), so that K^-1 maps flattened rows y to y (K^T)^-1, and the
        exact 1-norm conditions ||K||_1 ||K^-1||_1 (R,), the infinity norms of K^T and its inverse.

        Entry ((i, j), (a, b)) of K^T is sum_l W_l[a, i] G_l[j, b] + c [a = i] G_r[j, b]:
        one product over the three terms (W_1, G_1), (W_2, G_2), (c I, G_r).
        An exactly singular K raises :class:`SingularSystemError` with condition inf.
        """
        p = self.problem
        size, n = len(self.b), p.cfg.n_r
        w = np.concatenate([herm(self.b) @ self.b, self.c[:, None, None, None] * np.eye(n)], axis=1)
        g = np.concatenate([p.g, p.gr[:, None]], axis=1)
        kt = w.transpose(0, 3, 2, 1).reshape(size, n * n, 3) @ g.reshape(size, 3, n * n)  # rows (i, a), cols (j, b)
        kt = kt.reshape(size, n, n, n, n).swapaxes(2, 3).reshape(size, n * n, n * n)
        try:
            inverse = np.linalg.inv(kt)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(math.inf) from exc
        return inverse, np.abs(kt).sum(axis=2).max(axis=1) * np.abs(inverse).sum(axis=2).max(axis=1)

    def solve(self, y: np.ndarray) -> np.ndarray:
        """K^-1 applied to the right-hand sides ``y``, (R, count, n_r, n_r): one product per realization."""
        size, count = y.shape[:2]
        return (y.reshape(size, count, -1) @ self._inverse[0]).reshape(y.shape)

    def condition(self, index: int) -> float:
        """||K||_1 ||K^-1||_1, the exact 1-norm condition of realization ``index``'s K."""
        return float(self._inverse[1][index])

    def solve_stationarity(self, rhs: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The relay step K^-1 W_f0, and K^-1 applied to k further right-hand sides, in one solve.

        ``rhs`` (R, 1 + k, n_r, n_r) holds the further right-hand sides after
        a first entry that is overwritten with W_f0, so that they are solved
        where they were built, never copied.  A system whose
        :meth:`condition` exceeds ``CONDITION_LIMIT`` is singular to working
        tolerance: the residual cannot show it, since the rounding that K^-1
        amplifies lies near the null space of K, which K maps back to nearly
        nothing.  A step that misses ||K(X) - W_f0|| <= 1e-10 ||W_f0|| is
        refined once, X -= K^-1 (K(X) - W_f0).  :class:`SingularSystemError`
        is raised if a system is singular or a step still misses.  Returns
        (steps, K^-1 of the k others).
        """
        w0 = self.w0
        if not w0.reshape(len(w0), -1).any(axis=1).all():
            raise DegenerateObjectiveError("desired-signal operator w_f0 is zero")
        if rhs is None:
            rhs = w0[:, None]
        else:
            rhs[:, 0] = w0
        conditions = self._inverse[1]
        if not (conditions <= CONDITION_LIMIT).all():
            raise SingularSystemError(np.max(conditions))
        x = self.solve(rhs)
        raw, bound = x[:, 0], _SOLVE_RESIDUAL_LIMIT * np.sqrt((w0.conj() * w0).real.sum(axis=(1, 2)))
        residual = self.residual(raw)
        miss = ~(np.sqrt((residual.conj() * residual).real.sum(axis=(1, 2))) <= bound)
        if miss.any():
            raw[miss] -= self.solve(residual[:, None])[miss, 0]
            if not np.all(np.linalg.norm(self.residual(raw), axis=(1, 2)) <= bound):
                raise SingularSystemError(np.max(conditions[miss]), "residual target unreachable")
        return raw, x[:, 1:]


def _lift(z: np.ndarray, q: np.ndarray | None, p: np.ndarray | None) -> np.ndarray:
    """Steering matrices Q Z P^H of the designs ``z`` of an equivalent problem (see :meth:`SlotProblem.reduced`)."""
    return z if q is None else q @ z @ herm(p)


def _unit(f: np.ndarray) -> np.ndarray:
    """Each matrix of a stack scaled to unit Frobenius norm."""
    return f / np.sqrt((f * f.conj()).real.sum(axis=(-2, -1), keepdims=True))


def _newton_directions(problem: SlotProblem, system: RelaySystem, f_bar, alpha, r) -> tuple[np.ndarray, np.ndarray]:
    """The receive Hessian blocks A_l = C_l G_l C_l^H + nu_l / alpha^2 I (C_l = H_rl F_bar) and the
    right-hand sides of the model's relay solve (R, 1 + 4 n_s^2, n_r, n_r).

    After an entry left for W_f0 (see :meth:`RelaySystem.solve_stationarity`)
    they hold the matrices B e_k for the unit receive perturbations e_k: the
    change of K(F_bar) - W_f0 when R_l moves along e_k, each a sum of outer
    products laid out as [row, column] of the n_r x n_r matrix.  The outer
    products are freed on return, before the solve.
    """
    size, n_r, n_s = len(f_bar), f_bar.shape[-1], problem.cfg.n_s
    c = (problem.h.reshape(size, 2 * n_s, n_r) @ f_bar).reshape(size, 2, n_s, n_r)  # C_l = H_rl F_bar
    cg = c @ problem.g                                # C_l G_l
    a = np.einsum("rlij,rlmj->rlim", cg, c.conj()) + alpha[:, None, None, None] ** -2 * problem.nu_eye  # A_l
    d1 = np.einsum("rlji,rljm->rlim", r.conj(), cg) - problem.p_bar_h_bar_h  # R_l^H C_l G_l - p_lbar H_lbar^H
    o1 = problem.h_conj * d1[:, :, None, :, None, :]
    o2 = np.conj(system.b)[:, :, None, :, :, None] * cg[:, :, :, None, None, :]
    fg = (f_bar @ problem.gr)[:, None, None, None] / problem.budget
    dw = (2.0 * problem.nu[:, None, None] * r)[..., None, None]
    rhs = np.empty((size, 1 + 4 * n_s * n_s, n_r, n_r), dtype=complex)
    b = rhs[:, 1:].reshape(o1.shape[:4] + (2,) + o1.shape[4:])  # a view
    b[..., 0, :, :] = o1 + o2 + dw.real * fg
    b[..., 1, :, :] = 1j * (o1 - o2) + dw.imag * fg
    return a, rhs


class _NewtonModel:
    """Second-order model of the receive-eliminated sum MSE at one iterate.

    With the receive matrices at their Wiener optimum the sum MSE is a
    function J(F_bar) of the steering matrix alone, invariant to complex
    scaling of F_bar.  Its gradient is the relay residual K(F_bar) - W_f0
    (see :meth:`RelaySystem.residual`) and its Hessian is K - B D^-1 B^T: K is
    the relay operator (the Hessian for fixed receive matrices), D the
    receive Hessian (A_l = C_l G_l C_l^H + nu_l / alpha^2 I per receiver,
    C_l = H_rl F_bar) and B the mixed relay/receive second derivative, so the
    curvature the plain alternation ignores has rank at most 4 n_s^2.  Steps
    are taken for the blended Hessian (1 - sigma) H + sigma K: sigma = 1 is
    the plain alternation step, sigma = 0 the Newton step; the Woodbury
    identity reduces each to a 4 n_s^2 real system once K^-1 B is known.
    The model keeps those systems, D - (1 - sigma) B^T K^-1 B for the
    candidate weights ``weights`` (R, c), and solves them at each step;
    :meth:`blended` builds them for other weights.
    K^-1 is applied by :meth:`RelaySystem.solve`, to the 4 n_s^2 rows of B
    together with W_f0 (the plain step), so the model also carries the
    plain step ``raw``.  Directions along F_bar and i F_bar, which leave J
    unchanged, are projected out of the low-rank part.  Receive-side
    quantities are carried in real coordinates (entry (l, b, c) of R_l,
    real then imaginary part), relay-side ones as row-major flattened
    n_r x n_r matrices.  The curvature B^T u is read from the direction
    matrices B e_k as Re <B e_k, u>, in one product.
    """

    def __init__(self, problem: SlotProblem, system: RelaySystem, f_bar, alpha, r, weights):
        size = len(f_bar)
        self.system = system
        a, rhs = _newton_directions(problem, system, f_bar, alpha, r)
        self.raw, k_inv_b = system.solve_stationarity(rhs)

        # Rows of K^-1 B without their K-orthogonal components along F_bar
        # and i F_bar, projected in place.  kappa = Re <F_bar, K(F_bar)> = sum_l Re tr(R_l^H A_l R_l), as
        # c tr(F_bar G_r F_bar^H) = sum_l nu_l ||R_l||^2 / alpha^2 at the power budget.
        x = f_bar.reshape(size, -1)
        kappa = np.einsum("rlij,rlim,rlmj->r", r.conj(), a, r).real
        b = rhs[:, 1:].reshape(size, -1, x.shape[1])
        along = (b @ x.conj()[..., None]) / kappa[:, None, None]
        self.w = k_inv_b.reshape(b.shape)
        self.w -= along * x[:, None]

        # B^T is read from the same directions: entry k of B^T u is Re <B e_k, u>,
        # the real dot product of the interleaved real and imaginary parts.
        self._b = b.view(np.float64).swapaxes(1, 2)         # (R, 2 n_r^2, 4 n_s^2)
        m = self._mixed(self.w)
        m = 0.5 * (m + np.swapaxes(m, 1, 2))
        self._d, self._m = _receive_hessian(a), m
        self.keep = 1.0 - weights
        self.blend = self.blended(self.keep)

    def blended(self, keep: np.ndarray) -> np.ndarray:
        """The blend systems D - ``keep`` B^T K^-1 B (R, c, 4 n_s^2, 4 n_s^2) for weights sigma = 1 - ``keep`` (R, c)."""
        blend = keep[..., None, None] * self._m[:, None]
        return np.subtract(self._d[:, None], blend, out=blend)

    def _mixed(self, u: np.ndarray) -> np.ndarray:
        """Receive coordinates of B^T u for flattened relay directions u (R, k, n_r^2): one real product."""
        return np.ascontiguousarray(u).view(np.float64) @ self._b

    def steps(self, u: np.ndarray) -> np.ndarray:
        """Steps -((1 - sigma) H + sigma K)^-1 grad for u = K^-1 grad (R, n_r, n_r).

        Returns (R, c, n_r, n_r), one step per blend system ``blend`` (R, c)
        of weight sigma = 1 - ``keep``; each system is solved for its one
        right-hand side, never inverted.
        """
        u_vec = u.reshape(len(u), 1, -1)
        v = np.linalg.solve(self.blend, self._mixed(u_vec)[..., None])[..., 0]
        return -(u_vec + self.keep[..., None] * (v @ self.w)).reshape(*self.keep.shape, *u.shape[1:])


def _accelerated_iteration(problem: SlotProblem, f_bar, alpha, r, j, sigma):
    """One iteration after the first; returns the new (f_bar, alpha, r, j, sigma).

    ``r`` is the Wiener solution for ``f_bar``.  The candidates are damped
    Newton steps for blend weights sigma * _SIGMA_FACTORS (most Newton-like
    first) and the plain alternation step; the best one is then refined by
    up to ``_CHORD_STEPS`` steps that reuse the same model, until a trial
    that no row accepts.  The result is kept only if it does not raise J by
    more than rounding.
    """
    weights = np.minimum(sigma[:, None] * _SIGMA_FACTORS, 1.0)
    model = _NewtonModel(problem, RelaySystem(problem, r), f_bar, alpha, r, weights)
    candidates = np.concatenate([_unit(f_bar[:, None] + model.steps(f_bar - model.raw)),
                                 _unit(model.raw)[:, None]], axis=1)
    model.blend = None  # the candidates' systems, freed before scoring; the winner's is built again below
    c_alpha, c_r, values = problem.receive(candidates)
    values[~np.isfinite(values)] = np.inf
    # Values within rounding of the best count as ties and go to the most
    # Newton-like candidate, so the exit point does not hinge on rounding.
    slack = _TIE_RTOL * np.maximum(1.0, np.abs(j))
    best = np.argmax(values <= (values.min(axis=1) + slack)[:, None], axis=1)
    rows = np.arange(len(best))
    # (f_bar, alpha, r, j) of each row's best candidate
    new = candidates[rows, best], c_alpha[rows, best], c_r[rows, best], values[rows, best]
    plain = best == len(_SIGMA_FACTORS)
    picked = weights[rows, np.minimum(best, len(_SIGMA_FACTORS) - 1)]
    weight = np.where(plain, 1.0, picked)
    # chords: the winner's system only
    model.keep, model.blend = (1.0 - weight)[:, None], model.blended(1.0 - picked[:, None])
    for _ in range(_CHORD_STEPS):
        new_f, _, new_r, new_j = new
        u = model.system.solve(RelaySystem(problem, new_r).residual(new_f)[:, None])[:, 0]
        trial = _unit(new_f + model.steps(u)[:, 0])
        scored = (trial,) + problem.receive(trial)
        better = scored[3] <= new_j + slack
        if not better.any():
            break  # every row is unchanged, so the next chord would repeat this trial
        new = _take_rows(better, scored, new)
    sigma = np.where(plain, np.minimum(4.0 * sigma, 1.0), weight)
    return _take_rows(new[3] <= j + slack, new, (f_bar, alpha, r, j)) + (sigma,)


def _take_rows(mask, new, old):
    """The arrays ``old`` with their rows ``mask`` taken from ``new``, written in place; ``new`` itself if
    every row is."""
    if mask.all():
        return new
    for target, source in zip(old, new):
        target[mask] = source[mask]
    return old


def design_slot_batch(problem: SlotProblem, pin_receive: bool = False) -> BatchDesign:
    """Jointly design relay and receive beamformers for a stack of realizations.

    Starts from identity receive matrices (the objective trace starts at the
    identity steering projected onto the power constraint).  Iteration 1 is
    the plain relay-then-receive alternation step.  Every later iteration
    keeps the receive matrices at their Wiener optimum and takes the best of
    several steps on the receive-eliminated objective J(F_bar), all built
    from one relay system K (see :class:`_NewtonModel` and
    :func:`_accelerated_iteration`): the plain alternation step and damped
    Newton steps for three blend weights around the last successful one,
    followed by up to ``_CHORD_STEPS`` further steps from the winner that
    reuse the same model.  A step is taken only if it does not raise J by more than
    rounding (``_TIE_RTOL`` relative), so the trace never increases beyond
    that; the plain step always qualifies in exact arithmetic.  A
    realization stops once its objective changes by less than
    ``cfg.convergence_tol`` (relative) in one iteration, so a tolerance of 0
    always runs ``cfg.max_iterations``; finished realizations drop out of the
    batch.  With ``pin_receive`` the receive matrices stay at identity and
    the relay step, exact for fixed receive matrices, is the whole design.
    Every iteration runs on the equivalent problem of
    :meth:`SlotProblem.reduced`, and the design is returned there: Z with
    the bases Q and P that lift it to F_bar = Q Z P^H.
    """
    cfg, n_s = problem.cfg, problem.cfg.n_s
    size = problem.h.shape[0]
    tol = cfg.convergence_tol
    r = np.broadcast_to(np.eye(n_s, dtype=complex), (size, 2, n_s, n_s)).copy()
    j_trace = np.full((size, cfg.max_iterations + 1), np.nan)
    j_trace[:, 0] = problem.identity_objective()

    problem, q, p = problem.reduced()
    f_bar = _unit(RelaySystem(problem, r).solve_stationarity()[0])
    if pin_receive:
        # Later relay steps repeat this one exactly: the trace is flat after it.
        alpha = problem.amplification(f_bar)
        j = problem.objective(f_bar, alpha, r)
        used = 1 if cfg.max_iterations == 1 else (2 if tol > 0 else cfg.max_iterations)
        j_trace[:, 1:used + 1] = j[:, None]
        return BatchDesign(f_bar, q, p, alpha, r, j, np.full(size, used), j_trace)
    alpha, r, j = problem.receive(f_bar)
    j_trace[:, 1] = j

    out = BatchDesign(f_bar.copy(), q, p, alpha.copy(), r.copy(), j.copy(),
                      np.full(size, cfg.max_iterations), j_trace)
    active = np.arange(size)
    done = np.abs(j - j_trace[:, 0]) < tol * np.maximum(1.0, np.abs(j_trace[:, 0]))
    sigma = np.full(size, _SIGMA_START)
    for iteration in range(2, cfg.max_iterations + 1):
        if done.any():
            finished = active[done]
            out.z[finished], out.alpha[finished] = f_bar[done], alpha[done]
            out.r[finished], out.j[finished] = r[done], j[done]
            out.iterations_used[finished] = iteration - 1
            keep = ~done
            if not keep.any():
                break
            active, problem = active[keep], problem.subset(keep)
            f_bar, alpha, r, j, sigma = f_bar[keep], alpha[keep], r[keep], j[keep], sigma[keep]
        j_before = j.copy()
        f_bar, alpha, r, j, sigma = _accelerated_iteration(problem, f_bar, alpha, r, j, sigma)
        done = np.abs(j - j_before) < tol * np.maximum(1.0, np.abs(j_before))
        out.j_trace[active, iteration] = j
    else:
        out.z[active], out.alpha[active], out.r[active], out.j[active] = f_bar, alpha, r, j
    return out


def alternate_optimize(
    ch_t: TimeSlotChannels,
    ch_prev: TimeSlotChannels,
    g_c: ResidualSICovariance,
    cfg: SystemConfig,
    pin_receive: bool = False,
) -> BeamformingSolution:
    """Joint relay/receive design of one slot (:func:`design_slot_batch` for one realization).

    Starts from identity beamformers, runs at most ``cfg.max_iterations``
    iterations and stops early once the relative objective change falls
    below ``cfg.convergence_tol``.  The first iteration is the plain
    relay-then-receive alternation step; later ones accelerate it with
    damped Newton steps on the receive-eliminated objective, accepted only
    when they lower it (up to rounding), so ``j_trace`` does not increase.
    The returned receive matrices are the Wiener solution for the returned
    relay beamformer.  With ``pin_receive`` the receive matrices stay at
    identity (relay-only design).
    """
    problem = SlotProblem.from_draws(cfg, TimeSlotChannels.stack([ch_t]), TimeSlotChannels.stack([ch_prev]),
                                     np.array([g_c.scale]))
    return design_slot_batch(problem, pin_receive).solution(0, cfg)
