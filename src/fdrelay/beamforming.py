"""Per-slot MMSE relay and receive beamforming solvers.

The relay forwards with F = alpha * F_bar, where F_bar carries the steering
directions (kept at unit Frobenius norm) and alpha the power amplification;
receivers estimate with (1/alpha) R_l^H.  Each subproblem has a closed-form
solution:

* relay step: the stationarity system
      W_f1 Fb G_1 + W_f2 Fb G_2 + w_f / (n_r pr) * Fb G_r = W_f0
  is solved in its structured form (:class:`RelaySystem`: a Sylvester
  operator plus a rank-2 n_s^2 correction, inverted by the Woodbury
  identity with one d x d inverse per system, never as a Kronecker
  system; a step that misses its residual check is singular when a
  condition estimate of the operator says so, and is otherwise refined
  once); the solution is renormalized to unit Frobenius norm with alpha
  restored from the transmit power constraint tr(F G_r F^H) = n_r pr (the
  physical F is invariant to that rescaling);
* receive step: per-source regularized Wiener inverse.

The sum MSE and the transmit power see F only through H_r1 F, H_r2 F and
tr(F G_r F^H), so with n_r > 2 n_s relay antennas an optimum has the form
F_bar = Q Y, where Q (n_r x 2 n_s) is an orthonormal basis of
range([H_r1; H_r2]^H): the channel-aligned structure of the optimal AF MIMO
relay (Rong, Tang and Hua, IEEE Trans. Signal Process. 57(12), 2009).  The
design therefore carries the d x n_r matrix Y (d = 2 n_s) and forms
F_bar = Q Y once, when :func:`design_slot_batch` returns; with
n_r <= 2 n_s, d = n_r and Y is F_bar itself.  Restricted this way the relay
operator keeps no directions in which only the noise term c X G_r acts, so
its conditioning grows 10-fold per 10 dB of SNR instead of 100-fold.

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
from functools import cached_property
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


# Relay steps whose relative residual exceeds this get a condition estimate and
# one refinement step.
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
    source-loopback power picked up by the receive matrices.  They are in
    full coordinates (n_r x n_r); ``system`` works in the design's.
    """

    problem: SlotProblem
    system: RelaySystem

    g1 = property(lambda self: self.problem.g[0, 0])
    g2 = property(lambda self: self.problem.g[0, 1])
    gr = property(lambda self: self.problem.gr[0])
    b = property(lambda self: herm(self.system.r) @ self.problem.h)  # B_l in full coordinates, (1, 2, n_s, n_r)
    w_f0 = property(lambda self: self.problem._w_f0(self.b)[0])
    w_f1 = property(lambda self: herm(self.b[0, 0]) @ self.b[0, 0])
    w_f2 = property(lambda self: herm(self.b[0, 1]) @ self.b[0, 1])
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
    problem = SlotProblem.single(ch_t, ch_prev, g_c, cfg)
    return SlotOperators(problem, RelaySystem(problem, np.stack([r1, r2])[None]))


def solve_relay_beamformer(ops: SlotOperators, cfg: SystemConfig) -> RelaySolution:
    """Closed-form relay steering/amplification for fixed receive matrices.

    The relay step of :meth:`RelaySystem.solve_stationarity`.  Raises
    :class:`DegenerateObjectiveError` when the desired-signal operator is
    exactly zero (zero source power or zero receive matrices), since
    normalizing a zero steering matrix would hide a configuration error.
    """
    raw = ops.problem.expand(ops.system.solve_stationarity()[0])[0]
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
    problem = SlotProblem.single(ch_t, ch_prev, g_c, cfg)
    r = problem.wiener(problem.restrict(np.asarray(f)[None]), np.array([alpha]))[0][0]
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
    """blockdiag_l(A_l kron I) (R, 4 n_s^2, 4 n_s^2) in receive coordinates: row (l, b, c, s) is A_l i^s E_bc."""
    size, _, n_s, _ = a.shape
    d = np.zeros((size, 2, n_s, n_s, 2, 2, n_s, n_s, 2))  # (R, l, b, c, s, l', a, c', s')
    parts = np.stack([np.stack([a.real, a.imag], -1), np.stack([-a.imag, a.real], -1)], -2)  # (R, l, a, b, s, s')
    np.einsum("rlbcslact->rlbsact", d)[...] = parts.transpose(0, 1, 3, 4, 2, 5)[..., None, :]  # view: l = l', c = c'
    return d.reshape(size, 4 * n_s * n_s, -1)


def _replace_rows(stack, rows):
    """``stack``, a dataclass of per-realization arrays (and possibly ``cfg``),
    with each array field replaced by ``rows(name)``."""
    return replace(stack, **{f.name: rows(f.name) for f in fields(stack) if f.name != "cfg"})


@dataclass
class BatchDesign:
    """Per-slot designs of a stack of realizations (leading axis).

    ``j_trace`` has one column per iteration (column 0 is the projected
    identity start); columns after a realization's exit are NaN.
    """

    f_bar: np.ndarray
    alpha: np.ndarray
    r: np.ndarray  # (R, 2, n_s, n_s): R_1, R_2
    j: np.ndarray
    iterations_used: np.ndarray
    j_trace: np.ndarray

    def solution(self, index: int, cfg: SystemConfig) -> BeamformingSolution:
        """Realization ``index`` as a :class:`BeamformingSolution`."""
        f_bar, alpha, r = self.f_bar[index], float(self.alpha[index]), self.r[index]
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
    each estimate and ``gr`` the one of the transmit power.

    The design works in coordinates Y (d x n_r) of the steering matrix
    F_bar = Q Y (see the module docstring): ``basis`` holds Q (n_r x 2 n_s),
    from one reduced QR [H_r1; H_r2]^H = Q T, and ``h_out`` the outbound
    channels H_rl Q (n_s x 2 n_s), the blocks of T^H.  With n_r <= 2 n_s,
    ``basis`` is None and ``h_out`` is ``h``.  Householder Q spans
    range([H_r1; H_r2]^H) also when the stack is rank-deficient.
    :meth:`amplification`, :meth:`wiener` and :meth:`receive` take design
    coordinates, :meth:`objective` full ones; :meth:`expand` and
    :meth:`restrict` map between them.
    """

    # the inputs and derived arrays with a realization axis; subsets share the others
    _ROWS = ("h_r1", "h_r2", "h_1r_prev", "h_2r_prev", "g_c_scale", "h", "basis", "h_out", "h_bar", "h_conj",
             "g", "gr", "p_bar_h_bar_h")

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
        size, d = len(self.h), 2 * cfg.n_s
        if n_r > d:
            self.basis, t = np.linalg.qr(herm(self.h.reshape(size, d, n_r)))
            self.h_out = herm(t).reshape(size, 2, cfg.n_s, d)
        else:
            self.basis, self.h_out = None, self.h
        self.h_bar = np.stack([self.h_2r_prev, self.h_1r_prev], axis=1)
        self.h_conj = np.conj(self.h_out)[:, :, :, None, :, None]
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
    def single(cls, ch_t: TimeSlotChannels, ch_prev: TimeSlotChannels,
               g_c: ResidualSICovariance, cfg: SystemConfig) -> "SlotProblem":
        """Batch of one realization."""
        return cls(cfg, ch_t.h_r1[None], ch_t.h_r2[None], ch_prev.h_1r[None],
                   ch_prev.h_2r[None], np.array([g_c.scale]))

    @classmethod
    def stack(cls, problems: Sequence["SlotProblem"]) -> "SlotProblem":
        """Problems of one config stacked along the realization axis, in order."""
        if len(problems) == 1:
            return problems[0]
        return _replace_rows(problems[0], lambda name: np.concatenate([getattr(p, name) for p in problems]))

    def subset(self, keep) -> "SlotProblem":
        """The same problem restricted to the realizations ``keep``, by slicing: each array is
        computed row by row, so its slice equals the one derived from the sliced inputs, bit for bit."""
        rows = {name: getattr(self, name)[keep] for name in self._ROWS if getattr(self, name) is not None}
        if "solve_factors" in vars(self):
            rows["solve_factors"] = tuple(a[keep] for a in self.solve_factors)
        sub = object.__new__(SlotProblem)
        vars(sub).update(vars(self), **rows)
        return sub

    @cached_property
    def solve_factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The parts of every relay solve that depend only on the slot (see :class:`RelaySystem`).

        With S = [S_1 S_2], S_l = sqrt(p_l) H_lr, so that G_l = G_r - S_l S_l^H,
        returns (G_r^-1, S^H G_r^-1, Q) where Q[k, i, l, j] is entry (j, i)
        of S_l^H G_r^-1 S_k.  Computed on the first solve only: problems that
        are just scored never need it.
        """
        cfg = self.cfg
        s = np.concatenate([math.sqrt(cfg.p1) * self.h_1r_prev, math.sqrt(cfg.p2) * self.h_2r_prev], axis=2)
        gr_inv = np.linalg.inv(self.gr)
        s_gr_inv = herm(gr_inv @ s)
        q = np.swapaxes(s_gr_inv @ s, -1, -2).reshape(-1, 2, cfg.n_s, 2, cfg.n_s)
        return gr_inv, s_gr_inv, q

    def expand(self, y: np.ndarray) -> np.ndarray:
        """Steering matrices F_bar = Q Y (R, n_r, n_r) of design coordinates ``y`` (R, d, n_r)."""
        return y if self.basis is None else self.basis @ y

    def restrict(self, f: np.ndarray) -> np.ndarray:
        """Design coordinates Q^H F (R, d, n_r) of ``f`` (R, n_r, n_r); exact for H_rl F, as H_rl Q Q^H = H_rl."""
        return f if self.basis is None else herm(self.basis) @ f

    def amplification(self, f_bar: np.ndarray) -> np.ndarray:
        """alpha meeting tr(F G_r F^H) = n_r p_r for ``f_bar`` (R, [k,] n_r or d, n_r): one G_r product per
        realization.  Q has orthonormal columns, so Y and Q Y give the same alpha."""
        fg = (f_bar.reshape(len(f_bar), -1, f_bar.shape[-1]) @ self.gr).reshape(f_bar.shape)
        return np.sqrt(self.budget / (fg * f_bar.conj()).real.sum(axis=(-2, -1)))

    def wiener(self, f: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form receive matrices R_l = alpha p_lbar (C G_l C^H + nu_l I)^-1 C H_lbar.

        C = H_rl F is the source-l end-to-end forward channel.  Also returns
        the right-hand sides p_lbar C H_lbar.  ``f`` (R, [k,] d, n_r), in
        design coordinates, may carry a candidate axis.  [H_r1 Q; H_r2 Q]
        multiplies the candidates side by side; C G_l C^H and C H_lbar are
        one product per receiver, whose n_s x n_s diagonal blocks are read.
        """
        size, n_s, n_r = len(f), self.cfg.n_s, self.cfg.n_r
        d = self.h_out.shape[-1]
        f_k = f.reshape(size, -1, d, n_r)                   # (R, k, d, n_r)
        count = f_k.shape[1]
        f_cat = f_k.swapaxes(1, 2).reshape(size, d, -1)     # [F_1 ... F_k]
        c = (self.h_out.reshape(size, 2 * n_s, d) @ f_cat).reshape(size, 2, n_s * count, n_r)  # rows (i, k) of C_l
        del f_cat
        e = np.einsum("rlikj->rklij", (c @ self.h_bar).reshape(size, 2, n_s, count, n_s))
        cgc = ((c @ self.g) @ herm(c)).reshape(size, 2, n_s, count, n_s, count)
        a = np.einsum("rlikjk->rklij", cgc) + self.nu_eye
        del c, cgc
        b = self.p_bar[:, None, None] * e
        r = alpha.reshape(size, count, 1, 1, 1) * np.linalg.solve(a, b)
        shape = f.shape[:-2] + (2, n_s, n_s)
        return r.reshape(shape), b.reshape(shape)

    def receive(self, f_bar: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(alpha, Wiener receive matrices, sum MSE) for unit-norm steering ``f_bar`` in design coordinates.

        With the receive matrices at their optimum the sum MSE reduces to
        n_s (p1 + p2) - sum_l Re tr(b_l^H R_l) / alpha.
        """
        alpha = self.amplification(f_bar)
        r, b = self.wiener(alpha[..., None, None] * f_bar, alpha)
        j = self.j_max - (b.conj() * r).sum(axis=(-3, -2, -1)).real / alpha
        return alpha, r, j

    def objective(self, f_bar: np.ndarray, alpha: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Analytic sum MSE of the design (f_bar, alpha, R_1, R_2), with ``f_bar`` (R, n_r, n_r) in full coordinates."""
        f = alpha[:, None, None] * f_bar
        b = herm(r) @ self.h
        cross = 2.0 * np.real(np.einsum("rij,rij->r", np.conj(self._w_f0(b)), f))
        e = b @ f[:, None]
        quad = sum(trace_quad(e[:, l], self.g[:, l]) + self.nu[l] * fro_sq(r[:, l]) for l in (0, 1))
        return self.j_max - cross / alpha + quad / alpha**2

    def _w_f0(self, b: np.ndarray) -> np.ndarray:
        """Desired-signal operator sum_l p_lbar H_rl^H R_l H_lbar^H, from B_l = R_l^H H_rl (or Q^H of it from B_l Q)."""
        return (herm(b) @ self.p_bar_h_bar_h).sum(axis=1)


class RelaySystem:
    """Relay stationarity operator of a slot problem for fixed receive matrices, and its inverse.

    For receive matrices R_l, with B_l = R_l^H H_rl, W_l = B_l^H B_l and
    c = w_f / (n_r p_r), the full operator is K(F) = sum_l W_l F G_l + c F G_r
    and the relay step solves K(F_bar) = W_f0, which minimizes the sum MSE
    over an unnormalized F_bar.  It is solved in design coordinates
    F_bar = Q Y (see :class:`SlotProblem`): Q^H K(Q Y) = Q^H W_f0, whose
    solution is the full one, since (I - Q Q^H) K(F) = c (I - Q Q^H) F G_r
    and W_f0 lies in range(Q).  Here ``b`` holds B_l Q (n_s x d) and the
    operator, also written K, acts on d x n_r matrices.  Since
    G_l = G_r - S_l S_l^H (S_1 = sqrt(p1) H_1r, S_2 = sqrt(p2) H_2r of the
    previous slot), with A = sum_l (B_l Q)^H (B_l Q) + c I (d x d)

        K(X) = A X G_r - sum_l (B_l Q)^H (B_l Q) X S_l S_l^H,

    a Sylvester operator with a correction of rank 2 n_s^2 (Simoncini,
    "Computational methods for linear matrix equations", SIAM Review 58(3),
    2016).  :meth:`solve` inverts it by the Sherman-Morrison-Woodbury
    identity: with Z_l = B_l Q X S_l (n_s x n_s),
    X = A^-1 (V + sum_l (B_l Q)^H Z_l S_l^H) G_r^-1 for right-hand side V,
    and the Z_l solve the 2 n_s^2 x 2 n_s^2 capacitance system

        Z_k - sum_l (B_k Q A^-1 Q^H B_l^H) Z_l (S_l^H G_r^-1 S_k) = B_k Q A^-1 V G_r^-1 S_k.

    Per system that is one d x d inverse (of A) and one of the
    capacitance matrix; the slot's G_r^-1 parts come from
    :attr:`SlotProblem.solve_factors`.  K is self-adjoint in the Frobenius
    inner product (W_l, G_l and G_r are Hermitian), and so is K^-1.
    """

    def __init__(self, problem: SlotProblem, r: np.ndarray):
        self.problem = problem
        self.r = r
        self.b = herm(r) @ problem.h_out              # B_l Q, (R, 2, n_s, d)
        self.c = _w_f(problem.nu, r) / problem.budget

    w0 = cached_property(lambda self: self.problem._w_f0(self.b))  # Q^H W_f0, (R, d, n_r); not needed for residual

    def residual(self, x: np.ndarray) -> np.ndarray:
        """K(X) - W_f0 for a stack of d x n_r matrices.

        At a unit-norm steering matrix whose receive matrices are its Wiener
        solution, this is the gradient of the receive-eliminated sum MSE (by
        the envelope theorem; conjugate-gradient convention
        dJ = 2 Re tr(grad^H dF)).
        """
        return self.apply(x[:, None], self.problem.p_bar_h_bar_h[:, :, :, None])[:, 0]

    def apply(self, x: np.ndarray, target=0.0) -> np.ndarray:
        """sum_l B_l^H (B_l X G_l - T_l) + c X G_r for X (R, count, d, n_r), never forming W_l:
        K(X) at T = 0, K(X) - W_f0 at T_l = p_lbar H_lbar^H, given as (R, 2, n_s, 1, n_r).
        [B_1; B_2] multiplies the X side by side, and [B_1^H B_2^H] sums over l."""
        p = self.problem
        size, count, d, n_r = x.shape
        b = self.b.reshape(size, -1, d)                     # [B_1; B_2], (R, 2 n_s, d)
        bx = (b @ x.swapaxes(1, 2).reshape(size, d, count * n_r)).reshape(size, 2, -1, n_r)
        inner = (bx @ p.g).reshape(size, 2, -1, count, n_r) - target
        out = (herm(b) @ inner.reshape(size, b.shape[1], -1)).reshape(size, d, count, n_r).swapaxes(1, 2)
        return out + self.c[:, None, None, None] * (x.reshape(size, -1, n_r) @ p.gr).reshape(x.shape)

    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A^-1 and the two thin factors of the rank-2 n_s^2 correction.

        ``into_z`` maps a row-major flattened right-hand side V to the
        capacitance right-hand sides B_k Q A^-1 V G_r^-1 S_k, rows (k, a, i) for
        entry (a, i) of Z_k; ``from_z`` maps those, through the inverse
        capacitance matrix, to the correction sum_l (A^-1 Q^H B_l^H) Z_l (S_l^H G_r^-1).
        """
        size, _, n_s, d = self.b.shape
        n_r = self.problem.cfg.n_r
        _, s_gr_inv, q = self.problem.solve_factors
        a_inv = np.linalg.inv((herm(self.b) @ self.b).sum(axis=1) + self.c[:, None, None] * np.eye(d))
        bm = self.b @ a_inv[:, None]                      # B_k Q A^-1, (R, 2, n_s, d)
        coupling = bm.reshape(size, 2 * n_s, d) @ herm(self.b.reshape(size, 2 * n_s, d))
        # rows (k, a, i) and columns (l, b, j) of Z_k[a, i] and Z_l[b, j]
        coupling = coupling.reshape(size, 2, n_s, 1, 2, n_s, 1) * q[:, :, None, :, :, None, :]
        capacitance_inv = np.linalg.inv(np.eye(2 * n_s * n_s) - coupling.reshape(size, 2 * n_s * n_s, -1))
        f = s_gr_inv.reshape(size, 2, n_s, n_r)          # S_l^H G_r^-1
        into_z = bm.transpose(0, 3, 1, 2)[:, :, None, :, :, None] \
            * np.conj(f).transpose(0, 3, 1, 2)[:, None, :, :, None, :]
        out_of_z = np.conj(bm)[:, :, :, None, :, None] * f[:, :, None, :, None, :]
        from_z = np.swapaxes(capacitance_inv, -1, -2) @ out_of_z.reshape(size, 2 * n_s * n_s, -1)
        return a_inv, into_z.reshape(size, d * n_r, -1), from_z

    def solve(self, y: np.ndarray) -> np.ndarray:
        """K^-1 applied to the right-hand sides ``y``, (R, count, d, n_r).

        Every product runs over the realization axis only: A^-1 multiplies
        the right-hand sides side by side, G_r^-1 stacked.  The Woodbury
        correction is formed last and the rest is added into its buffer, so
        besides ``y`` the solve holds at most two arrays of its size at a time.
        """
        size, count, d, n_r = y.shape
        a_inv, into_z, from_z = self._factors
        v = a_inv @ y.swapaxes(1, 2).reshape(size, d, count * n_r)
        v = (v.reshape(size, d * count, n_r) @ self.problem.solve_factors[0]).reshape(size, d, count, n_r)
        x = (y.reshape(size, count, d * n_r) @ into_z @ from_z).reshape(size, count, d, n_r)
        return np.add(x, v.swapaxes(1, 2), out=x)

    def condition(self, index: int) -> float:
        """Estimate of ||K||_1 ||K^-1||_1, the 1-norm condition of realization ``index``'s K.

        Hager's estimator (scipy's onenormest at t=1, which draws no random
        numbers) on :meth:`apply` and :meth:`solve`, each its own adjoint.
        """
        from scipy.sparse.linalg import LinearOperator, onenormest
        one = RelaySystem(self.problem.subset([index]), self.r[[index]])
        d, n_r = self.b.shape[-1], self.problem.cfg.n_r

        def norm(operator):
            def columns(x):  # each column a row-major flattened d x n_r matrix
                return operator(x.T.reshape(1, -1, d, n_r)).reshape(-1, d * n_r).T.reshape(x.shape)
            return onenormest(LinearOperator((d * n_r,) * 2, columns, columns, columns, complex, columns), t=1)

        return float(norm(one.apply) * norm(one.solve))

    def solve_stationarity(self, rhs: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The relay step K^-1 W_f0, and K^-1 applied to k further right-hand sides, in one solve.

        ``rhs`` (R, 1 + k, d, n_r) holds the further right-hand sides after
        a first entry that is overwritten with W_f0, so that they are solved
        where they were built, never copied.  A step that misses
        ||K(X) - W_f0|| <= 1e-10 ||W_f0|| is singular to working tolerance if
        its :meth:`condition` exceeds ``CONDITION_LIMIT``, else refined once,
        X -= K^-1 (K(X) - W_f0); :class:`SingularSystemError` is raised if it
        is singular or still misses.  Returns (steps, K^-1 of the k others).
        """
        w0 = self.w0
        if not np.all(w0.reshape(len(w0), -1).any(axis=1)):
            raise DegenerateObjectiveError("desired-signal operator w_f0 is zero")
        if rhs is None:
            rhs = w0[:, None]
        else:
            rhs[:, 0] = w0
        x = self.solve(rhs)
        raw, bound = x[:, 0], _SOLVE_RESIDUAL_LIMIT * np.linalg.norm(w0, axis=(1, 2))
        residual = self.residual(raw)
        miss = ~(np.linalg.norm(residual, axis=(1, 2)) <= bound)
        if miss.any():
            condition = max(self.condition(k) for k in np.nonzero(miss)[0])
            if not condition <= CONDITION_LIMIT:
                raise SingularSystemError(condition)
            raw[miss] -= self.solve(residual[:, None])[miss, 0]
            if not np.all(np.linalg.norm(self.residual(raw), axis=(1, 2)) <= bound):
                raise SingularSystemError(condition, "residual target unreachable")
        return raw, x[:, 1:]


def _unit(f: np.ndarray) -> np.ndarray:
    """Each matrix of a stack scaled to unit Frobenius norm."""
    return f / np.sqrt((f * f.conj()).real.sum(axis=(-2, -1), keepdims=True))


def _newton_directions(problem: SlotProblem, system: RelaySystem, f_bar, alpha, r) -> tuple[np.ndarray, np.ndarray]:
    """The receive Hessian blocks A_l = C_l G_l C_l^H + nu_l / alpha^2 I (C_l = H_rl F_bar) and the
    right-hand sides of the model's relay solve (R, 1 + 4 n_s^2, d, n_r), for ``f_bar`` in design coordinates.

    After an entry left for W_f0 (see :meth:`RelaySystem.solve_stationarity`)
    they hold the matrices B e_k for the unit receive perturbations e_k: the
    change of K(F_bar) - W_f0 when R_l moves along e_k, each a sum of outer
    products laid out as [row, column] of the d x n_r matrix.  The outer
    products are freed on return, before the solve.
    """
    size, (d, n_r), n_s = len(f_bar), f_bar.shape[-2:], problem.cfg.n_s
    c = (problem.h_out.reshape(size, 2 * n_s, d) @ f_bar).reshape(size, 2, n_s, n_r)  # C_l = H_rl F_bar
    cg = c @ problem.g                                # C_l G_l
    a = np.einsum("rlij,rlmj->rlim", cg, c.conj()) + alpha[:, None, None, None] ** -2 * problem.nu_eye  # A_l
    d1 = np.einsum("rlji,rljm->rlim", r.conj(), cg) - problem.p_bar_h_bar_h  # R_l^H C_l G_l - p_lbar H_lbar^H
    o1 = problem.h_conj * d1[:, :, None, :, None, :]
    o2 = np.conj(system.b)[:, :, None, :, :, None] * cg[:, :, :, None, None, :]
    fg = (f_bar @ problem.gr)[:, None, None, None] / problem.budget
    dw = (2.0 * problem.nu[:, None, None] * r)[..., None, None]
    rhs = np.empty((size, 1 + 4 * n_s * n_s, d, n_r), dtype=complex)
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
    K^-1 is applied by the structured :meth:`RelaySystem.solve`, to the
    4 n_s^2 rows of B together with W_f0 (the plain step), so the model
    also carries the plain step ``raw``.  Directions along F_bar and
    i F_bar, which leave J unchanged, are projected out of the low-rank
    part.  Receive-side quantities are carried in real coordinates (entry
    (l, b, c) of R_l, real then imaginary part), relay-side ones as
    row-major flattened d x n_r matrices of design coordinates.  The
    curvature B^T u is read from the direction matrices B e_k as
    Re <B e_k, u>, in one product.
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
        self._b = b.view(np.float64).swapaxes(1, 2)         # (R, 2 d n_r, 4 n_s^2)
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
        """Receive coordinates of B^T u for flattened relay directions u (R, k, d n_r): one real product."""
        return np.ascontiguousarray(u).view(np.float64) @ self._b

    def steps(self, u: np.ndarray) -> np.ndarray:
        """Steps -((1 - sigma) H + sigma K)^-1 grad for u = K^-1 grad (R, d, n_r).

        Returns (R, c, d, n_r), one step per blend system ``blend`` (R, c)
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
    ``_CHORD_STEPS`` steps that reuse the same model.  The result is kept
    only if it does not raise J by more than rounding.
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
    new_f, new_alpha, new_r, new_j = candidates[rows, best], c_alpha[rows, best], c_r[rows, best], values[rows, best]
    plain = best == len(_SIGMA_FACTORS)
    pick = np.minimum(best, len(_SIGMA_FACTORS) - 1)
    weight = np.where(plain, 1.0, weights[rows, pick])
    # chords: the winner's system only
    model.keep, model.blend = (1.0 - weight)[:, None], model.blended(1.0 - weights[rows, pick][:, None])
    for _ in range(_CHORD_STEPS):
        u = model.system.solve(RelaySystem(problem, new_r).residual(new_f)[:, None])[:, 0]
        trial = _unit(new_f + model.steps(u)[:, 0])
        t_alpha, t_r, t_j = problem.receive(trial)
        better = t_j <= new_j + slack
        new_f[better], new_alpha[better], new_r[better], new_j[better] = \
            trial[better], t_alpha[better], t_r[better], t_j[better]
    sigma = np.where(plain, np.minimum(4.0 * sigma, 1.0), weight)
    moved = new_j <= j + slack
    f_bar[moved], alpha[moved], r[moved], j[moved] = new_f[moved], new_alpha[moved], new_r[moved], new_j[moved]
    return f_bar, alpha, r, j, sigma


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
    followed by ``_CHORD_STEPS`` further steps from the winner that reuse the
    same model.  A step is taken only if it does not raise J by more than
    rounding (``_TIE_RTOL`` relative), so the trace never increases beyond
    that; the plain step always qualifies in exact arithmetic.  A
    realization stops once its objective changes by less than
    ``cfg.convergence_tol`` (relative) in one iteration, so a tolerance of 0
    always runs ``cfg.max_iterations``; finished realizations drop out of the
    batch.  With ``pin_receive`` the receive matrices stay at identity and
    the relay step, exact for fixed receive matrices, is the whole design.
    The iterations run in design coordinates (see :class:`SlotProblem`);
    the returned steering matrices are full ones, F_bar = Q Y.
    """
    cfg = problem.cfg
    n_r, n_s = cfg.n_r, cfg.n_s
    size = problem.h.shape[0]
    tol = cfg.convergence_tol
    r = np.broadcast_to(np.eye(n_s, dtype=complex), (size, 2, n_s, n_s)).copy()
    f_bar = np.broadcast_to(np.eye(n_r) / math.sqrt(n_r), (size, n_r, n_r)).astype(complex)
    j_trace = np.full((size, cfg.max_iterations + 1), np.nan)
    j_trace[:, 0] = problem.objective(f_bar, problem.amplification(f_bar), r)

    f_bar = _unit(RelaySystem(problem, r).solve_stationarity()[0])
    if pin_receive:
        # Later relay steps repeat this one exactly: the trace is flat after it.
        f_bar = problem.expand(f_bar)
        alpha = problem.amplification(f_bar)
        j = problem.objective(f_bar, alpha, r)
        used = 1 if cfg.max_iterations == 1 else (2 if tol > 0 else cfg.max_iterations)
        j_trace[:, 1:used + 1] = j[:, None]
        return BatchDesign(f_bar, alpha, r, j, np.full(size, used), j_trace)
    alpha, r, j = problem.receive(f_bar)
    j_trace[:, 1] = j

    out = BatchDesign(f_bar.copy(), alpha.copy(), r.copy(), j.copy(),
                      np.full(size, cfg.max_iterations), j_trace)
    full, active = problem, np.arange(size)
    done = np.abs(j - j_trace[:, 0]) < tol * np.maximum(1.0, np.abs(j_trace[:, 0]))
    sigma = np.full(size, _SIGMA_START)
    for iteration in range(2, cfg.max_iterations + 1):
        if np.any(done):
            finished = active[done]
            out.f_bar[finished], out.alpha[finished] = f_bar[done], alpha[done]
            out.r[finished], out.j[finished] = r[done], j[done]
            out.iterations_used[finished] = iteration - 1
            keep = ~done
            if not np.any(keep):
                break
            active, problem = active[keep], problem.subset(keep)
            f_bar, alpha, r, j, sigma = f_bar[keep], alpha[keep], r[keep], j[keep], sigma[keep]
        j_before = j.copy()
        f_bar, alpha, r, j, sigma = _accelerated_iteration(problem, f_bar, alpha, r, j, sigma)
        done = np.abs(j - j_before) < tol * np.maximum(1.0, np.abs(j_before))
        out.j_trace[active, iteration] = j
    else:
        out.f_bar[active], out.alpha[active], out.r[active], out.j[active] = f_bar, alpha, r, j
    out.f_bar = full.expand(out.f_bar)
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
    problem = SlotProblem.single(ch_t, ch_prev, g_c, cfg)
    return design_slot_batch(problem, pin_receive).solution(0, cfg)
