"""Per-slot MMSE relay and receive beamforming solvers.

The relay forwards with F = alpha * F_bar, where F_bar carries the steering
directions (kept at unit Frobenius norm) and alpha the power amplification;
receivers estimate with (1/alpha) R_l^H.  Each subproblem has a closed-form
solution:

* relay step: the stationarity system
      W_f1 Fb G_1 + W_f2 Fb G_2 + w_f / (n_r pr) * Fb G_r = W_f0
  is solved in its structured form (:class:`RelaySystem`: a Sylvester
  operator plus a rank-2 n_s^2 correction, inverted by the Woodbury
  identity at O(n_r^3) per system, never as the n_r^2 x n_r^2 Kronecker
  system; a step that misses its residual check is singular when a
  condition estimate of the operator says so, and is otherwise refined
  once); the solution is renormalized to unit Frobenius norm with alpha
  restored from the transmit power constraint tr(F G_r F^H) = n_r pr (the
  physical F is invariant to that rescaling);
* receive step: per-source regularized Wiener inverse.

Both steps and the sum MSE exist once, batched over realizations, in
:class:`SlotProblem` and :class:`RelaySystem`; the per-realization functions
(:func:`build_slot_operators`, :func:`solve_relay_beamformer`, ...) call them
with a batch of one.

Alternating the two steps never increases the sum MSE, because each solves
its subproblem exactly and the receive update absorbs the scaling
convention, but it converges slowly: at paper dimensions it is typically
still 0.2-20% above its limit after 30 iterations.  The joint design
(:func:`design_slot_batch`, and :func:`alternate_optimize` for one
realization) therefore takes the plain step only as its first iteration.
Afterwards it keeps the receive matrices at their Wiener optimum and
minimizes the resulting function of F_bar alone with damped Newton steps
(see :class:`_NewtonModel`); a step is accepted only if it lowers the sum
MSE (up to rounding), and the plain step is always among the candidates, so
the objective trace stays non-increasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

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
    source-loopback power picked up by the receive matrices.
    """

    problem: SlotProblem
    system: RelaySystem

    g1 = property(lambda self: self.problem.g[0, 0])
    g2 = property(lambda self: self.problem.g[0, 1])
    gr = property(lambda self: self.problem.gr[0])
    w_f0 = property(lambda self: self.system.w0[0])
    w_f1 = property(lambda self: self.system.w[0, 0])
    w_f2 = property(lambda self: self.system.w[0, 1])
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
    raw = ops.system.solve_stationarity()[0][0]
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


def _receive_coords(z: np.ndarray) -> np.ndarray:
    """Real coordinates of receive-matrix pairs (..., 2, n_s, n_s).

    Entry (l, i, j) of R_l contributes its real then its imaginary part; this
    basis is orthonormal for the real inner product Re tr(A^H B).
    """
    return np.ascontiguousarray(z).reshape(z.shape[:-3] + (-1,)).view(np.float64)


def _w_f(nu: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Noise and source-loopback power sum_l nu_l ||R_l||_F^2 of receive pairs (..., 2, n_s, n_s)."""
    return (nu[:, None, None] * (r * r.conj()).real).sum(axis=(-3, -2, -1))


def _receive_basis(n_s: int) -> np.ndarray:
    """The unit receive-matrix pairs behind :func:`_receive_coords`, (4 n_s^2, 2, n_s, n_s)."""
    eye = np.eye(2 * n_s * n_s).reshape(-1, 2, n_s, n_s)
    return np.stack([eye, 1j * eye], axis=1).reshape(-1, 2, n_s, n_s)


@dataclass
class BatchDesign:
    """Per-slot designs of a stack of realizations (leading axis).

    ``j_trace`` has one row per iteration (row 0 is the projected identity
    start); rows after a realization's exit are NaN.
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
            j_trace=tuple(float(v) for v in self.j_trace[: used + 1, index]),
        )


@dataclass(eq=False)
class SlotProblem:
    """One slot's design problem for a stack of realizations.

    The fields after ``cfg`` are the per-realization inputs, realization axis
    first.  Every other array is derived from them, so :meth:`subset`, which
    restricts the fields and derives the rest again, cannot leave one at the
    full batch.  Derived arrays carry, where the two receivers differ, a
    receiver axis l (0: source 1, 1: source 2) second: ``h`` holds H_r1, H_r2
    (n_s x n_r), ``h_bar`` the previous slot's inbound channel of the *other*
    source (H_2r for source 1, H_1r for source 2), ``g`` the relay-input
    covariances G_1, G_2 seen by each estimate and ``gr`` the one of the
    transmit power.
    """

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
        self.receive_basis = _receive_basis(cfg.n_s)
        self.budget = n_r * cfg.pr
        self.j_max = cfg.n_s * (cfg.p1 + cfg.p2)

    @classmethod
    def single(cls, ch_t: TimeSlotChannels, ch_prev: TimeSlotChannels,
               g_c: ResidualSICovariance, cfg: SystemConfig) -> "SlotProblem":
        """Batch of one realization."""
        return cls(cfg, ch_t.h_r1[None], ch_t.h_r2[None], ch_prev.h_1r[None],
                   ch_prev.h_2r[None], np.array([g_c.scale]))

    def subset(self, keep: np.ndarray) -> "SlotProblem":
        """The same problem restricted to the realizations ``keep``."""
        return replace(self, **{f.name: getattr(self, f.name)[keep] for f in fields(self)[1:]})

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

    def _expand(self, a: np.ndarray, extra: int) -> np.ndarray:
        """``a`` with ``extra`` unit axes after the realization axis."""
        return a.reshape(a.shape[:1] + (1,) * extra + a.shape[1:])

    def amplification(self, f_bar: np.ndarray) -> np.ndarray:
        """alpha meeting the power budget tr(F G_r F^H) = n_r p_r."""
        gr = self._expand(self.gr, f_bar.ndim - 3)
        # the same expression as the per-realization code, so both round alike
        return np.sqrt(self.budget / (f_bar @ gr @ herm(f_bar)).trace(axis1=-2, axis2=-1).real)

    def wiener(self, f: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form receive matrices R_l = alpha p_lbar (C G_l C^H + nu_l I)^-1 C H_lbar.

        C = H_rl F is the source-l end-to-end forward channel.  Also returns
        the right-hand sides p_lbar C H_lbar.  ``f`` may carry extra axes
        after the realization axis.
        """
        extra = f.ndim - 3
        h, g, h_bar = (self._expand(a, extra) for a in (self.h, self.g, self.h_bar))
        c = h @ f[..., None, :, :]
        a = c @ g @ herm(c) + self.nu_eye
        b = self.p_bar[:, None, None] * (c @ h_bar)
        return alpha[..., None, None, None] * np.linalg.solve(a, b), b

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

    def _w_f0(self, b: np.ndarray) -> np.ndarray:
        """Desired-signal operator sum_l p_lbar H_rl^H R_l H_lbar^H, from B_l = R_l^H H_rl."""
        return (herm(b) @ self.p_bar_h_bar_h).sum(axis=1)


class RelaySystem:
    """Relay stationarity operator of a slot problem for fixed receive matrices, and its inverse.

    For receive matrices R_l, with B_l = R_l^H H_rl, W_l = B_l^H B_l and
    c = w_f / (n_r p_r), the operator is K(X) = sum_l W_l X G_l + c X G_r and
    the relay step solves K(F_bar) = W_f0, which minimizes the sum MSE over
    an unnormalized F_bar.  Since G_l = G_r - S_l S_l^H
    (S_1 = sqrt(p1) H_1r, S_2 = sqrt(p2) H_2r of the previous slot), with
    M = W_1 + W_2 + c I

        K(X) = M X G_r - sum_l B_l^H (B_l X S_l) S_l^H,

    a Sylvester operator with a correction of rank 2 n_s^2 (Simoncini,
    "Computational methods for linear matrix equations", SIAM Review 58(3),
    2016).  :meth:`solve` inverts it by the Sherman-Morrison-Woodbury
    identity: with Z_l = B_l X S_l (n_s x n_s),
    X = M^-1 (Y + sum_l B_l^H Z_l S_l^H) G_r^-1, and the Z_l solve the
    2 n_s^2 x 2 n_s^2 capacitance system

        Z_k - sum_l (B_k M^-1 B_l^H) Z_l (S_l^H G_r^-1 S_k) = B_k M^-1 Y G_r^-1 S_k.

    Per system that is one n_r x n_r inverse (of M) and one of the
    capacitance matrix; the slot's G_r^-1 parts come from
    :attr:`SlotProblem.solve_factors`.  K is self-adjoint in the Frobenius
    inner product (W_l, G_l and G_r are Hermitian), and so is K^-1.
    """

    def __init__(self, problem: SlotProblem, r: np.ndarray):
        self.problem = problem
        self.r = r
        self.b = herm(r) @ problem.h                  # B_l, (R, 2, n_s, n_r)
        self.w = herm(self.b) @ self.b                # W_l
        self.w0 = problem._w_f0(self.b)
        self.c = _w_f(problem.nu, r) / problem.budget

    def apply(self, x: np.ndarray) -> np.ndarray:
        """K applied to ``x``, (R, count, n_r, n_r)."""
        p = self.problem
        return (self.w[:, None] @ x[:, :, None] @ p.g[:, None]).sum(axis=2) \
            + self.c[:, None, None, None] * (x @ p.gr[:, None])

    def residual(self, x: np.ndarray) -> np.ndarray:
        """K(X) - W_f0 for a stack of n_r x n_r matrices.

        At a unit-norm steering matrix whose receive matrices are its Wiener
        solution, this is the gradient of the receive-eliminated sum MSE (by
        the envelope theorem; conjugate-gradient convention
        dJ = 2 Re tr(grad^H dF)).
        """
        return self.apply(x[:, None])[:, 0] - self.w0

    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """M^-1 and the two thin factors of the rank-2 n_s^2 correction.

        ``into_z`` maps a row-major flattened right-hand side Y to the
        capacitance right-hand sides B_k M^-1 Y G_r^-1 S_k, rows (k, a, i) for
        entry (a, i) of Z_k; ``from_z`` maps those, through the inverse
        capacitance matrix, to the correction sum_l (M^-1 B_l^H) Z_l (S_l^H G_r^-1).
        """
        size, _, n_s, n_r = self.b.shape
        _, s_gr_inv, q = self.problem.solve_factors
        m_inv = np.linalg.inv(self.w.sum(axis=1) + self.c[:, None, None] * np.eye(n_r))
        bm = self.b @ m_inv[:, None]                      # B_k M^-1, (R, 2, n_s, n_r)
        coupling = bm.reshape(size, 2 * n_s, n_r) @ herm(self.b.reshape(size, 2 * n_s, n_r))
        # rows (k, a, i) and columns (l, b, j) of Z_k[a, i] and Z_l[b, j]
        coupling = coupling.reshape(size, 2, n_s, 1, 2, n_s, 1) * q[:, :, None, :, :, None, :]
        capacitance_inv = np.linalg.inv(np.eye(2 * n_s * n_s) - coupling.reshape(size, 2 * n_s * n_s, -1))
        f = s_gr_inv.reshape(size, 2, n_s, n_r)          # S_l^H G_r^-1
        into_z = bm.transpose(0, 3, 1, 2)[:, :, None, :, :, None] \
            * np.conj(f).transpose(0, 3, 1, 2)[:, None, :, :, None, :]
        out_of_z = np.conj(bm)[:, :, :, None, :, None] * f[:, :, None, :, None, :]
        from_z = np.swapaxes(capacitance_inv, -1, -2) @ out_of_z.reshape(size, 2 * n_s * n_s, -1)
        return m_inv, into_z.reshape(size, n_r * n_r, -1), from_z

    def solve(self, y: np.ndarray) -> np.ndarray:
        """K^-1 applied to the right-hand sides ``y``, (R, count, n_r, n_r).

        Every product runs over the realization axis only: M^-1 multiplies
        the right-hand sides side by side, G_r^-1 stacked.
        """
        size, count, n_r, _ = y.shape
        m_inv, into_z, from_z = self._factors
        v = m_inv @ y.swapaxes(1, 2).reshape(size, n_r, count * n_r)
        v = (v.reshape(size, n_r * count, n_r) @ self.problem.solve_factors[0]).reshape(size, n_r, count, n_r)
        correction = y.reshape(size, count, n_r * n_r) @ into_z @ from_z
        return v.swapaxes(1, 2) + correction.reshape(size, count, n_r, n_r)

    def condition(self, index: int) -> float:
        """Estimate of ||K||_1 ||K^-1||_1, the 1-norm condition of realization ``index``'s K.

        Hager's estimator (scipy's onenormest at t=1, which draws no random
        numbers) on :meth:`apply` and :meth:`solve`, each its own adjoint.
        """
        from scipy.sparse.linalg import LinearOperator, onenormest
        one = RelaySystem(self.problem.subset([index]), self.r[[index]])
        n_r = self.w0.shape[-1]

        def norm(operator):
            def columns(x):  # each column a row-major flattened n_r x n_r matrix
                return operator(x.T.reshape(1, -1, n_r, n_r)).reshape(-1, n_r * n_r).T.reshape(x.shape)
            return onenormest(LinearOperator((n_r * n_r,) * 2, columns, columns, columns, complex, columns), t=1)

        return float(norm(one.apply) * norm(one.solve))

    def solve_stationarity(self, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The relay step K^-1 W_f0, and K^-1 applied to ``rows`` (R, k, n_r, n_r), in one solve.

        A step that misses ||K(X) - W_f0|| <= 1e-10 ||W_f0|| is singular to
        working tolerance if its :meth:`condition` exceeds ``CONDITION_LIMIT``,
        else refined once, X -= K^-1 (K(X) - W_f0); :class:`SingularSystemError`
        is raised if it is singular or still misses.  Returns (steps, rows).
        """
        w0 = self.w0
        if not np.all(w0.reshape(len(w0), -1).any(axis=1)):
            raise DegenerateObjectiveError("desired-signal operator w_f0 is zero")
        x = self.solve(w0[:, None] if rows is None else np.concatenate([w0[:, None], rows], axis=1))
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
    Those systems are inverted once, for the candidate weights ``weights``
    (R, c), and reused by every step the model takes.  K^-1 is applied by
    the structured :meth:`RelaySystem.solve`, to the 4 n_s^2 rows of B
    together with W_f0 (the plain step), so the model also carries the plain
    step ``raw``.  Directions along F_bar and i F_bar, which leave J
    unchanged, are projected out of the low-rank part.
    Receive-side quantities are carried in the real coordinates of
    :func:`_receive_coords`, relay-side ones as row-major flattened
    n_r x n_r matrices.
    """

    def __init__(self, problem: SlotProblem, system: RelaySystem, f_bar, alpha, r, weights):
        size, n_r, n_s = len(f_bar), f_bar.shape[-1], problem.cfg.n_s
        self.system = system
        self.n_s = n_s
        c = problem.h @ f_bar[:, None]                    # C_l = H_rl F_bar
        cg = c @ problem.g                                # C_l G_l
        d1 = herm(r) @ cg - problem.p_bar_h_bar_h         # R_l^H C_l G_l - p_lbar H_lbar^H
        fgr = f_bar @ problem.gr

        # The matrices B e_k for the unit receive perturbations e_k: the
        # change of K(F_bar) - W_f0 when R_l moves along e_k, each a sum of
        # outer products laid out as [row, column] of the n_r x n_r matrix.
        o1 = problem.h_conj * d1[:, :, None, :, None, :]
        o2 = np.conj(system.b)[:, :, None, :, :, None] * cg[:, :, :, None, None, :]
        fg = fgr[:, None, None, None] / problem.budget
        dw = (2.0 * problem.nu[:, None, None] * r)[..., None, None]
        b = np.empty(o1.shape[:4] + (2,) + o1.shape[4:], dtype=complex)
        b[..., 0, :, :] = o1 + o2 + dw.real * fg
        b[..., 1, :, :] = 1j * (o1 - o2) + dw.imag * fg
        b = b.reshape(size, -1, n_r, n_r)
        self.raw, k_inv_b = system.solve_stationarity(b)

        # Rows of K^-1 B without their K-orthogonal components along F_bar
        # and i F_bar.
        x = f_bar.reshape(size, -1)
        kx = system.apply(f_bar[:, None])[:, 0].reshape(size, -1)
        kappa = (x.conj() * kx).sum(axis=1).real
        b = b.reshape(size, -1, n_r * n_r)
        along = (b @ x.conj()[..., None]) / kappa[:, None, None]
        self.w = k_inv_b.reshape(b.shape) - along * x[:, None]

        # Receive-gradient change along relay directions U:
        # H U P1 + P2 U^H P3 + nu dg R, with dg = 2 Re tr(U G_r F^H) / (n_r p_r).
        a = cg @ herm(c) + alpha[:, None, None, None] ** -2 * problem.nu_eye
        self._t1 = np.einsum("rlia,rljb->rablij", problem.h, np.conj(d1)).reshape(size, x.shape[-1], -1)
        self._t2 = np.einsum("rlia,rlbj->rbalij", cg, herm(system.b)).reshape(size, x.shape[-1], -1)
        self._gx = np.conj(fgr).reshape(size, -1, 1) * (2.0 / problem.budget)
        self._nu_r = (problem.nu[:, None, None] * r).reshape(size, 1, -1)
        d = _receive_coords(np.einsum("rlab,klbc->rklac", a, problem.receive_basis))
        m = self._mixed(self.w)
        m = 0.5 * (m + np.swapaxes(m, 1, 2))
        self.keep = 1.0 - weights
        self.blend_inv = np.linalg.inv(d[:, None] - self.keep[..., None, None] * m[:, None])

    def _mixed(self, u: np.ndarray) -> np.ndarray:
        """Receive coordinates of B^T u for flattened relay directions u, (R, k, n_r^2)."""
        out = u @ self._t1 + np.conj(u) @ self._t2 + np.real(u @ self._gx) * self._nu_r
        return _receive_coords(out.reshape(*u.shape[:2], 2, self.n_s, self.n_s))

    def steps(self, u: np.ndarray, choice: np.ndarray | None = None) -> np.ndarray:
        """Steps -((1 - sigma) H + sigma K)^-1 grad for u = K^-1 grad, (R, n_r, n_r).

        Returns (R, c, n_r, n_r), one step per candidate weight sigma; with
        ``choice`` (R,), (R, 1, n_r, n_r) for candidate ``choice`` of each
        realization, where choice c (one past the weights) means sigma = 1,
        the plain alternation step.
        """
        keep, blend_inv = self.keep, self.blend_inv
        if choice is not None:
            rows = np.arange(len(u))
            plain = choice == keep.shape[1]
            pick = np.where(plain, 0, choice)
            keep = np.where(plain, 0.0, keep[rows, pick])[:, None]
            blend_inv = blend_inv[rows, pick][:, None]
        u_vec = u.reshape(len(u), 1, -1)
        v = (blend_inv @ self._mixed(u_vec)[..., None])[..., 0]
        return -(u_vec + keep[..., None] * (v @ self.w)).reshape(*keep.shape, *u.shape[1:])


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
    steps = model.steps(f_bar - model.raw)
    candidates = np.concatenate([_unit(f_bar[:, None] + steps), _unit(model.raw)[:, None]], axis=1)
    c_alpha, c_r, values = problem.receive(candidates)
    values[~np.isfinite(values)] = np.inf
    # Values within rounding of the best count as ties and go to the most
    # Newton-like candidate, so the exit point does not hinge on rounding.
    slack = _TIE_RTOL * np.maximum(1.0, np.abs(j))
    best = np.argmax(values <= (values.min(axis=1) + slack)[:, None], axis=1)
    rows = np.arange(len(best))
    new_f, new_alpha, new_r, new_j = candidates[rows, best], c_alpha[rows, best], c_r[rows, best], values[rows, best]
    plain = best == len(_SIGMA_FACTORS)
    weight = np.where(plain, 1.0, weights[rows, np.minimum(best, len(_SIGMA_FACTORS) - 1)])
    for _ in range(_CHORD_STEPS):
        u = model.system.solve(RelaySystem(problem, new_r).residual(new_f)[:, None])[:, 0]
        trial = _unit(new_f + model.steps(u, best)[:, 0])
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
    """
    cfg = problem.cfg
    n_r, n_s = cfg.n_r, cfg.n_s
    size = problem.h.shape[0]
    tol = cfg.convergence_tol
    r = np.broadcast_to(np.eye(n_s, dtype=complex), (size, 2, n_s, n_s)).copy()
    f_bar = np.broadcast_to(np.eye(n_r) / math.sqrt(n_r), (size, n_r, n_r)).astype(complex)
    j_trace = np.full((cfg.max_iterations + 1, size), np.nan)
    j_trace[0] = problem.objective(f_bar, problem.amplification(f_bar), r)

    f_bar = _unit(RelaySystem(problem, r).solve_stationarity()[0])
    if pin_receive:
        # Later relay steps repeat this one exactly: the trace is flat after it.
        alpha = problem.amplification(f_bar)
        j = problem.objective(f_bar, alpha, r)
        used = 1 if cfg.max_iterations == 1 else (2 if tol > 0 else cfg.max_iterations)
        j_trace[1:used + 1] = j
        return BatchDesign(f_bar, alpha, r, j, np.full(size, used), j_trace)
    alpha, r, j = problem.receive(f_bar)
    j_trace[1] = j

    out = BatchDesign(f_bar.copy(), alpha.copy(), r.copy(), j.copy(),
                      np.full(size, cfg.max_iterations), j_trace)
    active = np.arange(size)
    done = np.abs(j - j_trace[0]) < tol * np.maximum(1.0, np.abs(j_trace[0]))
    sigma = np.full(size, _SIGMA_START)
    for iteration in range(2, cfg.max_iterations + 1):
        if np.any(done):
            finished = active[done]
            out.f_bar[finished], out.alpha[finished] = f_bar[done], alpha[done]
            out.r[finished], out.j[finished] = r[done], j[done]
            out.iterations_used[finished] = iteration - 1
            keep = ~done
            if not np.any(keep):
                return out
            active, problem = active[keep], problem.subset(keep)
            f_bar, alpha, r, j, sigma = f_bar[keep], alpha[keep], r[keep], j[keep], sigma[keep]
        j_before = j.copy()
        f_bar, alpha, r, j, sigma = _accelerated_iteration(problem, f_bar, alpha, r, j, sigma)
        done = np.abs(j - j_before) < tol * np.maximum(1.0, np.abs(j_before))
        out.j_trace[iteration, active] = j

    out.f_bar[active], out.alpha[active], out.r[active], out.j[active] = f_bar, alpha, r, j
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
