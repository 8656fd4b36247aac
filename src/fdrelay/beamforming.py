"""Per-slot MMSE relay and receive beamforming solvers.

The relay forwards with F = alpha * F_bar, where F_bar carries the steering
directions (kept at unit Frobenius norm) and alpha the power amplification;
receivers estimate with (1/alpha) R_l^H.  Each subproblem has a closed-form
solution:

* relay step: the stationarity system
      W_f1 Fb G_1 + W_f2 Fb G_2 + w_f / (n_r pr) * Fb G_r = W_f0
  is solved in vectorized form; the solution is renormalized to unit Frobenius
  norm with alpha restored from the transmit power constraint
  tr(F G_r F^H) = n_r pr (the physical F is invariant to that rescaling);
* receive step: per-source regularized Wiener inverse.

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

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import SystemConfig, TimeSlotChannels
from .matrix_core import fro_sq, frobenius_sq, herm, kron, mat, solve_linear, trace_quad, vec
from .si_propagation import ResidualSICovariance

__all__ = [
    "BatchDesign",
    "DegenerateObjectiveError",
    "SlotProblem",
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


# Batched solves whose relative residual exceeds this are redone by solve_linear.
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

    g1/g2/gr are the relay-input covariances seen by source 1's estimate,
    source 2's estimate, and the transmit power; they do not depend on the
    receive matrices.  w_f0 is the desired-signal operator, w_f1/w_f2 the
    receive-side quadratic kernels, and w_f_scalar collects the noise and
    source-loopback power picked up by the receive matrices.
    """

    g1: np.ndarray
    g2: np.ndarray
    gr: np.ndarray
    w_f0: np.ndarray
    w_f1: np.ndarray
    w_f2: np.ndarray
    w_f_scalar: float
    nu_1: float  # n_s p1 sigma_e1^2 + sigma_n1^2
    nu_2: float  # n_s p2 sigma_e2^2 + sigma_n2^2
    h_r1: np.ndarray
    h_r2: np.ndarray
    h_1r_prev: np.ndarray
    h_2r_prev: np.ndarray


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


def relay_input_covariances(
    ch_prev: TimeSlotChannels, g_c: ResidualSICovariance, cfg: SystemConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g1, g2, gr) from the previous slot's inbound channels and residual SI."""
    hh1 = cfg.p1 * (ch_prev.h_1r @ ch_prev.h_1r.conj().T)
    hh2 = cfg.p2 * (ch_prev.h_2r @ ch_prev.h_2r.conj().T)
    base = (g_c.scale + cfg.sigma_n_sq_r) * np.eye(cfg.n_r)
    return base + hh2, base + hh1, base + hh1 + hh2


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
    g1, g2, gr = relay_input_covariances(ch_prev, g_c, cfg)

    b1 = r1.conj().T @ ch_t.h_r1  # R_1^H H_r1
    b2 = r2.conj().T @ ch_t.h_r2
    w_f1 = b1.conj().T @ b1
    w_f2 = b2.conj().T @ b2
    w_f0 = cfg.p1 * ch_t.h_r2.conj().T @ r2 @ ch_prev.h_1r.conj().T \
        + cfg.p2 * ch_t.h_r1.conj().T @ r1 @ ch_prev.h_2r.conj().T
    nu_1, nu_2 = cfg.nu
    w_f_scalar = nu_1 * frobenius_sq(r1) + nu_2 * frobenius_sq(r2)
    return SlotOperators(
        g1=g1, g2=g2, gr=gr,
        w_f0=w_f0, w_f1=w_f1, w_f2=w_f2, w_f_scalar=w_f_scalar,
        nu_1=nu_1, nu_2=nu_2,
        h_r1=ch_t.h_r1, h_r2=ch_t.h_r2,
        h_1r_prev=ch_prev.h_1r, h_2r_prev=ch_prev.h_2r,
    )


def solve_relay_beamformer(ops: SlotOperators, cfg: SystemConfig) -> RelaySolution:
    """Closed-form relay steering/amplification for fixed receive matrices.

    Raises :class:`DegenerateObjectiveError` when the desired-signal operator
    is exactly zero (zero source power or zero receive matrices), since
    normalizing a zero steering matrix would hide a configuration error.
    """
    if not np.any(ops.w_f0):
        raise DegenerateObjectiveError("desired-signal operator w_f0 is zero")
    n_r = cfg.n_r
    power_budget = n_r * cfg.pr
    k = kron(ops.g1.T, ops.w_f1) + kron(ops.g2.T, ops.w_f2) \
        + kron(ops.gr.T, (ops.w_f_scalar / power_budget) * np.eye(n_r))
    raw = solve_linear(k, vec(ops.w_f0))
    prenorm_scale = float(np.linalg.norm(raw))
    f_bar = mat(raw, n_r, n_r) / prenorm_scale
    gain = float(np.real(np.trace(f_bar @ ops.gr @ f_bar.conj().T)))
    if gain <= 0.0:
        raise ValueError("tr(F G_r F^H) <= 0: relay input covariance is corrupt")
    alpha = math.sqrt(power_budget / gain)
    lam = ops.w_f_scalar * gain / power_budget**2
    return RelaySolution(f_bar=f_bar, alpha=alpha, lam=lam, prenorm_scale=prenorm_scale)


def solve_receive_beamformers(
    ch_t: TimeSlotChannels,
    ch_prev: TimeSlotChannels,
    f: np.ndarray,
    alpha: float,
    g1: np.ndarray,
    g2: np.ndarray,
    cfg: SystemConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form receive matrices: R_l = alpha p_lbar (B G_l B^H + nu_l I)^-1 B H_lbar.

    B is the source-l end-to-end forward channel H_rl F.  The composite
    estimator (1/alpha) R_l^H does not depend on alpha.
    """
    nu_1, nu_2 = cfg.nu
    eye = np.eye(cfg.n_s)
    c1 = ch_t.h_r1 @ f
    c2 = ch_t.h_r2 @ f
    r1 = alpha * cfg.p2 * np.linalg.solve(c1 @ g1 @ c1.conj().T + nu_1 * eye, c1 @ ch_prev.h_2r)
    r2 = alpha * cfg.p1 * np.linalg.solve(c2 @ g2 @ c2.conj().T + nu_2 * eye, c2 @ ch_prev.h_1r)
    return r1, r2


def evaluate_sum_mse(
    ops: SlotOperators,
    f_bar: np.ndarray,
    alpha: float,
    r1: np.ndarray,
    r2: np.ndarray,
    cfg: SystemConfig,
) -> float:
    """Analytic sum MSE of both source estimates for the given design.

    Uses the closed-form signal expectations (never sampling).  The receive
    matrices are taken from the arguments, not from the ones ``ops`` was built
    with, so the objective can be tracked right after a receive update.
    """
    f = alpha * f_bar
    w_f0 = cfg.p1 * ops.h_r2.conj().T @ r2 @ ops.h_1r_prev.conj().T \
        + cfg.p2 * ops.h_r1.conj().T @ r1 @ ops.h_2r_prev.conj().T
    cross = 2.0 * float(np.real(np.vdot(w_f0, f)))
    e1 = r1.conj().T @ ops.h_r1 @ f
    e2 = r2.conj().T @ ops.h_r2 @ f
    quad = (
        float(np.real(np.trace(e1 @ ops.g1 @ e1.conj().T)))
        + float(np.real(np.trace(e2 @ ops.g2 @ e2.conj().T)))
        + ops.nu_1 * frobenius_sq(r1)
        + ops.nu_2 * frobenius_sq(r2)
    )
    return cfg.n_s * (cfg.p1 + cfg.p2) - cross / alpha + quad / alpha**2


def _vec(x: np.ndarray) -> np.ndarray:
    """Column-stacked vec of the last two axes (batched)."""
    return x.swapaxes(-1, -2).reshape(x.shape[:-2] + (-1,))


def _mat(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`_vec` for n x n matrices (batched)."""
    return v.reshape(v.shape[:-1] + (n, n)).swapaxes(-1, -2)


def _receive_coords(z: np.ndarray) -> np.ndarray:
    """Real coordinates of receive-matrix pairs (..., 2, n_s, n_s).

    Entry (l, i, j) of R_l contributes its real then its imaginary part; this
    basis is orthonormal for the real inner product Re tr(A^H B).
    """
    return np.ascontiguousarray(z).reshape(z.shape[:-3] + (-1,)).view(np.float64)


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
        w_f_scalar = sum(nu * frobenius_sq(r_l) for nu, r_l in zip(cfg.nu, r))
        return BeamformingSolution(
            f_bar=f_bar,
            alpha=alpha,
            f=alpha * f_bar,
            lam=w_f_scalar / (alpha**2 * (cfg.n_r * cfg.pr)),
            r1=r[0],
            r2=r[1],
            j_value=float(self.j[index]),
            iterations_used=used,
            j_trace=tuple(float(v) for v in self.j_trace[: used + 1, index]),
        )


class SlotProblem:
    """One slot's design problem for a stack of realizations.

    Arrays carry the realization axis first and, where the two receivers
    differ, a receiver axis l (0: source 1, 1: source 2) second: ``h`` holds
    H_r1, H_r2 (n_s x n_r), ``h_bar`` the previous slot's inbound channel of
    the *other* source (H_2r for source 1, H_1r for source 2), ``g`` the
    relay-input covariances G_1, G_2 seen by each estimate and ``gr`` the one
    of the transmit power.
    """

    def __init__(self, cfg: SystemConfig, h_r1, h_r2, h_1r_prev, h_2r_prev, g_c_scale):
        self.cfg = cfg
        n_r = cfg.n_r
        self.h = np.stack([h_r1, h_r2], axis=1)
        self.h_bar = np.stack([h_2r_prev, h_1r_prev], axis=1)
        self.h_h = herm(self.h)
        self.h_bar_h = herm(self.h_bar)
        self.h_conj = np.conj(self.h)[:, :, :, None, None, :]
        hh1 = cfg.p1 * (h_1r_prev @ herm(h_1r_prev))
        hh2 = cfg.p2 * (h_2r_prev @ herm(h_2r_prev))
        base = (np.asarray(g_c_scale) + cfg.sigma_n_sq_r)[:, None, None] * np.eye(n_r)
        self.g = np.stack([base + hh2, base + hh1], axis=1)
        self.gr = base + hh1 + hh2
        # left Kronecker factors of the relay system: G_1^T, G_2^T, G_r^T
        self.kron_left = np.swapaxes(np.concatenate([self.g, self.gr[:, None]], axis=1), -1, -2)
        self.p_bar = np.array([cfg.p2, cfg.p1])
        self.nu = np.array(cfg.nu)
        self.nu_eye = self.nu[:, None, None] * np.eye(cfg.n_s)
        self.p_bar_h_bar = self.p_bar[:, None, None] * self.h_bar
        # p_lbar conj(H_rl)[i, a] conj(H_lbar)[b, j] in the [b, a] layout of _NewtonModel
        self.desired_outer = self.p_bar[:, None, None, None, None] \
            * self.h_bar_h[:, :, None, :, :, None] * self.h_conj
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
        sub = copy.copy(self)
        for name in ("h", "h_bar", "h_h", "h_bar_h", "h_conj", "p_bar_h_bar", "desired_outer",
                     "g", "gr", "kron_left"):
            setattr(sub, name, getattr(self, name)[keep])
        return sub

    def _expand(self, a: np.ndarray, extra: int) -> np.ndarray:
        """``a`` with ``extra`` unit axes after the realization axis."""
        return a.reshape(a.shape[:1] + (1,) * extra + a.shape[1:])

    def amplification(self, f_bar: np.ndarray) -> np.ndarray:
        """alpha meeting the power budget tr(F G_r F^H) = n_r p_r."""
        gr = self._expand(self.gr, f_bar.ndim - 3)
        # the same expression as the per-realization code, so both round alike
        return np.sqrt(self.budget / np.trace(f_bar @ gr @ herm(f_bar), axis1=-2, axis2=-1).real)

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
        cross = 2.0 * np.real(np.einsum("rij,rij->r", np.conj(self._w_f0(r)), f))
        e = herm(r) @ self.h @ f[:, None]
        quad = sum(trace_quad(e[:, l], self.g[:, l]) + self.nu[l] * fro_sq(r[:, l]) for l in (0, 1))
        return self.j_max - cross / alpha + quad / alpha**2

    def _w_f0(self, r: np.ndarray) -> np.ndarray:
        """Desired-signal operator sum_l p_lbar H_rl^H R_l H_lbar^H."""
        return (self.p_bar[:, None, None] * (self.h_h @ r @ self.h_bar_h)).sum(axis=1)

    def _w_f(self, r: np.ndarray) -> np.ndarray:
        """Noise and source-loopback power picked up by the receive matrices."""
        return (self.nu[:, None, None] * (r * r.conj()).real).sum(axis=(1, 2, 3))

    def relay_system(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Relay stationarity system K vec(F_bar) = vec(W_f0) for fixed receive matrices.

        Its solution minimizes the sum MSE over an unnormalized F_bar.
        """
        bm = herm(r) @ self.h
        w_fl = herm(bm) @ bm
        w_f0 = self._w_f0(r)
        if not np.all(w_f0.reshape(len(w_f0), -1).any(axis=1)):
            raise DegenerateObjectiveError("desired-signal operator w_f0 is zero")
        n_r = self.cfg.n_r
        right = np.concatenate(
            [w_fl, (self._w_f(r) / self.budget)[:, None, None, None] * np.eye(n_r)], axis=1)
        k = self.kron_left[:, 0, :, None, :, None] * right[:, 0, None, :, None, :]
        for l in (1, 2):
            k += self.kron_left[:, l, :, None, :, None] * right[:, l, None, :, None, :]
        return k.reshape(len(r), n_r * n_r, -1), w_f0

    def gradient(self, f_bar: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Gradient of the receive-eliminated sum MSE at ``f_bar``, for r = Wiener(f_bar).

        By the envelope theorem it is the relay stationarity residual
        sum_l W_fl F G_l + w_f / (n_r p_r) F G_r - W_f0 (conjugate-gradient
        convention: dJ = 2 Re tr(grad^H dF)).
        """
        bm = herm(r) @ self.h
        kx = (herm(bm) @ bm @ f_bar[:, None] @ self.g).sum(axis=1) \
            + (self._w_f(r) / self.budget)[:, None, None] * (f_bar @ self.gr)
        return kx - self._w_f0(r)


def _solve_relay(k: np.ndarray, w_f0: np.ndarray):
    """F_bar solving K vec(F_bar) = vec(W_f0), with the residual guard of solve_linear.

    Solves through the explicit inverse, which the Newton model reuses, plus
    one refinement step that brings it to a direct solve's accuracy.
    Realizations whose solution still misses the residual limit are solved
    again by :func:`solve_linear`, which raises SingularSystemError when the
    system is singular to tolerance.  Returns the solutions, K^-1 and the
    mask of re-solved realizations.
    """
    k_inv = np.linalg.inv(k)
    rhs = _vec(w_f0)[..., None]
    x = k_inv @ rhs
    x += k_inv @ (rhs - k @ x)
    x, rhs = x[..., 0], rhs[..., 0]
    residual = np.linalg.norm(rhs - (k @ x[..., None])[..., 0], axis=1)
    bad = residual > _SOLVE_RESIDUAL_LIMIT * np.maximum(np.linalg.norm(rhs, axis=1), 1e-300)
    for idx in np.nonzero(bad)[0]:
        x[idx] = solve_linear(k[idx], rhs[idx])
    return _mat(x, w_f0.shape[-1]), k_inv, bad


def _unit(f: np.ndarray) -> np.ndarray:
    """Each matrix of a stack scaled to unit Frobenius norm."""
    return f / np.sqrt((f * f.conj()).real.sum(axis=(-2, -1), keepdims=True))


class _NewtonModel:
    """Second-order model of the receive-eliminated sum MSE at one iterate.

    With the receive matrices at their Wiener optimum the sum MSE is a
    function J(F_bar) of the steering matrix alone, invariant to complex
    scaling of F_bar.  Its gradient is the relay residual K F_bar - W_f0 (see
    :meth:`SlotProblem.gradient`) and its Hessian is K - B D^-1 B^T: K is the
    relay system (the Hessian for fixed receive matrices), D the receive
    Hessian (A_l = C_l G_l C_l^H + nu_l / alpha^2 I per
    receiver, C_l = H_rl F_bar) and B the mixed relay/receive second
    derivative, so the curvature the plain alternation ignores has rank at
    most 4 n_s^2.  Steps are taken for the blended Hessian
    (1 - sigma) H + sigma K: sigma = 1 is the plain alternation step, sigma
    = 0 the Newton step; the Woodbury identity reduces each to a 4 n_s^2 real
    system.  Directions along F_bar and i F_bar, which leave J unchanged, are
    projected out of the low-rank part.  Receive-side quantities are carried
    in the real coordinates of :func:`_receive_coords`, relay-side ones as
    column-stacked vectors.
    """

    def __init__(self, problem: SlotProblem, f_bar, alpha, r, k, k_inv):
        n_s = problem.cfg.n_s
        size = len(f_bar)
        self.k_inv = k_inv
        self.n_s = n_s
        c = problem.h @ f_bar[:, None]                    # C_l = H_rl F_bar
        cg = c @ problem.g                                # C_l G_l
        q_hat = problem.h_h @ r                           # H_rl^H R_l

        # Rows vec(B e_k) for the unit receive perturbations e_k: the change
        # of K F_bar - W_f0 when R_l moves along e_k, each a sum of outer
        # products laid out as [column, row] of the n_r x n_r matrix.
        o1 = (herm(r) @ cg)[:, :, None, :, :, None] * problem.h_conj
        o2 = cg[:, :, :, None, :, None] * np.swapaxes(q_hat, -1, -2)[:, :, None, :, None, :]
        fg = np.swapaxes(f_bar @ problem.gr, -1, -2)[:, None, None, None] / problem.budget
        dw = (2.0 * problem.nu[:, None, None] * r)[..., None, None]
        b = np.empty(o1.shape[:4] + (2,) + o1.shape[4:], dtype=complex)
        b[..., 0, :, :] = o1 + o2 - problem.desired_outer + dw.real * fg
        b[..., 1, :, :] = 1j * (o1 - o2 - problem.desired_outer) + dw.imag * fg
        b = b.reshape(size, -1, f_bar.shape[-1] ** 2)

        # Rows of K^-1 B without their K-orthogonal components along F_bar
        # and i F_bar.
        x = _vec(f_bar)
        kappa = (x.conj() * (k @ x[..., None])[..., 0]).sum(axis=1).real
        along = (b @ x.conj()[..., None]) / kappa[:, None, None]
        self.w = b @ np.swapaxes(k_inv, -1, -2) - along * x[:, None]

        # Receive-gradient change along relay directions U:
        # H U P1 + P2 U^H P3 + nu dg R, with dg = 2 Re tr(U G_r F^H) / (n_r p_r).
        a = cg @ herm(c) + alpha[:, None, None, None] ** -2 * problem.nu_eye
        p1 = herm(cg) @ r - problem.p_bar_h_bar
        self._t1 = np.einsum("rlia,rlbj->rbalij", problem.h, p1).reshape(size, x.shape[-1], -1)
        self._t2 = np.einsum("rlia,rlbj->rablij", cg, q_hat).reshape(size, x.shape[-1], -1)
        self._gx = (problem.gr @ herm(f_bar)).reshape(size, -1, 1) * (2.0 / problem.budget)
        self._nu_r = (problem.nu[:, None, None] * r).reshape(size, 1, -1)
        self.d = _receive_coords(np.einsum("rlab,klbc->rklac", a, problem.receive_basis))
        m = self._mixed(self.w)
        self.m = 0.5 * (m + np.swapaxes(m, 1, 2))

    def _mixed(self, u: np.ndarray) -> np.ndarray:
        """Receive coordinates of B^T u for vectorized relay directions u, (R, k, n_r^2)."""
        out = u @ self._t1 + np.conj(u) @ self._t2 + np.real(u @ self._gx) * self._nu_r
        return _receive_coords(out.reshape(*u.shape[:2], 2, self.n_s, self.n_s))

    def apply_k_inv(self, x: np.ndarray) -> np.ndarray:
        """K^-1 applied to a stack of n_r x n_r matrices."""
        return _mat((self.k_inv @ _vec(x)[..., None])[..., 0], x.shape[-1])

    def steps(self, sigma: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Steps -((1 - sigma) H + sigma K)^-1 grad for u = K^-1 grad.

        ``sigma`` is (R, c) and ``u`` is (R, n_r, n_r); returns (R, c, n_r, n_r).
        """
        keep = 1.0 - sigma
        u_vec = _vec(u)[:, None]
        bu = self._mixed(u_vec)
        v = np.linalg.solve(self.d[:, None] - keep[..., None, None] * self.m[:, None],
                            np.broadcast_to(bu[..., None], (*sigma.shape, bu.shape[-1], 1)))[..., 0]
        return _mat(-(u_vec + keep[..., None] * (v @ self.w)), u.shape[-1])


def _accelerated_iteration(problem: SlotProblem, f_bar, alpha, r, j, sigma):
    """One iteration after the first; returns the new (f_bar, alpha, r, j, sigma).

    ``r`` is the Wiener solution for ``f_bar``.  The candidates are damped
    Newton steps for blend weights sigma * _SIGMA_FACTORS (most Newton-like
    first) and the plain alternation step; the best one is then refined by
    ``_CHORD_STEPS`` steps that reuse the same model.  The result is kept
    only if it does not raise J by more than rounding.
    """
    k, w_f0 = problem.relay_system(r)
    raw, k_inv, resolved = _solve_relay(k, w_f0)
    model = _NewtonModel(problem, f_bar, alpha, r, k, k_inv)
    weights = np.minimum(sigma[:, None] * _SIGMA_FACTORS, 1.0)
    steps = model.steps(weights, f_bar - raw)
    candidates = np.concatenate([_unit(f_bar[:, None] + steps), _unit(raw)[:, None]], axis=1)
    c_alpha, c_r, values = problem.receive(candidates)
    values[:, :-1][resolved] = np.inf
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
        u = model.apply_k_inv(problem.gradient(new_f, new_r))
        trial = _unit(new_f + model.steps(weight[:, None], u)[:, 0])
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

    f_bar = _unit(_solve_relay(*problem.relay_system(r))[0])
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
    The returned
    receive matrices are the Wiener solution for the returned relay
    beamformer.  With ``pin_receive`` the receive matrices stay at identity
    (relay-only design).
    """
    problem = SlotProblem.single(ch_t, ch_prev, g_c, cfg)
    return design_slot_batch(problem, pin_receive).solution(0, cfg)
