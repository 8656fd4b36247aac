"""Complex-matrix kernels and the singular-system policy (``CONDITION_LIMIT``).

The batched helpers serve the design; the dense kernels (``vec``/``mat``,
``kron``, ``solve_linear``) serve tests and oracles only, with numpy alone.
One rule, here and in the design's relay systems: K is singular when its exact
1-norm condition ||K||_1 ||K^-1||_1 (inf if exactly singular) exceeds
``CONDITION_LIMIT``.  Conventions:

* ``vec`` stacks columns (Fortran order), so ``vec(A X B) = (B^T kron A) vec(X)``.
* Matrices are ``numpy.ndarray`` with dtype ``complex128``; all functions here
  are pure and never mutate their arguments.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SingularSystemError",
    "vec",
    "mat",
    "kron",
    "solve_linear",
    "chained_error_trace_mean",
    "herm",
    "trace_quad",
    "fro_sq",
]

# Relative condition number above which a linear system is treated as singular
# instead of being silently regularized.
CONDITION_LIMIT = 1e12

# solve_linear refines only when the first solve misses this relative
# residual; the public contract promises _RESIDUAL_LIMIT.
_RESIDUAL_TARGET = 1e-11
_RESIDUAL_LIMIT = 1e-10
_MAX_REFINEMENTS = 4


class SingularSystemError(np.linalg.LinAlgError):
    """Linear system is singular to working tolerance.

    Carries ``condition`` (the 1-norm condition number, possibly ``inf``) so
    callers can report how degenerate the system was.
    """

    def __init__(self, condition: float, message: str = ""):
        self.condition = float(condition)
        super().__init__(message or f"singular system (condition estimate {condition:.3e})")


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"vec expects a matrix, got ndim={a.ndim}")
    return a.reshape(-1, order="F")


def mat(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`: reshape a column-stacked vector to rows x cols."""
    v = np.asarray(v)
    if v.ndim != 1:
        raise ValueError(f"mat expects a vector, got ndim={v.ndim}")
    if v.size != rows * cols:
        raise ValueError(f"cannot reshape length-{v.size} vector to {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices.

    Broadcast-based; noticeably faster than numpy's generic kron at small
    sizes.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("kron expects two matrices")
    ra, ca = a.shape
    rb, cb = b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)


def herm(a: np.ndarray) -> np.ndarray:
    """Hermitian transpose of the last two axes (batched)."""
    return a.swapaxes(-1, -2).conj()


def trace_quad(e: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Real tr(E G E^H) over the leading realization axis, each row on its own: a three-operand
    einsum sums 1 x 2 rows in an order that depends on the batch size."""
    return ((e @ g) * np.conj(e)).real.sum(axis=(-2, -1))


def fro_sq(a: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a stack."""
    return np.real(np.einsum("rij,rij->r", a, np.conj(a)))


def solve_linear(k: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``K x = b`` for square K with iterative refinement.

    Guarantees ``||K x - b|| <= 1e-10 ||b||`` on success.  Raises
    :class:`SingularSystemError` when K is singular by the module's rule or
    the residual target cannot be met.  Solves by LU, independently of the
    design's inverse-based relay solve.
    """
    k = np.asarray(k, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError(f"solve_linear expects a square matrix, got shape {k.shape}")
    if b.shape != (k.shape[0],):
        raise ValueError(f"rhs shape {b.shape} incompatible with matrix {k.shape}")

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b)

    condition = float(np.linalg.cond(k, 1))
    if not condition <= CONDITION_LIMIT:
        raise SingularSystemError(condition)

    x = np.linalg.solve(k, b)
    for _ in range(_MAX_REFINEMENTS):
        residual = b - k @ x
        if np.linalg.norm(residual) <= _RESIDUAL_TARGET * b_norm:
            break
        x = x + np.linalg.solve(k, residual)

    if not np.all(np.isfinite(x)) or np.linalg.norm(b - k @ x) > _RESIDUAL_LIMIT * b_norm:
        raise SingularSystemError(condition, "residual target unreachable")
    return x


def chained_error_trace_mean(v_list, sigma_sq: float) -> float:
    """Mean of the traced square of an alternating error/deterministic chain.

    For independent N x N random matrices ``D_1 .. D_{v-1}`` whose vectorized
    second moment is ``sigma_sq * I``, and deterministic ``V_1 .. V_v``, the
    quantity

        E tr{ V_v (D_{v-1} V_{v-1}) ... (D_1 V_1) (V_1^H D_1^H) ... V_v^H }

    collapses to ``sigma_sq^(v-1) * prod_j tr(V_j V_j^H)``.  This is the
    closed form used for all residual self-interference covariances; its
    sampling counterpart lives in :mod:`fdrelay.validation`.
    """
    mats = [np.asarray(v, dtype=complex) for v in v_list]
    if len(mats) < 2:
        raise ValueError("need at least two chain matrices")
    n = mats[0].shape[0]
    for m in mats:
        if m.shape != (n, n):
            raise ValueError(f"all chain matrices must be {n}x{n}, got {m.shape}")
    return float(sigma_sq) ** (len(mats) - 1) * float(np.prod(fro_sq(np.stack(mats))))
