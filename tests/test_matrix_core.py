import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdrelay.matrix_core import (
    CONDITION_LIMIT,
    SingularSystemError,
    chained_error_trace_mean,
    fro_sq,
    kron,
    mat,
    solve_linear,
    vec,
)


def _cmat(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def test_vec_is_column_stacked():
    a = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(vec(a), np.array([1.0, 2.0, 3.0, 4.0]))


def test_vec_identity():
    assert np.array_equal(vec(np.eye(2)), np.array([1.0, 0.0, 0.0, 1.0]))


def test_mat_vec_roundtrip_random(rng):
    a = _cmat(rng, 3, 3)
    assert np.array_equal(mat(vec(a), 3, 3), a)


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_mat_vec_roundtrip_is_exact(seed, rows, cols):
    rng = np.random.default_rng(seed)
    a = _cmat(rng, rows, cols)
    assert np.array_equal(mat(vec(a), rows, cols), a)


def test_mat_rejects_bad_length():
    with pytest.raises(ValueError):
        mat(np.arange(5.0), 2, 2)


def test_kron_identity_factor_gives_block_diagonal(rng):
    b = _cmat(rng, 2, 2)
    expected = np.block([[b, np.zeros_like(b)], [np.zeros_like(b), b]])
    assert np.allclose(kron(np.eye(2), b), expected, atol=0)


def test_kron_scalar_factor(rng):
    b = _cmat(rng, 3, 2)
    assert np.allclose(kron(np.array([[2.0]]), b), 2.0 * b, atol=0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_kron_trace_identity(seed):
    rng = np.random.default_rng(seed)
    a = _cmat(rng, 3, 3)
    b = _cmat(rng, 3, 3)
    assert np.isclose(np.trace(kron(a, b)), np.trace(a) * np.trace(b), rtol=0, atol=1e-12)


@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(2, 3))
@settings(max_examples=50, deadline=None)
def test_kron_mixed_product_property(seed, n, m):
    rng = np.random.default_rng(seed)
    a, c = _cmat(rng, n, n), _cmat(rng, n, n)
    b, d = _cmat(rng, m, m), _cmat(rng, m, m)
    left = kron(a, b) @ kron(c, d)
    right = kron(a @ c, b @ d)
    assert np.max(np.abs(left - right)) <= 1e-12 * max(1.0, np.max(np.abs(right)))


def test_solve_identity_returns_rhs(rng):
    b = _cmat(rng, 4, 1)[:, 0]
    assert np.allclose(solve_linear(np.eye(4), b), b, atol=0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_solve_linear_residual_bound(seed):
    rng = np.random.default_rng(seed)
    k = _cmat(rng, 9, 9)
    b = _cmat(rng, 9, 1)[:, 0]
    x = solve_linear(k, b)
    assert np.linalg.norm(k @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_solve_zero_matrix_is_singular():
    with pytest.raises(SingularSystemError):
        solve_linear(np.zeros((3, 3)), np.ones(3))


def test_solve_near_singular_reports_condition():
    k = np.diag([1.0, 1e-14, 1.0]).astype(complex)
    with pytest.raises(SingularSystemError) as excinfo:
        solve_linear(k, np.ones(3))
    assert excinfo.value.condition > 1e12


def test_solve_linear_solves_below_the_condition_limit():
    # exact 1-norm condition ||K||_1 ||K^-1||_1 = 5e11 < CONDITION_LIMIT
    k = np.diag([1.0, 2e-12, 1.0]).astype(complex)
    b = np.ones(3, dtype=complex)
    assert np.linalg.cond(k, 1) == pytest.approx(5e11, rel=1e-12) and 5e11 < CONDITION_LIMIT
    assert np.linalg.norm(k @ solve_linear(k, b) - b) <= 1e-10 * np.linalg.norm(b)


def test_solve_linear_reports_the_exact_condition_above_the_limit():
    # the relay systems' rule: singular when the exact 1-norm condition, here 2e12, exceeds CONDITION_LIMIT
    k = np.diag([1.0, 5e-13, 1.0]).astype(complex)
    with pytest.raises(SingularSystemError) as excinfo:
        solve_linear(k, np.ones(3))
    assert excinfo.value.condition == pytest.approx(np.linalg.cond(k, 1), rel=1e-12)
    assert excinfo.value.condition == pytest.approx(2e12, rel=1e-12)


def test_solve_zero_rhs_gives_zero(rng):
    k = _cmat(rng, 4, 4)
    assert np.array_equal(solve_linear(k, np.zeros(4, dtype=complex)), np.zeros(4))


def test_chained_error_trace_identity_matrices():
    # two identity factors, unit variance: 1 * tr(I_2) * tr(I_2) = 4
    assert chained_error_trace_mean([np.eye(2), np.eye(2)], 1.0) == pytest.approx(4.0)


def test_chained_error_trace_three_identity_factors():
    # variance 0.5, three 2x2 identities: 0.5^2 * 2^3 = 2
    assert chained_error_trace_mean([np.eye(2)] * 3, 0.5) == pytest.approx(2.0)


def test_fro_sq(rng):
    a = np.stack([_cmat(rng, 3, 2) for _ in range(4)])
    assert np.allclose(fro_sq(a), [np.linalg.norm(m) ** 2 for m in a], rtol=1e-14, atol=0.0)


def test_chained_error_trace_requires_square_matching(rng):
    with pytest.raises(ValueError):
        chained_error_trace_mean([np.eye(2), np.eye(3)], 1.0)
    with pytest.raises(ValueError):
        chained_error_trace_mean([np.eye(2)], 1.0)


def test_importing_the_package_loads_no_scipy():
    # the package needs numpy alone, solve_linear included;
    # a fresh interpreter, since this one may already hold scipy
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, numpy as np, fdrelay; fdrelay.solve_linear(np.eye(2), np.ones(2)); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
