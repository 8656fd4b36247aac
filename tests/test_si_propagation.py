import math

import numpy as np
import pytest

from fdrelay.channel import config_from_snr_inr, crandn
from fdrelay.matrix_core import frobenius_sq
from fdrelay.si_propagation import (
    MissingHistoryError,
    RelayHistory,
    ResidualSICovariance,
    residual_si_covariance,
    si_term_gates,
)

INF = math.inf


@pytest.mark.parametrize(
    "t,memory,expected",
    [
        (1, 3, (False, False, False)),
        (2, 3, (True, False, False)),
        (5, 1, (True, False, True)),
        (4, 5, (True, True, False)),
        (9, 3, (True, True, True)),
        (3, INF, (True, True, False)),
        (100, INF, (True, True, False)),
        (2, 1, (True, False, False)),
        (3, 1, (True, False, True)),
    ],
)
def test_si_term_gates_cases(t, memory, expected):
    assert si_term_gates(t, memory) == expected


def _filled_history(cfg, rng, slots):
    history = RelayHistory(cfg.n_r)
    for s in range(1, slots + 1):
        f = crandn(rng, cfg.n_r, cfg.n_r)
        h1 = crandn(rng, cfg.n_r, cfg.n_s)
        h2 = crandn(rng, cfg.n_r, cfg.n_s)
        history.push(s, f, h1, h2)
    return history


def test_first_slot_has_zero_covariance(small_cfg):
    history = RelayHistory(small_cfg.n_r)
    g = residual_si_covariance(history, small_cfg, t=1)
    assert g.scale == 0.0
    assert not g.matrix.any()


def test_second_slot_matches_manual_trace(small_cfg, rng):
    history = _filled_history(small_cfg, rng, 1)
    entry = history.entry(1)
    expected = small_cfg.sigma_e_sq_r * (
        small_cfg.p1 * frobenius_sq(entry.f @ entry.h_1r)
        + small_cfg.p2 * frobenius_sq(entry.f @ entry.h_2r)
        + small_cfg.sigma_n_sq_r * frobenius_sq(entry.f)
    )
    g = residual_si_covariance(history, small_cfg, t=2)
    assert g.scale == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("memory", [1, 2, INF])
def test_fourth_slot_matches_hand_written_chain_sums(small_cfg, rng, memory):
    # c_s: content forwarded by F_s, n_s = tr(F_s F_s^H), sigma: relay loopback-error variance
    history = _filled_history(small_cfg, rng, 3)
    cfg, sigma = small_cfg, small_cfg.sigma_e_sq_r
    c, n = {}, {}
    for s in (1, 2, 3):
        e = history.entry(s)
        q = cfg.p1 * e.h_1r @ e.h_1r.conj().T + cfg.p2 * e.h_2r @ e.h_2r.conj().T + cfg.sigma_n_sq_r * np.eye(2)
        c[s] = np.trace(e.f @ q @ e.f.conj().T).real
        n[s] = np.trace(e.f @ e.f.conj().T).real
    expected = {
        # depth 1 from slot 3; depth 2 through F_3 from slot 2; depth 3 through F_3, F_2 from slot 1
        INF: sigma * c[3] + sigma**2 * n[3] * c[2] + sigma**3 * n[3] * n[2] * c[1],
        # depth 3 is beyond the window: the oldest kept slot 2 repeats in place of slot 1
        2: sigma * c[3] + sigma**2 * n[3] * c[2] + sigma**3 * n[3] * n[2] * c[2],
        # depths 2 and 3 are beyond the window: F_3 and slot 3's content repeat
        1: sigma * c[3] + sigma**2 * n[3] * c[3] + sigma**3 * n[3] ** 2 * c[3],
    }[memory]
    g = residual_si_covariance(history, cfg, t=4, memory=memory)
    assert g.scale == pytest.approx(expected, rel=1e-12)


def test_zero_error_variance_means_zero_covariance(rng):
    cfg = config_from_snr_inr(5.0, -math.inf, n_s=1, n_r=2)
    history = _filled_history(cfg, rng, 6)
    for t in (2, 4, 7):
        assert residual_si_covariance(history, cfg, t=t).scale == 0.0


def test_covariance_is_nonnegative_scalar_times_identity(small_cfg, rng):
    history = _filled_history(small_cfg, rng, 5)
    g = residual_si_covariance(history, small_cfg, t=6, memory=2)
    assert g.scale >= 0.0
    off_diagonal = g.matrix - np.diag(np.diag(g.matrix))
    assert np.max(np.abs(off_diagonal)) <= 1e-12
    assert np.allclose(g.matrix, g.matrix.conj().T, atol=1e-12)


def test_memory_at_least_t_minus_one_equals_infinite(small_cfg, rng):
    history = _filled_history(small_cfg, rng, 5)
    t = 6
    g_inf = residual_si_covariance(history, small_cfg, t=t, memory=INF)
    for m in (t - 1, t, t + 3):
        g_m = residual_si_covariance(history, small_cfg, t=t, memory=m)
        assert abs(g_m.scale - g_inf.scale) <= 1e-12 * max(1.0, g_inf.scale)


def test_truncated_memory_changes_covariance(small_cfg, rng):
    history = _filled_history(small_cfg, rng, 5)
    g_inf = residual_si_covariance(history, small_cfg, t=6, memory=INF)
    g_1 = residual_si_covariance(history, small_cfg, t=6, memory=1)
    assert g_1.scale != pytest.approx(g_inf.scale, rel=1e-6)


def test_unbounded_history_retains_everything(small_cfg, rng):
    history = _filled_history(small_cfg, rng, 10)
    assert history.next_slot == 11
    assert [history.entry(s).slot for s in range(1, 11)] == list(range(1, 11))


def test_push_rejects_wrong_shape(small_cfg, rng):
    history = RelayHistory(small_cfg.n_r)
    with pytest.raises(ValueError):
        history.push(1, crandn(rng, 3, 3), crandn(rng, 2, 1), crandn(rng, 2, 1))


def test_push_rejects_gap(small_cfg, rng):
    history = RelayHistory(small_cfg.n_r)
    history.push(1, crandn(rng, 2, 2), crandn(rng, 2, 1), crandn(rng, 2, 1))
    with pytest.raises(ValueError):
        history.push(3, crandn(rng, 2, 2), crandn(rng, 2, 1), crandn(rng, 2, 1))


def test_missing_history_error_names_needed_slot(small_cfg, rng):
    history = RelayHistory(small_cfg.n_r)
    for s in (2, 3):
        history.push(s, crandn(rng, 2, 2), crandn(rng, 2, 1), crandn(rng, 2, 1))
    # the depth-3 chain of slot 4 starts from slot 1, which the history never held
    with pytest.raises(MissingHistoryError) as excinfo:
        residual_si_covariance(history, small_cfg, t=4)
    assert excinfo.value.slot == 1
    assert "slot 1" in str(excinfo.value)


def test_zero_covariance_helper(small_cfg):
    zero = ResidualSICovariance.zero(small_cfg.n_r)
    assert zero.scale == 0.0
    assert zero.matrix.shape == (2, 2)
