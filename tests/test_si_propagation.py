import math

import numpy as np
import pytest

from fdrelay.channel import SystemConfig, config_from_snr_inr, crandn, draw_slot_channels
from fdrelay.si_propagation import ResidualSICovariance, residual_si_covariance, residual_si_scale

INF = math.inf


def _depth_sum(sigma, n, c, t, memory):
    """Scale of slot t as the sum over chain depths d = 1..t-1: within the memory
    window sigma^d n_{t-1}...n_{t-d+1} c_{t-d}; beyond it the oldest kept slot t-m
    stands in for every forgotten one, sigma^d n_{t-1}...n_{t-m+1} n_{t-m}^(d-m) c_{t-m}."""
    total = 0.0
    for d in range(1, t):
        if d <= memory:
            term = math.prod(n[t - d + 1:t]) * c[t - d]
        else:
            term = math.prod(n[t - memory + 1:t]) * n[t - memory] ** (d - memory) * c[t - memory]
        total = total + sigma**d * term
    return total


@pytest.mark.parametrize("memory", [1, 2, 3, INF])
@pytest.mark.parametrize("t", range(1, 10))
def test_scale_fold_matches_depth_sum(rng, t, memory):
    cfg = SystemConfig(n_s=1, n_r=2, sigma_e_sq_r=0.7)
    # n[k], c[k]: tr(F_k F_k^H) and content trace of slot k for three realizations (n[0], c[0] unused)
    n = [None, *rng.uniform(0.2, 3.0, (t - 1, 3))]
    c = [None, *rng.uniform(0.2, 3.0, (t - 1, 3))]
    scale = residual_si_scale(cfg, memory, t, n[1:], c[1:], 3)
    expected = _depth_sum(cfg.sigma_e_sq_r, n, c, t, memory)
    assert np.allclose(scale, expected, rtol=1e-12, atol=0.0)


def test_scale_rejects_slot_zero_and_bad_memory():
    cfg = SystemConfig(n_s=1, n_r=2, sigma_e_sq_r=0.7)
    with pytest.raises(ValueError, match="slot index"):
        residual_si_scale(cfg, 2, 0, [], [], 1)
    for memory in (0, 2.5, "auto"):
        with pytest.raises(ValueError, match="memory"):
            residual_si_scale(cfg, memory, 3, [np.ones(1)] * 2, [np.ones(1)] * 2, 1)


def _trajectory(cfg, rng, slots):
    """Random draws of slots 0..slots-1 and beamformers of slots 1..slots."""
    channels = [draw_slot_channels(cfg, rng, s) for s in range(slots)]
    beamformers = [crandn(rng, cfg.n_r, cfg.n_r) for _ in range(slots)]
    return channels, beamformers


def _fro_sq(a):
    return np.linalg.norm(a) ** 2


def test_first_slot_has_zero_covariance(small_cfg):
    g = residual_si_covariance([], [], small_cfg)
    assert g.scale == 0.0
    assert not g.matrix.any()


def test_second_slot_matches_manual_trace(small_cfg, rng):
    channels, beamformers = _trajectory(small_cfg, rng, 1)
    f, ch = beamformers[0], channels[0]
    expected = small_cfg.sigma_e_sq_r * (
        small_cfg.p1 * _fro_sq(f @ ch.h_1r)
        + small_cfg.p2 * _fro_sq(f @ ch.h_2r)
        + small_cfg.sigma_n_sq_r * _fro_sq(f)
    )
    g = residual_si_covariance(channels, beamformers, small_cfg)
    assert g.scale == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("memory", [1, 2, INF])
def test_fourth_slot_matches_hand_written_chain_sums(small_cfg, rng, memory):
    # c_s: content forwarded by F_s, n_s = tr(F_s F_s^H), sigma: relay loopback-error variance
    channels, beamformers = _trajectory(small_cfg, rng, 3)
    cfg, sigma = small_cfg, small_cfg.sigma_e_sq_r
    c, n = {}, {}
    for s in (1, 2, 3):
        f, ch = beamformers[s - 1], channels[s - 1]
        h1, h2 = ch.h_1r, ch.h_2r
        q = cfg.p1 * h1 @ h1.conj().T + cfg.p2 * h2 @ h2.conj().T + cfg.sigma_n_sq_r * np.eye(2)
        c[s] = np.trace(f @ q @ f.conj().T).real
        n[s] = np.trace(f @ f.conj().T).real
    expected = {
        # depth 1 from slot 3; depth 2 through F_3 from slot 2; depth 3 through F_3, F_2 from slot 1
        INF: sigma * c[3] + sigma**2 * n[3] * c[2] + sigma**3 * n[3] * n[2] * c[1],
        # depth 3 is beyond the window: the oldest kept slot 2 repeats in place of slot 1
        2: sigma * c[3] + sigma**2 * n[3] * c[2] + sigma**3 * n[3] * n[2] * c[2],
        # depths 2 and 3 are beyond the window: F_3 and slot 3's content repeat
        1: sigma * c[3] + sigma**2 * n[3] * c[3] + sigma**3 * n[3] ** 2 * c[3],
    }[memory]
    g = residual_si_covariance(channels, beamformers, cfg, memory=memory)
    assert g.scale == pytest.approx(expected, rel=1e-12)


def test_zero_error_variance_means_zero_covariance(rng):
    cfg = config_from_snr_inr(5.0, -math.inf, n_s=1, n_r=2)
    channels, beamformers = _trajectory(cfg, rng, 6)
    for t in (2, 4, 7):
        assert residual_si_covariance(channels, beamformers[: t - 1], cfg).scale == 0.0


def test_covariance_is_nonnegative_scalar_times_identity(small_cfg, rng):
    channels, beamformers = _trajectory(small_cfg, rng, 5)
    g = residual_si_covariance(channels, beamformers, small_cfg, memory=2)
    assert g.scale >= 0.0
    off_diagonal = g.matrix - np.diag(np.diag(g.matrix))
    assert np.max(np.abs(off_diagonal)) <= 1e-12
    assert np.allclose(g.matrix, g.matrix.conj().T, atol=1e-12)


def test_memory_at_least_t_minus_one_equals_infinite(small_cfg, rng):
    channels, beamformers = _trajectory(small_cfg, rng, 5)
    t = len(beamformers) + 1
    g_inf = residual_si_covariance(channels, beamformers, small_cfg, memory=INF)
    for m in (t - 1, t, t + 3):
        g_m = residual_si_covariance(channels, beamformers, small_cfg, memory=m)
        assert abs(g_m.scale - g_inf.scale) <= 1e-12 * max(1.0, g_inf.scale)


def test_truncated_memory_changes_covariance(small_cfg, rng):
    channels, beamformers = _trajectory(small_cfg, rng, 5)
    g_inf = residual_si_covariance(channels, beamformers, small_cfg, memory=INF)
    g_1 = residual_si_covariance(channels, beamformers, small_cfg, memory=1)
    assert g_1.scale != pytest.approx(g_inf.scale, rel=1e-6)


def test_rejects_beamformer_of_wrong_shape(small_cfg, rng):
    channels, _ = _trajectory(small_cfg, rng, 1)
    for shape in ((3, 3), (4, 1)):
        with pytest.raises(ValueError, match="2x2"):
            residual_si_covariance(channels, [crandn(rng, *shape)], small_cfg)


def test_rejects_channels_too_short(small_cfg, rng):
    channels, beamformers = _trajectory(small_cfg, rng, 3)
    # slot 4's depth-3 chain carries the content of slot 0
    assert residual_si_covariance(channels, beamformers, small_cfg).scale > 0.0
    with pytest.raises(ValueError, match="slots 0..2"):
        residual_si_covariance(channels[1:], beamformers, small_cfg)


def test_zero_covariance_helper(small_cfg):
    zero = ResidualSICovariance.zero(small_cfg.n_r)
    assert zero.scale == 0.0
    assert zero.matrix.shape == (2, 2)
