import math

import numpy as np
import pytest

from fdrelay.channel import (
    MEMORY_AUTO,
    MEMORY_INFINITE,
    SystemConfig,
    config_from_snr_inr,
    draw_slot_channels,
    slot_rng,
)


def test_snr_inr_zero_db():
    cfg = config_from_snr_inr(0.0, 0.0)
    assert cfg.sigma_n_sq_r == pytest.approx(1.0)
    assert cfg.sigma_e_sq_r == pytest.approx(1.0)
    assert cfg.p1 == cfg.p2 == cfg.pr == 1.0


def test_snr_inr_hand_computed():
    cfg = config_from_snr_inr(5.0, -5.0)
    assert cfg.sigma_n_sq_1 == pytest.approx(0.31622776601, rel=1e-9)
    assert cfg.sigma_e_sq_1 == pytest.approx(0.1, rel=1e-9)


def test_inr_minus_infinity_turns_errors_off():
    cfg = config_from_snr_inr(10.0, -math.inf)
    assert cfg.sigma_e_sq_1 == 0.0
    assert cfg.sigma_e_sq_r == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(n_s=0, n_r=2)
    with pytest.raises(ValueError):
        SystemConfig(n_s=1, n_r=2, p1=0.0)
    with pytest.raises(ValueError):
        SystemConfig(n_s=1, n_r=2, sigma_e_sq_r=-0.1)
    with pytest.raises(ValueError):
        SystemConfig(n_s=1, n_r=2, memory=0)
    with pytest.raises(ValueError, match="positive integer or infinite"):
        SystemConfig(n_s=1, n_r=2, memory=MEMORY_AUTO)  # only a sweep resolves 'auto'
    SystemConfig(n_s=1, n_r=2, memory=MEMORY_INFINITE)


def test_zero_error_variance_gives_zero_deltas():
    cfg = config_from_snr_inr(10.0, -math.inf, n_s=2, n_r=3)
    ch = draw_slot_channels(cfg, slot_rng(0, 0, 0), 0)
    assert not ch.delta_11.any()
    assert not ch.delta_22.any()
    assert not ch.delta_rr.any()


def test_identical_seeds_bitwise_identical():
    cfg = config_from_snr_inr(5.0, 0.0, n_s=2, n_r=3)
    a = draw_slot_channels(cfg, slot_rng(7, 3, 2), 2)
    b = draw_slot_channels(cfg, slot_rng(7, 3, 2), 2)
    for name in ("h_1r", "h_2r", "h_r1", "h_r2", "delta_11", "delta_22", "delta_rr"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_distinct_substreams_differ():
    cfg = config_from_snr_inr(5.0, 0.0, n_s=2, n_r=3)
    a = draw_slot_channels(cfg, slot_rng(7, 0, 0), 0)
    b = draw_slot_channels(cfg, slot_rng(7, 0, 1), 1)
    c = draw_slot_channels(cfg, slot_rng(7, 1, 0), 0)
    assert not np.allclose(a.h_1r, b.h_1r)
    assert not np.allclose(a.h_1r, c.h_1r)


def test_unit_entry_power():
    cfg = config_from_snr_inr(0.0, 0.0, n_s=10, n_r=10)
    samples = []
    for slot in range(1000):
        ch = draw_slot_channels(cfg, slot_rng(0, 0, slot), slot)
        samples.append(np.abs(ch.h_1r) ** 2)
    mean_power = np.mean(samples)
    assert mean_power == pytest.approx(1.0, rel=0.02)


def test_error_variance_scaling():
    cfg = config_from_snr_inr(0.0, 3.0, n_s=8, n_r=8)
    samples = []
    for slot in range(800):
        ch = draw_slot_channels(cfg, slot_rng(0, 0, slot), slot)
        samples.append(np.abs(ch.delta_rr) ** 2)
    assert np.mean(samples) == pytest.approx(cfg.sigma_e_sq_r, rel=0.03)


def test_shapes_follow_config():
    cfg = config_from_snr_inr(0.0, 0.0, n_s=2, n_r=5)
    ch = draw_slot_channels(cfg, slot_rng(0, 0, 0), 0)
    assert ch.h_1r.shape == (5, 2)
    assert ch.h_r1.shape == (2, 5)
    assert ch.delta_11.shape == (2, 2)
    assert ch.delta_rr.shape == (5, 5)
