import math

import numpy as np
import pytest

from fdrelay.channel import (
    MEMORY_AUTO,
    MEMORY_INFINITE,
    SystemConfig,
    config_from_snr_inr,
    crandn,
    draw_slot_channels,
    slot_rng,
)

_NAMES = ("h_1r", "h_2r", "h_r1", "h_r2", "delta_11", "delta_22", "delta_rr")


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


@pytest.mark.parametrize("name", ["pr", "sigma_n_sq_r", "sigma_e_sq_1", "convergence_tol"])
def test_nan_config_values_are_rejected(name):
    # powers and variances must also be finite; an infinite tolerance stops a design after one iteration
    for value in (math.nan,) if name == "convergence_tol" else (math.nan, math.inf):
        with pytest.raises(ValueError, match=name):
            SystemConfig(n_s=1, n_r=2, **{name: value})


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
    for name in _NAMES:
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


def _crandn_draw(cfg, rng):
    """The seven matrices drawn one crandn call each, in the stream's order."""
    n_r, n_s = cfg.n_r, cfg.n_s
    return [
        crandn(rng, n_r, n_s), crandn(rng, n_r, n_s), crandn(rng, n_s, n_r), crandn(rng, n_s, n_r),
        np.sqrt(cfg.sigma_e_sq_1) * crandn(rng, n_s, n_s),
        np.sqrt(cfg.sigma_e_sq_2) * crandn(rng, n_s, n_s),
        np.sqrt(cfg.sigma_e_sq_r) * crandn(rng, n_r, n_r),
    ]


@pytest.mark.parametrize("n_s", [1, 2])
@pytest.mark.parametrize("n_r", [1, 5])
@pytest.mark.parametrize("inr_db", [-math.inf, 0.0])
def test_stacked_draw_equals_per_realization_draws(n_s, n_r, inr_db):
    cfg = config_from_snr_inr(10.0, inr_db, n_s=n_s, n_r=n_r)
    realizations = [0, 3, 1, 8]
    stack = draw_slot_channels(cfg, [slot_rng(5, r, 2) for r in realizations], 2)
    assert stack.slot_index == 2
    for k, r in enumerate(realizations):
        one = draw_slot_channels(cfg, slot_rng(5, r, 2), 2)
        expected = _crandn_draw(cfg, slot_rng(5, r, 2))
        for name, reference in zip(_NAMES, expected):
            assert np.array_equal(getattr(stack, name)[k], getattr(one, name)), name
            assert np.array_equal(getattr(one, name), reference), name


def test_successive_draws_from_one_generator_consume_the_stream_in_order():
    cfg = config_from_snr_inr(5.0, 0.0, n_s=2, n_r=3)
    shared, reference = np.random.default_rng(11), np.random.default_rng(11)
    for slot in (0, 1):
        draw = draw_slot_channels(cfg, shared, slot)
        for name, expected in zip(_NAMES, _crandn_draw(cfg, reference)):
            assert np.array_equal(getattr(draw, name), expected), name
    assert shared.standard_normal() == reference.standard_normal()


def test_draw_values_are_pinned():
    cfg = config_from_snr_inr(5.0, 0.0, n_s=2, n_r=3)
    ch = draw_slot_channels(cfg, slot_rng(7, 3, 2), 2)
    assert ch.h_1r[0, 0] == 0.6845107882213878 - 0.25086931083965447j
    assert ch.delta_rr[-1, -1] == -0.33459756406267477 + 0.03628052162945366j
