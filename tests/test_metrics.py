import math

import numpy as np
import pytest

from fdrelay.beamforming import alternate_optimize
from fdrelay.channel import SystemConfig, config_from_snr_inr, draw_slot_channels, slot_rng
from fdrelay.metrics import achievable_sum_rate, duplex_mode_select, half_duplex_reference
from fdrelay.si_propagation import ResidualSICovariance
from fdrelay.simulate import run_trajectory


def _two_slots(cfg, seed):
    ch0 = draw_slot_channels(cfg, slot_rng(seed, 0, 0), 0)
    ch1 = draw_slot_channels(cfg, slot_rng(seed, 0, 1), 1)
    return ch0, ch1


def test_rate_is_zero_without_source_power():
    cfg = SystemConfig(n_s=2, n_r=3, p1=1e-30, p2=1e-30, pr=1.0,
                       sigma_n_sq_1=1.0, sigma_n_sq_2=1.0, sigma_n_sq_r=1.0)
    ch0, ch1 = _two_slots(cfg, 0)
    sol = alternate_optimize(ch1, ch0, ResidualSICovariance.zero(3), cfg)
    metrics = achievable_sum_rate([ch0, ch1], [sol.f], sol, cfg)
    assert metrics.sum_rate == pytest.approx(0.0, abs=1e-12)


def test_first_slot_interference_covariance_reduces_to_direct_terms():
    # with no history the covariance is relay noise through the steering matrix
    # plus the source's own loopback error and thermal noise
    cfg = config_from_snr_inr(5.0, 3.0, n_s=2, n_r=3)
    ch0, ch1 = _two_slots(cfg, 1)
    sol = alternate_optimize(ch1, ch0, ResidualSICovariance.zero(3), cfg)
    metrics = achievable_sum_rate([ch0, ch1], [sol.f], sol, cfg)

    total = 0.0
    for h_rl, h_other, delta, p_own, p_other, r_l in (
        (ch1.h_r1, ch0.h_2r, ch1.delta_11, cfg.p1, cfg.p2, sol.r1),
        (ch1.h_r2, ch0.h_1r, ch1.delta_22, cfg.p2, cfg.p1, sol.r2),
    ):
        b = h_rl @ sol.f_bar
        a = (
            cfg.sigma_n_sq_r * b @ b.conj().T
            + sol.alpha**-2 * p_own * delta @ delta.conj().T
            + sol.alpha**-2 * cfg.sigma_n_sq_1 * np.eye(2)
        )
        noise = r_l.conj().T @ a @ r_l
        d = r_l.conj().T @ b @ h_other
        signal = p_other * d @ d.conj().T
        sign, logdet_total = np.linalg.slogdet(noise + signal)
        sign2, logdet_noise = np.linalg.slogdet(noise)
        total += (logdet_total - logdet_noise) / math.log(2.0)
    assert metrics.sum_rate == pytest.approx(total, rel=1e-12)


def test_second_slot_rate_carries_one_realized_relay_error_chain():
    # slot 2: the relay input adds slot 0's content forwarded by F_1 through the realized
    # slot-1 relay error, C = sigma_nr I + D_1 F_1 Q_0 F_1^H D_1^H
    cfg = config_from_snr_inr(5.0, 8.0, n_s=2, n_r=3)
    traj = run_trajectory(cfg, "proposed", slots=2, seed=8, realization=0)
    ch0, ch1, ch2 = traj.channels
    sol1, sol = traj.solutions
    metrics = achievable_sum_rate([ch0, ch1, ch2], [sol1.f, sol.f], sol, cfg)

    q0 = cfg.p1 * ch0.h_1r @ ch0.h_1r.conj().T + cfg.p2 * ch0.h_2r @ ch0.h_2r.conj().T + cfg.sigma_n_sq_r * np.eye(3)
    leak = ch1.delta_rr @ sol1.f
    core = cfg.sigma_n_sq_r * np.eye(3) + leak @ q0 @ leak.conj().T
    rates = []
    for h_rl, h_other, delta, p_own, p_other, sigma_n_sq, r_l in (
        (ch2.h_r1, ch1.h_2r, ch2.delta_11, cfg.p1, cfg.p2, cfg.sigma_n_sq_1, sol.r1),
        (ch2.h_r2, ch1.h_1r, ch2.delta_22, cfg.p2, cfg.p1, cfg.sigma_n_sq_2, sol.r2),
    ):
        b = h_rl @ sol.f_bar
        a = b @ core @ b.conj().T + sol.alpha**-2 * (p_own * delta @ delta.conj().T + sigma_n_sq * np.eye(2))
        noise = r_l.conj().T @ a @ r_l
        d = r_l.conj().T @ b @ h_other
        _, logdet_total = np.linalg.slogdet(noise + p_other * d @ d.conj().T)
        _, logdet_noise = np.linalg.slogdet(noise)
        rates.append((logdet_total - logdet_noise) / math.log(2.0))
    # the explicit noise covariance of source 1 has condition ~6e4, which costs its
    # log-det about 1e-11 relative against the whitened factor form
    assert metrics.rate_1 == pytest.approx(rates[0], rel=1e-9)
    assert metrics.rate_2 == pytest.approx(rates[1], rel=1e-9)
    assert traj.metrics[1].sum_rate == pytest.approx(sum(rates), rel=1e-9)


def test_scalar_rate_reduces_to_log_sinr():
    cfg = config_from_snr_inr(8.0, float("-inf"), n_s=1, n_r=1)
    ch0, ch1 = _two_slots(cfg, 2)
    sol = alternate_optimize(ch1, ch0, ResidualSICovariance.zero(1), cfg)
    metrics = achievable_sum_rate([ch0, ch1], [sol.f], sol, cfg)

    f_bar = sol.f_bar[0, 0]
    expected = 0.0
    for h_rl, h_other, p_other, sigma_n in (
        (ch1.h_r1[0, 0], ch0.h_2r[0, 0], cfg.p2, cfg.sigma_n_sq_1),
        (ch1.h_r2[0, 0], ch0.h_1r[0, 0], cfg.p1, cfg.sigma_n_sq_2),
    ):
        signal = p_other * abs(h_rl * f_bar * h_other) ** 2
        noise = cfg.sigma_n_sq_r * abs(h_rl * f_bar) ** 2 + sigma_n / sol.alpha**2
        expected += math.log2(1.0 + signal / noise)
    assert metrics.sum_rate == pytest.approx(expected, rel=1e-12)


def test_rate_accumulates_realized_error_chains():
    cfg = config_from_snr_inr(5.0, 10.0, n_s=2, n_r=3)
    with_chain = run_trajectory(cfg, "proposed", slots=4, seed=3, realization=0)
    no_chain = run_trajectory(cfg.without_loopback_error(), "proposed", slots=4, seed=3, realization=0)
    # the loopback error chains strictly reduce the achievable rate
    assert with_chain.metrics[3].sum_rate < no_chain.metrics[3].sum_rate


def test_half_duplex_is_half_of_error_free_full_rate():
    cfg = config_from_snr_inr(5.0, 0.0, n_s=2, n_r=3)
    ch0, ch1 = _two_slots(cfg, 4)
    hd = half_duplex_reference(ch0, ch1, cfg)

    cfg0 = cfg.without_loopback_error()
    mac = ch0.zero_error_copy()
    bc = ch1.zero_error_copy()
    sol = alternate_optimize(bc, mac, ResidualSICovariance.zero(3), cfg0)
    full = achievable_sum_rate([mac, bc], [sol.f], sol, cfg0)
    assert hd.sum_rate == pytest.approx(0.5 * full.sum_rate, rel=1e-12)
    assert hd.scheme == "half_duplex"


def test_half_duplex_rate_vanishes_at_low_snr():
    cfg = config_from_snr_inr(-60.0, 0.0, n_s=2, n_r=3)
    ch0, ch1 = _two_slots(cfg, 5)
    hd = half_duplex_reference(ch0, ch1, cfg)
    assert 0.0 <= hd.sum_rate < 1e-3


def test_half_duplex_ignores_loopback_error_level():
    cfg_a = config_from_snr_inr(5.0, 10.0, n_s=2, n_r=3)
    cfg_b = config_from_snr_inr(5.0, -10.0, n_s=2, n_r=3)
    ch0a, ch1a = _two_slots(cfg_a, 6)
    ch0b, ch1b = _two_slots(cfg_b, 6)
    hd_a = half_duplex_reference(ch0a, ch1a, cfg_a)
    hd_b = half_duplex_reference(ch0b, ch1b, cfg_b)
    assert hd_a.sum_rate == pytest.approx(hd_b.sum_rate, rel=1e-12)


@pytest.mark.parametrize(
    "fd,hd,expected",
    [(2.0, 1.0, "FD"), (0.9, 1.0, "HD"), (1.0, 1.0, "HD")],
)
def test_duplex_mode_select(fd, hd, expected):
    assert duplex_mode_select(fd, hd) == expected


def test_rate_requires_matching_lengths():
    cfg = config_from_snr_inr(5.0, 0.0, n_s=2, n_r=3)
    ch0, ch1 = _two_slots(cfg, 7)
    sol = alternate_optimize(ch1, ch0, ResidualSICovariance.zero(3), cfg)
    with pytest.raises(ValueError):
        achievable_sum_rate([ch0], [sol.f], sol, cfg)
