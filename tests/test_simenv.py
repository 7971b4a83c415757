"""Simulator contracts: determinism, dynamics, reward shape, thermal behavior."""

import math

import numpy as np
import pytest

from conftest import noiseless
from dvfsflow.errors import ConfigurationError, DomainError, StateError
from dvfsflow.simenv import (DvfsEnv, EnvConfig, ProcessorState, dynamics,
                             frequency_levels, initial_state, reward_components,
                             state_scales, steady_state_temp, throttle_factor)


def test_reset_is_deterministic_per_seed():
    cfg = EnvConfig()
    a = DvfsEnv(cfg, seed=7).reset(seed=7)
    b = DvfsEnv(cfg, seed=7).reset(seed=7)
    assert a == b


def test_reset_initializes_at_ambient_mid_level():
    cfg = EnvConfig()
    s = DvfsEnv(cfg).reset()
    assert s.temp == 25.0
    assert 0.0 <= s.freq <= 1.0
    mid = float(frequency_levels(cfg)[cfg.num_actions // 2])
    assert s.freq == mid
    # power/fps consistent with the dynamics equations at ambient
    assert s.power == pytest.approx(cfg.dyn_coeff * mid ** cfg.eta
                                    + cfg.static_coeff * cfg.ambient_temp)
    assert s.fps == pytest.approx(min(cfg.fps_cap, cfg.fps_slope * mid))


def test_invalid_config_names_field():
    with pytest.raises(ConfigurationError, match="eta"):
        EnvConfig(eta=2.0).validate()
    with pytest.raises(ConfigurationError, match="fps_cap"):
        EnvConfig(fps_cap=30.0, target_fps=60.0).validate()
    with pytest.raises(ConfigurationError, match="num_actions"):
        EnvConfig(num_actions=1).validate()


def test_ambient_temp_that_allows_non_positive_power_rejected():
    # The lowest power a state draws is the lowest level with the die at
    # ambient: 16 * 0.2**3 + 0.1 * ambient at the defaults, which is 0 at
    # ambient -1.28.  Below that the reward cannot be evaluated.
    with pytest.raises(ConfigurationError, match="ambient_temp"):
        EnvConfig(ambient_temp=-2.0).validate()
    with pytest.raises(ConfigurationError, match="ambient_temp"):
        EnvConfig(ambient_temp=-1.3).validate()
    cfg = EnvConfig(ambient_temp=-1.27)
    env = DvfsEnv(cfg, seed=0)
    for _ in range(cfg.episode_horizon):     # the lowest level throughout
        state, reward, _ = env.step(0)
        assert state.power > 0 and math.isfinite(reward)


def test_dynamic_power_scales_as_f_cubed():
    # doubling f with eta=3 multiplies the dynamic term by 8; use a 5-level
    # grid so that 2*f_min sits exactly on a level
    cfg = noiseless(EnvConfig(eta=3.0, num_actions=5))
    f = frequency_levels(cfg)
    assert f[1] == pytest.approx(2 * f[0])
    s = initial_state(cfg)
    lo = dynamics(s, 0, cfg)
    hi = dynamics(s, 1, cfg)
    dyn_lo = lo.power - cfg.static_coeff * s.temp
    dyn_hi = hi.power - cfg.static_coeff * s.temp
    assert dyn_hi / dyn_lo == pytest.approx(8.0, rel=1e-12)


def test_action_out_of_range_raises():
    cfg = EnvConfig()
    s = initial_state(cfg)
    with pytest.raises(DomainError):
        dynamics(s, cfg.num_actions, cfg)
    with pytest.raises(DomainError):
        dynamics(s, -1, cfg)


def test_temperature_converges_to_fixed_point_oracle():
    # oracle: iterate theta <- ambient + R_th * rho(f, theta) to its fixed point
    cfg = noiseless(EnvConfig())
    for action in (0, 5, 11):
        f = float(frequency_levels(cfg)[action])

        theta = cfg.ambient_temp
        for _ in range(10_000):
            theta = cfg.ambient_temp + cfg.thermal_resistance * (
                cfg.dyn_coeff * f ** cfg.eta + cfg.static_coeff * theta)
        oracle = theta

        s = initial_state(cfg)
        for _ in range(2_000):
            s = dynamics(s, action, cfg)
        assert s.temp == pytest.approx(oracle, abs=1e-6)
        assert steady_state_temp(f, cfg) == pytest.approx(oracle, abs=1e-9)


def test_contractive_config_with_static_coeff_times_r_above_c_settles_at_fixed_point():
    # static_coeff * R = 0.6 >= C = 0.5, yet the update factor is 1 - 1/1.5 + 0.4
    cfg = EnvConfig(thermal_capacitance=0.5, thermal_resistance=3.0, static_coeff=0.2)
    cfg.validate()
    s = initial_state(cfg)
    for _ in range(2_000):                  # the top level, no noise
        s = dynamics(s, cfg.num_actions - 1, cfg)
    # fixed point (ambient + R * dyn_coeff) / (1 - R * static_coeff) = 73 / 0.4
    assert steady_state_temp(1.0, cfg) == pytest.approx(182.5, abs=1e-9)
    assert s.temp == pytest.approx(182.5, abs=1e-9)


def test_lowest_level_fps_formula():
    cfg = noiseless(EnvConfig())
    s = initial_state(cfg)
    nxt = dynamics(s, 0, cfg)
    f0 = float(frequency_levels(cfg)[0])
    expected = min(cfg.fps_cap, cfg.fps_slope * f0) * throttle_factor(nxt.temp, cfg)
    assert nxt.fps == pytest.approx(expected, rel=1e-12)


def test_fps_monotone_and_dyn_power_strictly_increasing_in_level():
    cfg = noiseless(EnvConfig())
    s = ProcessorState(fps=50.0, freq=0.5, power=5.0, temp=40.0)
    prev_fps, prev_dyn = -1.0, -1.0
    for a in range(cfg.num_actions):
        nxt = dynamics(s, a, cfg)
        dyn = nxt.power - cfg.static_coeff * s.temp
        # temperature differs per action; compare fps at the held (current) temp
        fps_fixed_temp = min(cfg.fps_cap, cfg.fps_slope * nxt.freq) * throttle_factor(s.temp, cfg)
        assert fps_fixed_temp >= prev_fps
        assert dyn > prev_dyn
        prev_fps, prev_dyn = fps_fixed_temp, dyn


def test_reward_components_paper_cases():
    cfg = EnvConfig(target_fps=60.0, target_temp=50.0)
    mk = lambda fps, temp: ProcessorState(fps=fps, freq=0.5, power=4.0, temp=temp)
    assert reward_components(mk(60.0, 40.0), cfg).u == 1.0
    assert reward_components(mk(30.0, 40.0), cfg).u == 0.5
    assert reward_components(mk(60.0, 50.0), cfg).v == -2.0
    # theta one degree under target: v = 0.2 * tanh(1)
    assert reward_components(mk(60.0, 49.0), cfg).v == pytest.approx(0.2 * math.tanh(1.0))
    rc = reward_components(mk(30.0, 49.0), cfg)
    assert rc.total == pytest.approx(rc.u + rc.v + rc.p)
    assert rc.p == pytest.approx(cfg.reward_scale / 4.0)


def test_reward_rejects_nonpositive_power():
    cfg = EnvConfig()
    with pytest.raises(DomainError):
        reward_components(ProcessorState(fps=60, freq=0.5, power=0.0, temp=30), cfg)


def test_reward_bounds_on_noiseless_rollouts():
    cfg = noiseless(EnvConfig())
    rng = np.random.default_rng(3)
    env = DvfsEnv(cfg, seed=3)
    for _ in range(cfg.episode_horizon):
        s, _, _ = env.step(int(rng.integers(cfg.num_actions)))
        rc = reward_components(s, cfg)
        assert 0.0 < rc.u <= 1.0
        assert -2.0 <= rc.v <= 0.2
        assert rc.p > 0.0


def test_step_horizon_and_done_flag():
    cfg = EnvConfig(episode_horizon=1)
    env = DvfsEnv(cfg, seed=0)
    _, _, done = env.step(3)
    assert done
    with pytest.raises(StateError):
        env.step(3)


def test_step_reward_matches_reward_components_of_next():
    cfg = noiseless(EnvConfig())
    env = DvfsEnv(cfg, seed=1)
    for a in (0, 4, 11, 7):
        nxt, r, _ = env.step(a)
        assert r == reward_components(nxt, cfg).total


def test_noise_free_rollouts_bit_reproducible():
    cfg = noiseless(EnvConfig())
    actions = np.random.default_rng(9).integers(0, cfg.num_actions, size=50)

    def rollout():
        env = DvfsEnv(cfg, seed=5)
        return [env.step(int(a)) for a in actions]

    assert rollout() == rollout()


def test_noisy_rollouts_reproducible_per_seed():
    cfg = EnvConfig()
    actions = list(np.random.default_rng(9).integers(0, cfg.num_actions, size=50))

    def rollout(seed):
        env = DvfsEnv(cfg, seed=seed)
        return [env.step(int(a)) for a in actions]

    assert rollout(11) == rollout(11)
    assert rollout(11) != rollout(12)


def test_thermal_sequence_monotone_toward_fixed_point():
    cfg = noiseless(EnvConfig())
    for action in (0, 11):
        target = steady_state_temp(float(frequency_levels(cfg)[action]), cfg)
        s = initial_state(cfg)
        temps = [s.temp]
        for _ in range(300):
            s = dynamics(s, action, cfg)
            temps.append(s.temp)
        diffs = np.diff(temps)
        assert np.all(diffs >= -1e-9) if target >= temps[0] else np.all(diffs <= 1e-9)
        assert abs(temps[-1] - target) < 0.05
        assert max(temps) <= max(target, temps[0]) + 1e-9


def test_temperature_never_below_ambient():
    cfg = EnvConfig()
    env = DvfsEnv(cfg, seed=2)
    rng = np.random.default_rng(2)
    for _ in range(cfg.episode_horizon):
        s, _, _ = env.step(int(rng.integers(cfg.num_actions)))
        assert s.temp >= cfg.ambient_temp
        assert s.fps >= 0.0
        assert s.power > 0.0
        assert 0.0 <= s.freq <= 1.0


def test_normalize_state_is_order_unity():
    # the Q-net's inputs: a state divided by the scales
    cfg = EnvConfig()
    s = initial_state(cfg)
    v = np.array([s.fps, s.freq, s.power, s.temp]) / state_scales(cfg)
    assert v.shape == (4,)
    assert np.all(np.abs(v) <= 2.0)


def test_frequency_table_follows_config_changes():
    # The level table is cached; EnvConfig is mutable, so a changed config must
    # still get np.linspace's levels for its current values, bit for bit.
    cfg = EnvConfig()
    s = initial_state(cfg)
    levels = frequency_levels(cfg)
    assert levels.tobytes() == np.linspace(0.2, 1.0, 12).tobytes()
    levels[0] = 0.9                            # a caller's copy, not the cache
    assert dynamics(s, 0, cfg).freq == 0.2
    cfg.min_freq, cfg.num_actions = 0.3, 5
    want = np.linspace(0.3, 1.0, 5)
    assert frequency_levels(cfg).tobytes() == want.tobytes()
    assert [dynamics(s, a, cfg).freq for a in range(5)] == want.tolist()
    assert initial_state(cfg).freq == want[2]
    quiet = noiseless(cfg)
    quiet.min_freq = 0.5
    assert dynamics(s, 0, quiet).freq == 0.5 and dynamics(s, 0, cfg).freq == 0.3
