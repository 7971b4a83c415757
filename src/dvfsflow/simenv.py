"""Simulated embedded processor under DVFS control.

The environment couples frequency, power, temperature and frame rate through
a first-order RC thermal model: raising the clock raises dynamic power
(proportional to f^eta), power heats the die, and an overheated die throttles
the achievable frame rate.  The reward trades frame rate against temperature
and power draw.  With zero observation noise and a fixed seed every rollout
is bit-reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, DomainError, StateError, check_domains, domain


@dataclass(frozen=True)
class ProcessorState:
    """One DVFS observation: frame rate, normalized frequency, power, die temperature."""

    fps: float
    freq: float
    power: float
    temp: float


@dataclass
class EnvConfig:
    num_actions: int = domain(">= 2", default=12)
    eta: float = domain("> 2", default=3.0)                    # technology exponent
    dyn_coeff: float = domain("> 0", default=16.0)             # watts at f = 1 (dynamic part)
    static_coeff: float = domain("> 0", default=0.1)           # watts per degree (leakage)
    thermal_capacitance: float = domain("> 0", default=1.2)
    thermal_resistance: float = domain("> 0", default=3.0)
    ambient_temp: float = 25.0                                 # bounded by the power floor
    fps_slope: float = domain("> 0", default=120.0)
    fps_cap: float = domain("> 0", default=120.0)
    target_fps: float = domain("> 0", default=60.0)
    target_temp: float = domain("> 0", default=50.0)
    reward_scale: float = domain("> 0", default=2.0)           # beta in the power term beta / rho
    noise_std_fps: float = domain(">= 0", default=1.2)         # 1% of the fps scale
    noise_std_temp: float = domain(">= 0", default=0.5)        # 1% of the temperature scale
    min_freq: float = domain("(0, 1)", default=0.2)
    episode_horizon: int = domain(">= 1", default=200)

    def validate(self) -> None:
        check_domains("env", self)
        if self.fps_cap < self.target_fps:
            raise ConfigurationError(f"env.fps_cap must be >= env.target_fps = "
                                     f"{self.target_fps!r}, got {self.fps_cap!r}")
        # The lowest power a reachable state draws: the lowest level with the die
        # at ambient, which temperatures never fall below.  The reward divides by it.
        p_min = self.dyn_coeff * self.min_freq ** self.eta
        if p_min + self.static_coeff * self.ambient_temp <= 0:
            raise ConfigurationError(
                f"env.ambient_temp must be > {-p_min / self.static_coeff:.6g}, so that the "
                f"lowest power dyn_coeff * min_freq ** eta + static_coeff * ambient_temp "
                f"stays > 0, got {self.ambient_temp!r}")
        # The RC update must contract or temperature diverges; its factor a < 1 also
        # gives static_coeff * thermal_resistance < 1, steady_state_temp's denominator.
        c, r, cs = self.thermal_capacitance, self.thermal_resistance, self.static_coeff
        a = 1.0 - 1.0 / (c * r) + cs / c
        if not (-1.0 < a < 1.0):
            raise ConfigurationError(
                f"env.thermal_capacitance, env.thermal_resistance and env.static_coeff "
                f"give a non-contractive thermal update: factor {a!r} outside (-1, 1)")


@functools.lru_cache(maxsize=64)
def _level_table(min_freq: float, num_actions: int) -> tuple[float, ...]:
    # Keyed on the values, not the (mutable) config, so it cannot go stale.
    return tuple(np.linspace(min_freq, 1.0, num_actions).tolist())


def frequency_levels(config: EnvConfig) -> np.ndarray:
    """The k discrete normalized frequencies, uniformly spaced in [min_freq, 1]."""
    return np.array(_level_table(config.min_freq, config.num_actions))


def throttle_factor(temp: float, config: EnvConfig) -> float:
    """Multiplies fps by < 1 once the die exceeds the target temperature."""
    if temp < config.target_temp:
        return 1.0
    return 1.0 / (1.0 + 0.1 * (temp - config.target_temp))


def state_scales(config: EnvConfig) -> np.ndarray:
    """Nominal per-field ranges used to normalize states for function approximators."""
    power_scale = config.dyn_coeff + config.static_coeff * 100.0
    return np.array([config.fps_cap, 1.0, power_scale, 100.0], dtype=np.float64)


def dynamics(state: ProcessorState, action: int, config: EnvConfig,
             rng: Optional[np.random.Generator] = None) -> ProcessorState:
    """One transition of the processor model.

    f' = level(action); rho' = c_d f'^eta + c_s * temp;
    temp' = temp + (1/C)(rho' - (temp - ambient)/R_th);
    fps' = min(fps_cap, fps_slope * f') * throttle(temp') + noise, clamped >= 0.
    Pass ``rng`` to draw observation noise on fps and temperature.
    """
    if not (0 <= int(action) < config.num_actions) or int(action) != action:
        raise DomainError(f"action {action!r} outside 0..{config.num_actions - 1}")
    f_next = _level_table(config.min_freq, config.num_actions)[int(action)]
    p_dyn = config.dyn_coeff * f_next ** config.eta
    p_static = config.static_coeff * state.temp
    power = p_dyn + p_static
    temp = state.temp + (power - (state.temp - config.ambient_temp)
                         / config.thermal_resistance) / config.thermal_capacitance
    if rng is not None and config.noise_std_temp > 0:
        temp += config.noise_std_temp * rng.standard_normal()
    temp = max(temp, config.ambient_temp)
    fps = min(config.fps_cap, config.fps_slope * f_next) * throttle_factor(temp, config)
    if rng is not None and config.noise_std_fps > 0:
        fps += config.noise_std_fps * rng.standard_normal()
    fps = max(fps, 0.0)
    return ProcessorState(fps=fps, freq=f_next, power=power, temp=temp)


class RewardComponents(NamedTuple):
    u: float      # frame-rate term
    v: float      # temperature term
    p: float      # power term beta / rho
    total: float


def reward_components(state: ProcessorState, config: EnvConfig) -> RewardComponents:
    """Reward R = u + v + beta/rho with the piecewise fps and temperature terms."""
    if state.power <= 0:
        raise DomainError("power must be > 0 to evaluate the reward")
    if state.fps >= config.target_fps:
        u = 1.0
    else:
        u = state.fps / config.target_fps
    if state.temp < config.target_temp:
        v = 0.2 * math.tanh(config.target_temp - state.temp)
    else:
        v = -2.0
    p = config.reward_scale / state.power
    return RewardComponents(u=u, v=v, p=p, total=u + v + p)


def initial_state(config: EnvConfig) -> ProcessorState:
    """Deterministic start: mid frequency level at ambient temperature."""
    mid = config.num_actions // 2
    f = _level_table(config.min_freq, config.num_actions)[mid]
    power = config.dyn_coeff * f ** config.eta + config.static_coeff * config.ambient_temp
    fps = min(config.fps_cap, config.fps_slope * f) * throttle_factor(config.ambient_temp, config)
    return ProcessorState(fps=fps, freq=f, power=power, temp=config.ambient_temp)


def steady_state_temp(freq: float, config: EnvConfig) -> float:
    """Fixed point of the noise-free thermal update for a held frequency."""
    p_dyn = config.dyn_coeff * freq ** config.eta
    denom = 1.0 - config.thermal_resistance * config.static_coeff
    return (config.ambient_temp + config.thermal_resistance * p_dyn) / denom


class DvfsEnv:
    """Stateful episode wrapper around the pure dynamics/reward functions.

    Single-threaded: each instance owns its RNG and step counter.  Stepping a
    finished episode raises :class:`StateError`; call :meth:`reset` first.
    """

    def __init__(self, config: EnvConfig, seed=0):
        config.validate()
        self.config = config
        self._seed = seed
        self.state = initial_state(config)
        self.steps = 0
        self.rng = np.random.default_rng(self._seed)

    def reset(self, seed=None) -> ProcessorState:
        if seed is not None:
            self._seed = seed
        self.rng = np.random.default_rng(self._seed)
        self.state = initial_state(self.config)
        self.steps = 0
        return self.state

    def step(self, action: int) -> tuple[ProcessorState, float, bool]:
        if self.steps >= self.config.episode_horizon:
            raise StateError("episode finished; call reset() before stepping again")
        nxt = dynamics(self.state, action, self.config, self.rng)
        reward = reward_components(nxt, self.config).total
        self.state = nxt
        self.steps += 1
        done = self.steps >= self.config.episode_horizon
        return nxt, reward, done
