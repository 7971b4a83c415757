"""Simulated embedded processor under DVFS control.

The environment couples frequency, power, temperature and frame rate through
a first-order RC thermal model: raising the clock raises dynamic power
(proportional to f^eta), power heats the die, and an overheated die throttles
the achievable frame rate.  The reward trades frame rate against temperature
and power draw.  With zero observation noise and a fixed seed every rollout
is bit-reproducible.

The law of one step is stated in two forms with the same bits: the scalar
:func:`dynamics` + :func:`reward_components`, and :func:`law`, which takes
arrays of temperatures, actions and standard normals.  Both, and
:func:`initial_state`, read the frequency, dynamic power and fps ceiling of
each level from the one :class:`LevelTable` of the config's values,
:func:`level_table`.  :class:`DvfsEnv` keeps the scalar form: a one-row
:func:`law` call with its two normal draws costs about 40 us, the scalar pair
about 4 us (2-core x86 host, Python 3.11, numpy 2.4), so a run of 8,000 steps
would spend some 0.3 s more in the env.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, DomainError, StateError, check_domains, domain


class ProcessorState(NamedTuple):
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
        p_min = level_table(self).p_dyn[0]
        if p_min + self.static_coeff * self.ambient_temp <= 0:
            raise ConfigurationError(
                f"env.ambient_temp must be > {-p_min / self.static_coeff:.6g}, so that the "
                f"lowest power dyn_coeff * min_freq ** eta + static_coeff * ambient_temp "
                f"stays > 0, got {self.ambient_temp!r}")
        # The RC update must contract or temperature diverges; its factor a < 1 also
        # gives static_coeff * thermal_resistance < 1, the steady temperature's denominator.
        c, r, cs = self.thermal_capacitance, self.thermal_resistance, self.static_coeff
        a = 1.0 - 1.0 / (c * r) + cs / c
        if not (-1.0 < a < 1.0):
            raise ConfigurationError(
                f"env.thermal_capacitance, env.thermal_resistance and env.static_coeff "
                f"give a non-contractive thermal update: factor {a!r} outside (-1, 1)")


class LevelTable(NamedTuple):
    """The law's per-level quantities in Python floats, indexed by action."""
    freq: tuple[float, ...]             # f, num_actions levels in [min_freq, 1]
    p_dyn: tuple[float, ...]            # dyn_coeff * f ** eta
    fps_top: tuple[float, ...]          # min(fps_cap, fps_slope * f)
    array: np.ndarray                   # the three as rows of a read-only float64 array


@functools.lru_cache(maxsize=64)
def _levels(min_freq, num_actions, dyn_coeff, eta, fps_cap, fps_slope) -> LevelTable:
    # Keyed on the values, not the (mutable) config, so it cannot go stale.
    freq = tuple(np.linspace(min_freq, 1.0, num_actions).tolist())
    p_dyn = tuple(dyn_coeff * f ** eta for f in freq)
    fps_top = tuple(float(min(fps_cap, fps_slope * f)) for f in freq)
    array = np.array([freq, p_dyn, fps_top])
    array.flags.writeable = False
    return LevelTable(freq, p_dyn, fps_top, array)


def level_table(config: EnvConfig) -> LevelTable:
    """The :class:`LevelTable` of ``config``'s current values, built once for each."""
    return _levels(config.min_freq, config.num_actions, config.dyn_coeff, config.eta,
                   config.fps_cap, config.fps_slope)


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
    levels, a = level_table(config), int(action)
    power = levels.p_dyn[a] + config.static_coeff * state.temp
    temp = state.temp + (power - (state.temp - config.ambient_temp)
                         / config.thermal_resistance) / config.thermal_capacitance
    if rng is not None and config.noise_std_temp > 0:
        temp += config.noise_std_temp * rng.standard_normal()
    temp = max(temp, config.ambient_temp)
    fps = levels.fps_top[a] * throttle_factor(temp, config)
    if rng is not None and config.noise_std_fps > 0:
        fps += config.noise_std_fps * rng.standard_normal()
    fps = max(fps, 0.0)
    return ProcessorState(fps=fps, freq=levels.freq[a], power=power, temp=temp)


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


class LawStep(NamedTuple):
    """Arrays of one step of the law, broadcast over temperatures and actions."""
    fps: np.ndarray
    freq: np.ndarray
    power: np.ndarray
    temp: np.ndarray
    reward: np.ndarray


def law(temp, action, config: EnvConfig, temp_noise=None, fps_noise=None) -> LawStep:
    """:func:`dynamics` + :func:`reward_components` over arrays.

    ``temp`` (the state temperatures) broadcasts against ``action``, and so do
    ``temp_noise`` and ``fps_noise``, standard normals that scale the temp and
    fps noise when their std is > 0; pass the normals a :class:`DvfsEnv` draws
    (temp first, then fps) to replay its stream.  The float64 operations run in
    ``dynamics``' order, ``f ** eta`` and ``min(fps_cap, fps_slope * f)`` in
    Python floats and ``math.tanh`` per value, so every entry has the bits of
    the scalar path, and a bad action or a power <= 0 raises as it does there.
    """
    a = np.asarray(action)
    ok = (a >= 0) & (a < config.num_actions) & (a == np.floor(a))
    if not ok.all():
        raise DomainError(f"action {a[~ok].flat[0].item()!r} outside "
                          f"0..{config.num_actions - 1}")
    freq, p_dyn, fps_top = level_table(config).array[:, a.astype(np.intp)]
    temp = np.asarray(temp, dtype=np.float64)
    power = p_dyn + config.static_coeff * temp
    nxt = temp + (power - (temp - config.ambient_temp)
                  / config.thermal_resistance) / config.thermal_capacitance
    if temp_noise is not None and config.noise_std_temp > 0:
        nxt = nxt + config.noise_std_temp * np.asarray(temp_noise)
    nxt = np.where(config.ambient_temp > nxt, config.ambient_temp, nxt)     # max(nxt, ambient)
    cool = nxt < config.target_temp
    # throttle_factor; the floor at 0 only keeps the unused cool entries finite
    over = np.maximum(nxt - config.target_temp, 0.0)
    fps = fps_top * np.where(cool, 1.0, 1.0 / (1.0 + 0.1 * over))
    if fps_noise is not None and config.noise_std_fps > 0:
        fps = fps + config.noise_std_fps * np.asarray(fps_noise)
    fps = np.where(0.0 > fps, 0.0, fps)                                      # max(fps, 0.0)
    if (power <= 0).any():
        raise DomainError("power must be > 0 to evaluate the reward")
    u = np.where(fps >= config.target_fps, 1.0, fps / config.target_fps)
    tanh = np.array([math.tanh(x) for x in (config.target_temp - nxt).ravel().tolist()])
    v = np.where(cool, 0.2 * tanh.reshape(nxt.shape), -2.0)
    reward = u + v + config.reward_scale / power
    return LawStep(fps=fps, freq=np.broadcast_to(freq, reward.shape), power=power, temp=nxt,
                   reward=reward)


def initial_state(config: EnvConfig) -> ProcessorState:
    """Deterministic start: mid frequency level at ambient temperature."""
    levels, mid = level_table(config), config.num_actions // 2
    power = levels.p_dyn[mid] + config.static_coeff * config.ambient_temp
    fps = levels.fps_top[mid] * throttle_factor(config.ambient_temp, config)
    return ProcessorState(fps=fps, freq=levels.freq[mid], power=power, temp=config.ambient_temp)


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
