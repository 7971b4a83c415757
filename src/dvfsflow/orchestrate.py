"""End-to-end experiment loop and the three baselines.

One run = one thread of control: act epsilon-greedily in the simulator, store
real transitions in M, periodically (re)train the generative model and fill
the synthetic memory M', and train the DQN on mixed batches once the combined
insertion counters exceed the exploit threshold.

A method is a preset, one row of :data:`METHODS`: which generator fills M'
(a flow, the model-based planner or none), whether the flow's loss is
weighted by the forest's feature weights, and how many bootstrap replicates
of the latent pool it trains on.  :func:`fit_flow_generator` is the one
flow refit, shared by the run loop and ``dvfsflow gen``.

A run allocates the arrays of its per-step work once and keeps them to its
end: the Q-net's :class:`nets.Trainer` (params, Adam moments, gradient and
layer arrays), the :class:`agent.QScratch` beside it, sized for the
``batch_size`` rows of every Q-step, which every step's greedy forward and
every Q-step write into, and the two rings of M and M', which grow to their
capacity and are then overwritten one row per env step.  A step still
allocates its env state, its encoded row, the sampled batch and its run-log
entries.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import agent as agent_mod
from . import flow as flow_mod
from . import nets
from .agent import AgentConfig, ReplayMemory
from .errors import (ConfigurationError, DomainError, InsufficientDataError, NumericError,
                     check_domains, domain)
from .flow import FMConfig, Normalizer, TransitionLayout
from .forest import ForestConfig, transition_feature_weights
from .simenv import DvfsEnv, EnvConfig, ProcessorState, _level_table


class Method(NamedTuple):
    generator: Optional[str]                # "flow", "planner" or None (M' stays empty)
    forest_lambda: bool = False             # forest feature weights, else uniform
    bootstrap_count: Optional[int] = None   # replicates B; None keeps flow.bootstrap_count


METHODS = {
    # bootstrapped flow matching with forest feature weights (the paper's method)
    "dfm": Method("flow", forest_lambda=True),
    # plain conditional flow matching: uniform weights, one replicate
    "pure_fm": Method("flow", bootstrap_count=1),
    # dense transition predictor planned from resampled real (s, a) seeds
    "model_based": Method("planner"),
    # no synthetic data at all
    "model_free": Method(None),
}

RUNLOG_COLUMNS = ["t", "fps", "freq", "power", "temp", "action", "reward",
                  "epsilon", "max_q", "agent_loss", "fm_loss"]
_LOSS_COLUMNS = ("agent_loss", "fm_loss")               # empty before the first update


@dataclass
class ScheduleConfig:
    horizon: int = domain(">= 1", default=200)            # H, Table-1 experiment length
    exploit_threshold: int = domain(">= 1", default=100)  # zeta_e: train once phi_M + phi_M' > it
    fm_retrain_period: int = domain(">= 1", default=50)   # zeta_d, in env steps
    planning_breadth: int = domain(">= 1", default=1000)  # zeta_b: synthetic rows per (re)train
    batch_size: int = domain(">= 1", default=32)          # beta
    fm_train_start: int = domain(">= 1", default=32)      # len(M) floor of can_train
    real_capacity: int = domain(">= 1", default=10_000)   # |M|
    synth_capacity: int = domain(">= 1", default=10_000)  # |M'|
    lr_reset_period: int = domain(">= 1", default=100)    # Q-steps between Adam resets
    synth_fraction: float = domain("[0, 1]", default=0.5)  # share of each batch drawn from M'

    def validate(self) -> None:
        check_domains("schedule", self)
        if self.planning_breadth > self.synth_capacity:
            raise ConfigurationError(
                f"schedule.planning_breadth must be <= schedule.synth_capacity = "
                f"{self.synth_capacity}, got {self.planning_breadth}")

    def can_train(self, phi: int, held: int) -> bool:
        """Whether a memory that has taken ``phi`` pushes and holds ``held`` rows
        is enough to fit a generator on: the planning loop's phi_M > beta and
        the floor len(M) >= fm_train_start.  ``run`` and ``gen`` both ask it."""
        return phi > self.batch_size and held >= self.fm_train_start


@dataclass
class RunLog:
    """Per-step record of one experiment plus the artifacts evaluation needs."""

    method: str
    seed: int
    config: dict
    t: list[int] = field(default_factory=list)
    states: list[ProcessorState] = field(default_factory=list)
    actions: list[int] = field(default_factory=list)
    rewards: list[float] = field(default_factory=list)
    epsilons: list[float] = field(default_factory=list)
    max_q: list[float] = field(default_factory=list)
    agent_loss: list[Optional[float]] = field(default_factory=list)
    fm_loss: list[Optional[float]] = field(default_factory=list)
    phi_real: list[int] = field(default_factory=list)
    phi_synth: list[int] = field(default_factory=list)
    fm_train_steps: list[int] = field(default_factory=list)
    agent_train_steps: list[int] = field(default_factory=list)
    lambda_weights: Optional[list[float]] = None
    fm_loss_curves: list[list[float]] = field(default_factory=list)
    real_flat: Optional[np.ndarray] = None      # flattened M at end of run
    synth_raw: Optional[np.ndarray] = None      # last generated continuous batch


def regret_oracle(env_config: EnvConfig) -> Callable[[ProcessorState], float]:
    """Best noise-free one-step expected reward from a state, over all actions.

    The actions of one state are evaluated together, with the float64
    operations of ``dynamics`` and ``reward_components`` in their order,
    ``f ** eta`` in Python floats and ``math.tanh`` per value, so every
    action's reward has the bits of the scalar path.
    """
    c = env_config
    levels = _level_table(c.min_freq, c.num_actions)
    p_dyn = np.array([c.dyn_coeff * f ** c.eta for f in levels])
    fps_top = np.array([min(c.fps_cap, c.fps_slope * f) for f in levels])

    def mu_star(state: ProcessorState) -> float:
        power = p_dyn + c.static_coeff * state.temp
        if power.min() <= 0:
            raise DomainError("power must be > 0 to evaluate the reward")
        temp = state.temp + (power - (state.temp - c.ambient_temp)
                             / c.thermal_resistance) / c.thermal_capacitance
        temp = np.where(c.ambient_temp > temp, c.ambient_temp, temp)   # max(temp, ambient)
        cool = temp < c.target_temp
        # throttle_factor; the floor at 0 only keeps the unused cool entries finite.
        # The throttled fps is > 0, so dynamics' max(fps, 0.0) keeps it.
        over = np.maximum(temp - c.target_temp, 0.0)
        fps = fps_top * np.where(cool, 1.0, 1.0 / (1.0 + 0.1 * over))
        u = np.where(fps >= c.target_fps, 1.0, fps / c.target_fps)
        tanh = np.array([math.tanh(x) for x in (c.target_temp - temp).tolist()])
        v = np.where(cool, 0.2 * tanh, -2.0)
        return float((u + v + c.reward_scale / power).max())

    return mu_star


class _ModelBasedPlanner:
    """Dense-net transition predictor: (s, a) -> (s', r, done) in normalized space."""

    def __init__(self, fm_config: FMConfig, seed):
        self.fm_config = fm_config
        self.params = nets.init_mlp([5, 32, 32, 6], seed=seed)
        self.in_norm: Optional[Normalizer] = None
        self.out_norm: Optional[Normalizer] = None

    def train(self, data: np.ndarray, seed) -> float:
        """Fit on the flattened (n, 11) real memory; returns the last epoch's loss."""
        x, y = data[:, :5], data[:, 5:]
        self.in_norm = Normalizer.fit(x)
        self.out_norm = Normalizer.fit(y)
        xn, yn = self.in_norm.normalize(x), self.out_norm.normalize(y)
        cfg = self.fm_config
        weights = np.ones(6)
        self.params, loss_curve = nets.fit(
            self.params, cfg.learning_rate, xn.shape[0], cfg.epochs, cfg.batch_size,
            np.random.default_rng(seed), lambda rows: (xn[rows], yn[rows], weights))
        return loss_curve[-1]

    def plan(self, data: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
        """Predict n rows from real (s, a) seeds of the flattened memory, drawn
        without replacement per pass (full reshuffled passes over the rows as
        often as needed)."""
        if self.in_norm is None:
            raise InsufficientDataError("planner is untrained")
        m = data.shape[0]
        idx = np.concatenate([rng.permutation(m) for _ in range(-(-n // m))])[:n]
        seeds = data[idx][:, :5]
        pred = self.out_norm.denormalize(
            nets.forward_batch(self.params, self.in_norm.normalize(seeds)))
        return np.concatenate([seeds, pred], axis=1)


def fit_flow_generator(real: np.ndarray, n: int, forest_lambda: bool, fm_config: FMConfig,
                       forest_config: ForestConfig, seed: int, *tail: int,
                       ) -> tuple[flow_mod.FlowModel, np.ndarray]:
    """Train a flow on the (rows, 11) transitions ``real`` and draw ``n`` raw
    rows from it; returns (flow, rows).

    The loss weights are the forest's feature weights when ``forest_lambda``
    and ``real`` holds at least ``forest_config.min_samples`` rows, uniform
    otherwise.  The forest, the flow's init and training, and the sampler draw
    on the streams ``[seed, 30 | 40 | 50, *tail]``.
    """
    if forest_lambda and len(real) >= forest_config.min_samples:
        lam = transition_feature_weights(real, forest_config,
                                         np.random.default_rng([seed, 30, *tail]))
    else:
        lam = np.full(real.shape[1], 1.0 / real.shape[1])
    model = flow_mod.train_flow_model(real, lam, fm_config, seed=[seed, 40, *tail])
    return model, flow_mod.generate_raw(model, n, np.random.default_rng([seed, 50, *tail]))


def run_experiment(method: str, env_config: EnvConfig, agent_config: AgentConfig,
                   schedule: ScheduleConfig, seed: int, fm_config: FMConfig,
                   forest_config: ForestConfig) -> RunLog:
    """Execute one experiment and return its RunLog.

    Replays of (method, seed, configs) are bit-identical: every random stream
    is derived from ``seed`` plus a fixed stream tag.
    """
    if method not in METHODS:
        raise ConfigurationError(
            f"method must be one of {', '.join(METHODS)}, got {method!r}")
    preset = METHODS[method]
    sections = {"env": env_config, "agent": agent_config, "schedule": schedule,
                "flow": fm_config, "forest": forest_config}
    for section in sections.values():
        section.validate()

    log = RunLog(method=method, seed=seed, config={
        "method": method, "seed": seed, **{k: asdict(v) for k, v in sections.items()}})
    if preset.bootstrap_count is not None:
        fm_config = replace(fm_config, bootstrap_count=preset.bootstrap_count)
    layout = TransitionLayout(num_actions=env_config.num_actions,
                              ambient_temp=env_config.ambient_temp)
    env = DvfsEnv(env_config, seed=[seed, 1])
    action_rng = np.random.default_rng([seed, 2])
    sample_rng = np.random.default_rng([seed, 3])

    qnet = agent_mod.init_qnet(env_config, agent_config, seed=[seed, 4])
    target = qnet.copy()
    trainer = nets.Trainer(qnet, agent_config.learning_rate)
    scratch = agent_mod.QScratch(env_config, qnet.layer_sizes, schedule.batch_size)

    memory = ReplayMemory(schedule.real_capacity, "M")
    synth_memory = ReplayMemory(schedule.synth_capacity, "M'")
    planner = (_ModelBasedPlanner(fm_config, seed=[seed, 5])
               if preset.generator == "planner" else None)

    epsilon = agent_config.epsilon_init
    train_count = 0
    retrain_count = 0
    episode = 0

    for i in range(1, schedule.horizon + 1):
        state = env.state
        q = agent_mod.q_values(trainer.params, state, scratch)
        action = agent_mod.select_action(q, epsilon, action_rng)
        max_q_val = float(q.max())
        nxt, reward, done = env.step(action)
        memory.push(flow_mod.encode_transition(state, action, reward, nxt, done, layout))

        fm_loss_val: Optional[float] = None
        if (preset.generator is not None and i % schedule.fm_retrain_period == 0
                and schedule.can_train(memory.phi, len(memory))):
            retrain_count += 1
            real = memory.rows()
            if planner is not None:
                fm_loss_val = planner.train(real, seed=[seed, 20, retrain_count])
                raw = planner.plan(real, schedule.planning_breadth, sample_rng)
            else:
                model, raw = fit_flow_generator(real, schedule.planning_breadth,
                                                preset.forest_lambda, fm_config,
                                                forest_config, seed, retrain_count)
                fm_loss_val = model.loss_curve[-1]
                log.fm_loss_curves.append(list(model.loss_curve))
                log.lambda_weights = model.weights.tolist()
            synth_memory.push(flow_mod.canonical_rows(raw, layout))
            log.synth_raw = raw
            log.fm_train_steps.append(i)

        agent_loss_val: Optional[float] = None
        if memory.phi + synth_memory.phi > schedule.exploit_threshold:
            n_synth = (int(round(schedule.batch_size * schedule.synth_fraction))
                       if len(synth_memory) else 0)
            n_real = schedule.batch_size - n_synth
            if len(memory) >= n_real and len(synth_memory) >= n_synth:
                batch = memory.sample(n_real, sample_rng)
                if n_synth:
                    batch = np.concatenate([batch, synth_memory.sample(n_synth, sample_rng)])
                agent_loss_val = agent_mod.train_q_step(
                    trainer, target, batch, agent_config, scratch)
                train_count += 1
                log.agent_train_steps.append(i)
                if train_count % schedule.lr_reset_period == 0:
                    trainer.reset_adam(agent_config.learning_rate)
                if train_count % agent_config.target_sync_period == 0:
                    target = trainer.params.copy()

        epsilon_used = epsilon
        epsilon = agent_mod.decay_epsilon(epsilon, agent_config)

        log.t.append(i)
        log.states.append(state)
        log.actions.append(action)
        log.rewards.append(float(reward))
        log.epsilons.append(float(epsilon_used))
        log.max_q.append(max_q_val)
        log.agent_loss.append(agent_loss_val)
        log.fm_loss.append(fm_loss_val)
        log.phi_real.append(memory.phi)
        log.phi_synth.append(synth_memory.phi)

        if done and i < schedule.horizon:
            episode += 1
            env.reset(seed=[seed, 1, episode])

    log.real_flat = memory.rows()
    return log


def runlog_to_csv(log: RunLog, path: str) -> None:
    """One row per step with the pinned column set; ``csv`` writes each float
    as its repr and each None (a loss before the first update) as an empty cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUNLOG_COLUMNS)
        writer.writerows(
            (t, s.fps, s.freq, s.power, s.temp, a, r, eps, q, agent_loss, fm_loss)
            for t, s, a, r, eps, q, agent_loss, fm_loss in zip(
                log.t, log.states, log.actions, log.rewards, log.epsilons, log.max_q,
                log.agent_loss, log.fm_loss))


def runlog_from_csv(path: str, method: str = "", seed: int = -1) -> RunLog:
    """Rebuild the per-step record from a CSV written by :func:`runlog_to_csv`.

    A row without 11 cells or a non-numeric cell raises :class:`DomainError`
    and a NaN/inf cell :class:`NumericError`, each naming the path and line;
    empty loss cells read as None.  A file with no rows raises
    :class:`DomainError` naming the path.
    """
    log = RunLog(method=method, seed=seed, config={})
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != RUNLOG_COLUMNS:
            raise DomainError(f"unexpected run-log header in {path}")
        for cells in reader:
            where = f"{path} line {reader.line_num}"
            if len(cells) != len(RUNLOG_COLUMNS):
                raise DomainError(
                    f"{where}: expected {len(RUNLOG_COLUMNS)} cells, got {len(cells)}")
            row = dict(zip(RUNLOG_COLUMNS, cells))
            try:
                t, action = int(row["t"]), int(row["action"])
                v = {k: float(c) if c or k not in _LOSS_COLUMNS else None
                     for k, c in row.items()}
            except ValueError as exc:
                raise DomainError(f"{where}: {exc}") from None
            bad = [k for k, x in v.items() if x is not None and not np.isfinite(x)]
            if bad:
                raise NumericError(f"{where}: NaN/inf in run-log column(s) {', '.join(bad)}")
            log.t.append(t)
            log.states.append(ProcessorState(fps=v["fps"], freq=v["freq"],
                                             power=v["power"], temp=v["temp"]))
            log.actions.append(action)
            log.rewards.append(v["reward"])
            log.epsilons.append(v["epsilon"])
            log.max_q.append(v["max_q"])
            log.agent_loss.append(v["agent_loss"])
            log.fm_loss.append(v["fm_loss"])
    if not log.t:
        raise DomainError(f"{path}: the run log holds no steps")
    return log


def runlog_summary(log: RunLog) -> dict:
    """JSON-ready digest: final epsilon, mean reward, loss curves, weights, config."""
    agent_losses = [v for v in log.agent_loss if v is not None]
    return {
        "method": log.method,
        "seed": log.seed,
        "steps": len(log.t),
        "final_epsilon": log.epsilons[-1] if log.epsilons else None,
        "mean_reward": float(np.mean(log.rewards)) if log.rewards else None,
        "mean_fps": float(np.mean([s.fps for s in log.states])) if log.states else None,
        "fm_train_steps": log.fm_train_steps,
        "agent_train_steps_count": len(log.agent_train_steps),
        "agent_loss_curve": agent_losses,
        "fm_loss_curves": log.fm_loss_curves,
        "lambda_weights": log.lambda_weights,
        "phi_real_final": log.phi_real[-1] if log.phi_real else 0,
        "phi_synth_final": log.phi_synth[-1] if log.phi_synth else 0,
        "config": log.config,
    }
