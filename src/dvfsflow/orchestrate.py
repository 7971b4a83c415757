"""End-to-end experiment loop and the three baselines.

One run = one thread of control: act epsilon-greedily in the simulator, store
real transitions in M, periodically (re)train the generative model and fill
the synthetic memory M', and train the DQN on mixed batches once the combined
insertion counters exceed the exploit threshold.

Methods:
  dfm          bootstrapped flow matching with forest feature weights
  pure_fm      plain conditional flow matching (uniform weights, one replicate)
  model_based  dense transition predictor planned from resampled real (s, a) seeds
  model_free   no synthetic data at all
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from . import agent as agent_mod
from . import flow as flow_mod
from . import nets
from .agent import AgentConfig, ReplayMemory, Transition
from .errors import ConfigurationError, DomainError, InsufficientDataError
from .flow import FMConfig, Normalizer, TransitionLayout
from .forest import ForestConfig, transition_feature_weights
from .nets import AdamState
from .simenv import DvfsEnv, EnvConfig, ProcessorState, dynamics, reward_components

METHODS = ("dfm", "pure_fm", "model_based", "model_free")

RUNLOG_COLUMNS = ["t", "fps", "freq", "power", "temp", "action", "reward",
                  "epsilon", "max_q", "agent_loss", "fm_loss"]


@dataclass
class ScheduleConfig:
    horizon: int = 200              # H, Table-1 experiment length
    exploit_threshold: int = 100    # zeta_e: agent trains once phi_M + phi_M' exceeds it
    fm_retrain_period: int = 50     # zeta_d: model retrain cadence in env steps
    planning_breadth: int = 1000    # zeta_b: synthetic transitions per (re)train
    batch_size: int = 32            # beta
    fm_train_start: int = 32        # model train start (matches beta by default)
    real_capacity: int = 10_000     # |M|
    synth_capacity: int = 10_000    # |M'|
    lr_reset_period: int = 100      # agent-training steps between Adam resets
    synth_fraction: float = 0.5     # share of each training batch drawn from M'

    def validate(self) -> None:
        for name in ("horizon", "exploit_threshold", "fm_retrain_period",
                     "planning_breadth", "batch_size", "fm_train_start",
                     "real_capacity", "synth_capacity", "lr_reset_period"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.planning_breadth > self.synth_capacity:
            raise ConfigurationError("planning_breadth must be <= synth_capacity")
        if not (0.0 <= self.synth_fraction <= 1.0):
            raise ConfigurationError("synth_fraction must lie in [0, 1]")


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


def _config_snapshot(method: str, seed: int, env: EnvConfig, ag: AgentConfig,
                     sched: ScheduleConfig, fm: FMConfig, forest: ForestConfig) -> dict:
    return {
        "method": method, "seed": seed,
        "env": asdict(env), "agent": asdict(ag), "schedule": asdict(sched),
        "flow": asdict(fm), "forest": asdict(forest),
    }


def learning_rate_reset(train_step: int, adam: AdamState, initial_lr: float,
                        period: int = 100) -> AdamState:
    """Reinitialize Adam moments and restore the initial learning rate every
    ``period`` agent-training steps; otherwise return the state unchanged."""
    if period < 1:
        raise ConfigurationError("reset period must be >= 1")
    if train_step > 0 and train_step % period == 0:
        return nets.adam_reset(adam, lr=initial_lr)
    return adam


def regret_oracle(env_config: EnvConfig) -> Callable[[ProcessorState], float]:
    """Best noise-free one-step expected reward, brute-forced over all actions."""
    cfg = env_config.noiseless()

    def mu_star(state: ProcessorState) -> float:
        best = -np.inf
        for a in range(cfg.num_actions):
            nxt = dynamics(state, a, cfg, rng=None)
            best = max(best, reward_components(nxt, cfg).total)
        return best

    return mu_star


class _ModelBasedPlanner:
    """Dense-net transition predictor: (s, a) -> (s', r, done) in normalized space."""

    def __init__(self, layout: TransitionLayout, fm_config: FMConfig, seed):
        self.layout = layout
        self.fm_config = fm_config
        self.params = nets.init_mlp([5, 32, 32, 6], activation="tanh", seed=seed)
        self.in_norm: Optional[Normalizer] = None
        self.out_norm: Optional[Normalizer] = None

    def train(self, memory: ReplayMemory, seed) -> float:
        data = flow_mod.flatten_memory(memory.items, self.layout)
        x, y = data[:, :5], data[:, 5:]
        self.in_norm = Normalizer.fit(x)
        self.out_norm = Normalizer.fit(y)
        xn, yn = self.in_norm.normalize(x), self.out_norm.normalize(y)
        cfg = self.fm_config
        weights = np.ones(6)
        self.params, loss_curve = nets.fit(
            self.params, nets.adam_init(self.params, cfg.learning_rate), xn.shape[0],
            cfg.epochs, cfg.batch_size, np.random.default_rng(seed),
            lambda rows: (xn[rows], yn[rows], weights))
        return loss_curve[-1]

    def plan(self, memory: ReplayMemory, n: int,
             rng: np.random.Generator) -> tuple[list[Transition], np.ndarray]:
        """Predict from n real (s, a) seeds drawn without replacement per pass
        (full reshuffled passes over M as often as needed)."""
        if self.in_norm is None:
            raise InsufficientDataError("planner is untrained")
        data = flow_mod.flatten_memory(memory.items, self.layout)
        m = data.shape[0]
        idx = []
        while len(idx) < n:
            idx.extend(rng.permutation(m)[:min(m, n - len(idx))].tolist())
        seeds = data[np.array(idx[:n])][:, :5]
        pred = self.out_norm.denormalize(
            nets.forward_batch(self.params, self.in_norm.normalize(seeds)))
        raw = np.concatenate([seeds, pred], axis=1)
        transitions = [flow_mod.unflatten_transition(row, self.layout, source="model")
                       for row in raw]
        return transitions, raw


def run_experiment(method: str, env_config: EnvConfig, agent_config: AgentConfig,
                   schedule: ScheduleConfig, seed: int,
                   fm_config: Optional[FMConfig] = None,
                   forest_config: Optional[ForestConfig] = None) -> RunLog:
    """Execute one experiment and return its RunLog.

    Replays of (method, seed, configs) are bit-identical: every random stream
    is derived from ``seed`` plus a fixed stream tag.
    """
    if method not in METHODS:
        raise ConfigurationError(f"method must be one of {METHODS}")
    fm_config = fm_config or FMConfig()
    forest_config = forest_config or ForestConfig()
    env_config.validate()
    agent_config.validate()
    schedule.validate()
    fm_config.validate()
    forest_config.validate()

    log = RunLog(method=method, seed=seed,
                 config=_config_snapshot(method, seed, env_config, agent_config,
                                         schedule, fm_config, forest_config))
    layout = TransitionLayout(num_actions=env_config.num_actions,
                              ambient_temp=env_config.ambient_temp)
    env = DvfsEnv(env_config, seed=[seed, 1])
    action_rng = np.random.default_rng([seed, 2])
    sample_rng = np.random.default_rng([seed, 3])

    qnet = agent_mod.init_qnet(env_config, agent_config, seed=[seed, 4])
    target = agent_mod.sync_target(qnet)
    adam = nets.adam_init(qnet, agent_config.learning_rate)

    memory = ReplayMemory(schedule.real_capacity, "M", allowed_sources=("real",))
    synth_memory = ReplayMemory(schedule.synth_capacity, "M'",
                                allowed_sources=("synth", "model"))

    flow_model: Optional[flow_mod.FlowModel] = None
    planner: Optional[_ModelBasedPlanner] = None
    if method == "model_based":
        planner = _ModelBasedPlanner(layout, fm_config, seed=[seed, 5])

    epsilon = agent_config.epsilon_init
    train_count = 0
    retrain_count = 0
    episode = 0

    for i in range(1, schedule.horizon + 1):
        state = env.state
        action = agent_mod.select_action(qnet, state, epsilon, env_config, action_rng)
        max_q_val = float(np.max(agent_mod.q_values(qnet, state, env_config)))
        nxt, reward, done = env.step(action)
        memory.push(Transition(state, action, reward, nxt, done, source="real"))

        fm_loss_val: Optional[float] = None
        # Gate from the planning loop: i mod zeta_d = 0 and phi_M > beta, plus
        # the model-train-start floor on the stored sample count.
        if (method != "model_free" and i % schedule.fm_retrain_period == 0
                and memory.phi > schedule.batch_size
                and len(memory) >= schedule.fm_train_start):
            retrain_count += 1
            if method == "model_based":
                fm_loss_val = planner.train(memory, seed=[seed, 20, retrain_count])
                plans, raw = planner.plan(memory, schedule.planning_breadth, sample_rng)
                for tr in plans:
                    synth_memory.push(tr)
                log.synth_raw = raw
            else:
                if method == "dfm" and len(memory) >= forest_config.min_samples:
                    lam = transition_feature_weights(
                        memory, forest_config,
                        rng=np.random.default_rng([seed, 30, retrain_count]))
                else:
                    # pure_fm always; dfm before the forest has enough data
                    lam = np.full(layout.dim, 1.0 / layout.dim)
                run_fm = fm_config
                if method == "pure_fm":
                    run_fm = FMConfig(**{**asdict(fm_config), "bootstrap_count": 1})
                flow_model = flow_mod.train_flow_model(
                    memory, lam, run_fm, layout, seed=[seed, 40, retrain_count])
                fm_loss_val = flow_model.loss_curve[-1]
                log.fm_loss_curves.append(list(flow_model.loss_curve))
                log.lambda_weights = lam.tolist()
                gen_rng = np.random.default_rng([seed, 50, retrain_count])
                raw = flow_mod.generate_raw(flow_model, schedule.planning_breadth, gen_rng)
                for row in raw:
                    synth_memory.push(flow_mod.unflatten_transition(row, layout))
                log.synth_raw = raw
            log.fm_train_steps.append(i)

        agent_loss_val: Optional[float] = None
        if memory.phi + synth_memory.phi > schedule.exploit_threshold:
            n_synth = 0
            if method != "model_free" and len(synth_memory) > 0:
                n_synth = int(round(schedule.batch_size * schedule.synth_fraction))
            n_real = schedule.batch_size - n_synth
            if len(memory) >= n_real and len(synth_memory) >= n_synth:
                batch = memory.sample_batch(n_real, sample_rng)
                batch += synth_memory.sample_batch(n_synth, sample_rng)
                qnet, adam, agent_loss_val = agent_mod.train_q_step(
                    qnet, target, batch, agent_config, env_config, adam)
                train_count += 1
                log.agent_train_steps.append(i)
                adam = learning_rate_reset(train_count, adam,
                                           agent_config.learning_rate,
                                           schedule.lr_reset_period)
                if train_count % agent_config.target_sync_period == 0:
                    target = agent_mod.sync_target(qnet)

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

    log.real_flat = flow_mod.flatten_memory(memory.items, layout)
    return log


def runlog_to_csv(log: RunLog, path: str) -> None:
    """One row per step with the pinned column set; None cells stay empty."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUNLOG_COLUMNS)
        for j in range(len(log.t)):
            s = log.states[j]
            writer.writerow([
                log.t[j],
                repr(s.fps), repr(s.freq), repr(s.power), repr(s.temp),
                log.actions[j],
                repr(log.rewards[j]), repr(log.epsilons[j]), repr(log.max_q[j]),
                "" if log.agent_loss[j] is None else repr(log.agent_loss[j]),
                "" if log.fm_loss[j] is None else repr(log.fm_loss[j]),
            ])


def runlog_from_csv(path: str, method: str = "", seed: int = -1,
                    config: Optional[dict] = None) -> RunLog:
    """Rebuild the per-step record from a CSV written by :func:`runlog_to_csv`."""
    log = RunLog(method=method, seed=seed, config=config or {})
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != RUNLOG_COLUMNS:
            raise DomainError(f"unexpected run-log header in {path}")
        for row in reader:
            log.t.append(int(row["t"]))
            log.states.append(ProcessorState(
                fps=float(row["fps"]), freq=float(row["freq"]),
                power=float(row["power"]), temp=float(row["temp"])))
            log.actions.append(int(row["action"]))
            log.rewards.append(float(row["reward"]))
            log.epsilons.append(float(row["epsilon"]))
            log.max_q.append(float(row["max_q"]))
            log.agent_loss.append(float(row["agent_loss"]) if row["agent_loss"] else None)
            log.fm_loss.append(float(row["fm_loss"]) if row["fm_loss"] else None)
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
