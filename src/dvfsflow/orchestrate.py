"""End-to-end experiment loop, the paper's method and its baselines.

One run = one thread of control: act epsilon-greedily in the simulator, store
real transitions in M, periodically (re)train the generative model and fill
the synthetic memory M', and train the DQN on mixed batches once the combined
insertion counters exceed the exploit threshold.  A run retrains only at the
multiples of the retrain period below its horizon: a retrain fills M' after its
step's action and reward, so one at the last step would feed only the final
Q-update, whose Q-net never acts.

A method is one row of :data:`METHODS`: the generator factory that fills M',
or None for a method whose M' stays empty.  A factory
``(fm_config, forest_config, seed, rng)`` returns ``refit(real, n, *tail)``,
which fits on the (rows, 11) transitions ``real`` and returns ``n`` raw rows,
the fit's loss curve and its feature weights (None where it has none).  The
run loop calls ``refit`` once per retrain with the retrain count as ``tail``;
``dvfsflow gen`` calls the same factory once, with no tail.  A flow starts
cold at every refit, while the model-based planner warm-starts from its last
fit.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from . import agent as agent_mod
from . import flow as flow_mod
from . import nets
from .agent import AgentConfig, ReplayMemory
from .errors import ConfigurationError, DomainError, NumericError, check_domains, domain
from .flow import (INPUT_COLS, OUTCOME_COLS, TRANSITION_LABELS, FMConfig, Normalizer,
                   TransitionLayout)
from .forest import ForestConfig, transition_feature_weights
from .simenv import DvfsEnv, EnvConfig, ProcessorState, law, state_scales


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
    fm_fit_rows: list[int] = field(default_factory=list)   # len(M) at each retrain
    agent_train_steps: list[int] = field(default_factory=list)
    lambda_weights: Optional[list[float]] = None
    fm_loss_curves: list[list[float]] = field(default_factory=list)
    real_flat: Optional[np.ndarray] = None      # flattened M at end of run
    synth_raw: Optional[np.ndarray] = None      # last generated continuous batch


def regret_oracle(env_config: EnvConfig) -> Callable[[Sequence[ProcessorState]], np.ndarray]:
    """Best noise-free one-step expected reward from each of a sequence of states,
    over all actions: the row max of one :func:`simenv.law` call on every pair."""
    actions = np.arange(env_config.num_actions)
    return lambda states: law(np.reshape([s.temp for s in states], (-1, 1)), actions,
                              env_config).reward.max(axis=1)


class _ModelBasedPlanner:
    """Dense-net transition predictor: (s, a) -> (s', r, done) in normalized space."""

    def __init__(self, fm_config: FMConfig, seed):
        self.fm_config = fm_config
        widths = [len(TRANSITION_LABELS[INPUT_COLS]), 32, 32, len(TRANSITION_LABELS[OUTCOME_COLS])]
        self.params = nets.init_mlp(widths, seed=seed)
        self.in_norm: Optional[Normalizer] = None
        self.out_norm: Optional[Normalizer] = None

    def train(self, data: np.ndarray, seed) -> list[float]:
        """Fit on the flattened (n, 11) real memory, starting from the params
        of the last fit; returns the per-epoch loss curve."""
        x, y = data[:, INPUT_COLS], data[:, OUTCOME_COLS]
        self.in_norm = Normalizer.fit(x)
        self.out_norm = Normalizer.fit(y)
        xn, yn = self.in_norm.normalize(x), self.out_norm.normalize(y)
        cfg = self.fm_config
        weights = np.ones(y.shape[1])
        self.params, loss_curve = nets.fit(
            self.params, cfg.learning_rate, xn.shape[0], cfg.epochs, cfg.batch_size,
            np.random.default_rng(seed), lambda rows: (xn[rows], yn[rows], weights))
        return loss_curve

    def plan(self, data: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
        """Predict n rows from real (s, a) seeds of the flattened memory, drawn
        without replacement per pass (full reshuffled passes over the rows as
        often as needed)."""
        m = data.shape[0]
        idx = np.concatenate([rng.permutation(m) for _ in range(-(-n // m))])[:n]
        seeds = data[idx, INPUT_COLS]
        pred = self.out_norm.denormalize(
            nets.forward_batch(self.params, self.in_norm.normalize(seeds)))
        return np.concatenate([seeds, pred], axis=1)


def flow_generator(fm_config: FMConfig, forest_config: ForestConfig, seed: int,
                   rng: np.random.Generator, *, forest_lambda: bool,
                   bootstrap_count: Optional[int] = None) -> Callable:
    """A flow that starts cold: each refit trains a fresh flow, keeping nothing
    across retrains, and draws its rows from it.

    The loss weights are the forest's feature weights when ``forest_lambda``
    and ``real`` holds at least ``forest_config.min_samples`` rows, uniform
    otherwise.  Training takes ``bootstrap_count`` replicates, or
    ``flow.bootstrap_count`` when it is None.  The forest, the flow's init and
    training, and the sampler draw on the streams ``[seed, 30 | 40 | 50,
    *tail]``; ``rng`` goes unused.
    """
    if bootstrap_count is not None:
        fm_config = replace(fm_config, bootstrap_count=bootstrap_count)

    def refit(real: np.ndarray, n: int, *tail: int):
        if forest_lambda and len(real) >= forest_config.min_samples:
            lam = transition_feature_weights(real, forest_config,
                                             np.random.default_rng([seed, 30, *tail]))
        else:
            lam = np.full(real.shape[1], 1.0 / real.shape[1])
        model = flow_mod.train_flow_model(real, lam, fm_config, seed=[seed, 40, *tail])
        raw = flow_mod.generate_raw(model, n, np.random.default_rng([seed, 50, *tail]))
        return raw, model.loss_curve, model.weights
    return refit


def planner_generator(fm_config: FMConfig, forest_config: ForestConfig, seed: int,
                      rng: np.random.Generator) -> Callable:
    """The model-based planner, which warm-starts: one :class:`_ModelBasedPlanner`,
    initialised on the stream ``[seed, 5]``, keeps its net across retrains.

    Each refit trains it on ``[seed, 20, *tail]`` and plans from real (s, a)
    seeds drawn from ``rng`` (a run's ``[seed, 3]`` sample stream).  It has
    no feature weights.
    """
    planner = _ModelBasedPlanner(fm_config, seed=[seed, 5])

    def refit(real: np.ndarray, n: int, *tail: int):
        loss_curve = planner.train(real, seed=[seed, 20, *tail])
        return planner.plan(real, n, rng), loss_curve, None
    return refit


METHODS: dict[str, Optional[Callable]] = {
    # bootstrapped flow matching with forest feature weights (the paper's method)
    "dfm": partial(flow_generator, forest_lambda=True),
    # plain conditional flow matching: uniform weights, one replicate
    "pure_fm": partial(flow_generator, forest_lambda=False, bootstrap_count=1),
    # uniform weights, flow.bootstrap_count replicates
    "fm_bootstrap": partial(flow_generator, forest_lambda=False),
    # dense transition predictor planned from resampled real (s, a) seeds
    "model_based": planner_generator,
    # no synthetic data at all
    "model_free": None,
}


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
    sections = {"env": env_config, "agent": agent_config, "schedule": schedule,
                "flow": fm_config, "forest": forest_config}
    for section in sections.values():
        section.validate()

    log = RunLog(method=method, seed=seed, config={
        "method": method, "seed": seed, **{k: asdict(v) for k, v in sections.items()}})
    layout = TransitionLayout(num_actions=env_config.num_actions,
                              ambient_temp=env_config.ambient_temp)
    env = DvfsEnv(env_config, seed=[seed, 1])
    action_rng = np.random.default_rng([seed, 2])
    sample_rng = np.random.default_rng([seed, 3])

    qnet = agent_mod.init_qnet(env_config, agent_config, seed=[seed, 4])
    target = qnet.copy()
    trainer = nets.Trainer(qnet, agent_config.learning_rate)
    scales = state_scales(env_config)

    memory = ReplayMemory(schedule.real_capacity, "M")
    synth_memory = ReplayMemory(schedule.synth_capacity, "M'")
    factory = METHODS[method]
    refit = factory(fm_config, forest_config, seed, sample_rng) if factory else None

    epsilon = agent_config.epsilon_init
    train_count = 0
    retrain_count = 0
    episode = 0

    for i in range(1, schedule.horizon + 1):
        state = env.state
        q = agent_mod.q_values(trainer.params, state, scales)
        action = agent_mod.select_action(q, epsilon, action_rng)
        max_q_val = float(q.max())
        nxt, reward, done = env.step(action)
        memory.push(flow_mod.encode_transition(state, action, reward, nxt, done, layout))

        fm_loss_val: Optional[float] = None
        if (refit is not None and i % schedule.fm_retrain_period == 0
                and i < schedule.horizon and schedule.can_train(memory.phi, len(memory))):
            retrain_count += 1
            real = memory.rows()
            raw, loss_curve, lam = refit(real, schedule.planning_breadth, retrain_count)
            fm_loss_val = loss_curve[-1]
            log.fm_loss_curves.append(loss_curve)
            if lam is not None:
                log.lambda_weights = lam.tolist()
            synth_memory.push(flow_mod.canonical_rows(raw, layout))
            log.synth_raw = raw
            log.fm_train_steps.append(i)
            log.fm_fit_rows.append(len(real))

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
                    trainer, target, batch, agent_config, scales)
                train_count += 1
                log.agent_train_steps.append(i)
                if train_count % schedule.lr_reset_period == 0:
                    trainer.reset_adam()
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
            (t, *s, a, r, eps, q, agent_loss, fm_loss)
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
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
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
            log.states.append(ProcessorState(v["fps"], v["freq"], v["power"], v["temp"]))
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
    """JSON-ready digest: final epsilon, mean reward, the retrain steps and the
    len(M) each retrain was fit on, loss curves, weights, config."""
    agent_losses = [v for v in log.agent_loss if v is not None]
    return {
        "method": log.method,
        "seed": log.seed,
        "steps": len(log.t),
        "final_epsilon": log.epsilons[-1] if log.epsilons else None,
        "mean_reward": float(np.mean(log.rewards)) if log.rewards else None,
        "mean_fps": float(np.mean([s.fps for s in log.states])) if log.states else None,
        "fm_train_steps": log.fm_train_steps,
        "fm_fit_rows": log.fm_fit_rows,
        "agent_train_steps_count": len(log.agent_train_steps),
        "agent_loss_curve": agent_losses,
        "fm_loss_curves": log.fm_loss_curves,
        "lambda_weights": log.lambda_weights,
        "phi_real_final": log.phi_real[-1] if log.phi_real else 0,
        "phi_synth_final": log.phi_synth[-1] if log.phi_synth else 0,
        "config": log.config,
    }
