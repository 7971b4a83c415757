"""Experiment loop: scheduling contract, provenance, reproducibility, baselines."""

import numpy as np
import pytest

from conftest import noiseless
from dvfsflow import flow as flow_mod
from dvfsflow import nets
from dvfsflow.agent import AgentConfig
from dvfsflow.errors import ConfigurationError
from dvfsflow.flow import FMConfig
from dvfsflow.forest import ForestConfig
from dvfsflow.orchestrate import (METHODS, RUNLOG_COLUMNS, RunLog, ScheduleConfig,
                                  regret_oracle, run_experiment, runlog_summary,
                                  runlog_to_csv)
from dvfsflow.simenv import EnvConfig, ProcessorState, dynamics, initial_state, reward_components

FAST_FM = FMConfig(hidden_sizes=[8, 8], epochs=3, bootstrap_count=2, batch_size=16)
FAST_FOREST = ForestConfig(n_trees=5, max_depth=3)


def _schedule(**kw):
    base = dict(horizon=200, exploit_threshold=100, fm_retrain_period=50,
                planning_breadth=60, batch_size=32, fm_train_start=32,
                real_capacity=2000, synth_capacity=2000)
    base.update(kw)
    return ScheduleConfig(**base)


def _run(method, seed=0, sched=None, env=None, agent=None):
    return run_experiment(method, env or EnvConfig(), agent or AgentConfig(),
                          sched or _schedule(), seed,
                          fm_config=FAST_FM, forest_config=FAST_FOREST)


def test_model_free_keeps_synthetic_memory_empty():
    log = _run("model_free")
    assert log.phi_synth[-1] == 0
    assert log.fm_train_steps == []
    assert all(v is None for v in log.fm_loss)


def test_fm_training_schedule_matches_algorithm_gate():
    log = _run("dfm", sched=_schedule(horizon=201))
    assert log.fm_train_steps == [50, 100, 150, 200]
    # fm_loss recorded exactly at training steps
    trained_at = [t for t, v in zip(log.t, log.fm_loss) if v is not None]
    assert trained_at == [50, 100, 150, 200]
    # call count = floor((H - 1) / zeta_d) minus skips where phi_M <= beta (none here)
    assert len(log.fm_train_steps) == (201 - 1) // 50
    # no retrain at the final step, even where the horizon is a multiple of zeta_d
    assert _run("dfm").fm_train_steps == [50, 100, 150]


def test_fm_training_skips_multiples_below_beta():
    # zeta_d=10: multiples 10..30 fail the phi_M > beta guard with beta=32
    log = _run("dfm", sched=_schedule(fm_retrain_period=10, horizon=61))
    assert log.fm_train_steps == [40, 50, 60]


@pytest.mark.parametrize("method", [m for m, g in METHODS.items() if g])
def test_run_is_a_prefix_of_a_longer_run(method):
    # a retrain at step i acts only from step i + 1 on, so the last step's
    # retrain of the longer run is the only work the shorter run leaves out
    h, period = 100, 50
    short = _run(method, sched=_schedule(horizon=h, fm_retrain_period=period))
    long = _run(method, sched=_schedule(horizon=h + period, fm_retrain_period=period))
    assert short.fm_train_steps == [50] and long.fm_train_steps == [50, 100]
    for name in ("states", "actions", "rewards", "epsilons", "max_q"):
        assert getattr(short, name) == getattr(long, name)[:h], name
    for name in ("fm_loss", "agent_loss", "phi_synth"):
        assert getattr(short, name)[:h - 1] == getattr(long, name)[:h - 1], name
    assert short.fm_loss[h - 1] is None and long.fm_loss[h - 1] is not None
    assert short.agent_loss[h - 2] is not None      # the Q-net trained within the prefix


def test_fm_fit_rows_records_len_m_at_each_retrain():
    log = run_experiment("dfm", EnvConfig(), AgentConfig(), ScheduleConfig(), 0,
                         fm_config=FAST_FM, forest_config=FAST_FOREST)
    assert log.fm_train_steps == [50, 100, 150]
    assert log.fm_fit_rows == runlog_summary(log)["fm_fit_rows"] == [50, 100, 150]
    # FIFO eviction caps each fit at |M|
    log = _run("dfm", sched=_schedule(real_capacity=80))
    assert log.fm_fit_rows == [50, 80, 80]


@pytest.mark.parametrize("method", [m for m, g in METHODS.items() if g])
def test_fm_loss_curves_hold_one_curve_per_retrain(method):
    log = _run(method, sched=_schedule(horizon=160))
    assert log.fm_train_steps == [50, 100, 150]
    assert len(log.fm_loss_curves) == 3
    for step, curve in zip(log.fm_train_steps, log.fm_loss_curves):
        assert len(curve) == FAST_FM.epochs
        assert curve[-1] == log.fm_loss[step - 1]


def test_no_agent_training_before_exploit_threshold():
    log = _run("dfm")
    for t, loss in zip(log.t, log.agent_loss):
        total = log.phi_real[t - 1] + log.phi_synth[t - 1]
        if loss is not None:
            assert total > 100
    # dfm unlocks training right after the first FM fill
    assert log.agent_train_steps[0] == 50
    mf = _run("model_free")
    assert mf.agent_train_steps[0] == 101


def test_phi_counters_never_decrease():
    for method in ("dfm", "model_based", "model_free"):
        log = _run(method, sched=_schedule(horizon=120))
        assert np.all(np.diff(log.phi_real) >= 0)
        assert np.all(np.diff(log.phi_synth) >= 0)
        assert log.phi_real[-1] == 120


def test_runs_are_bit_identical_per_seed():
    a = _run("dfm", seed=3)
    b = _run("dfm", seed=3)
    assert a.actions == b.actions
    assert a.rewards == b.rewards
    assert a.max_q == b.max_q
    assert a.states == b.states
    assert np.array_equal(a.synth_raw, b.synth_raw)
    c = _run("dfm", seed=4)
    assert a.actions != c.actions


def test_pure_fm_uses_uniform_weights_single_replicate(monkeypatch):
    train = flow_mod.train_flow_model
    counts = []

    def spy(data, lam, config, seed=0):
        counts.append(config.bootstrap_count)
        return train(data, lam, config, seed=seed)

    monkeypatch.setattr(flow_mod, "train_flow_model", spy)
    log = _run("pure_fm", sched=_schedule(horizon=110))
    assert log.lambda_weights == [1.0 / 11] * 11
    assert log.fm_train_steps == [50, 100]
    assert counts == [1, 1]
    # the summary keeps the user's flow section, and dfm trains with it
    assert log.config["flow"]["bootstrap_count"] == FAST_FM.bootstrap_count == 2
    _run("dfm", sched=_schedule(horizon=110))
    assert counts[2:] == [2, 2]


def test_dfm_records_forest_weights():
    log = _run("dfm", sched=_schedule(horizon=60))
    lam = np.array(log.lambda_weights)
    assert lam.shape == (11,)
    assert lam.sum() == pytest.approx(1.0)
    assert not np.allclose(lam, 1.0 / 11)    # forest output, not uniform


def test_model_based_fills_synthetic_memory_from_real_seeds():
    log = _run("model_based", sched=_schedule(horizon=60, planning_breadth=80))
    assert log.fm_train_steps == [50]
    assert log.phi_synth[-1] == 80
    raw = log.synth_raw
    assert raw.shape == (80, 11)
    # planning seeds (s, a) are exact copies of stored real rows
    real_inputs = {tuple(row[:5]) for row in log.real_flat}
    # real_flat holds end-of-run memory; at step 50 all 50 rows were present
    for row in raw:
        assert tuple(row[:5]) in real_inputs


def test_unknown_method_rejected():
    with pytest.raises(ConfigurationError, match="one of dfm, pure_fm, fm_bootstrap, "
                                                 "model_based, model_free, got 'zTT'"):
        _run("zTT")


def test_run_experiment_validates_forest_config():
    with pytest.raises(ConfigurationError, match="max_depth"):
        run_experiment("model_free", EnvConfig(), AgentConfig(), _schedule(), 0,
                       fm_config=FAST_FM, forest_config=ForestConfig(max_depth=0))


def test_schedule_validation():
    with pytest.raises(ConfigurationError, match="planning_breadth"):
        _schedule(planning_breadth=5000, synth_capacity=100).validate()


def test_learning_rate_reset_schedule(monkeypatch):
    # every lr_reset_period-th Q-update is followed by fresh Adam moments, step
    # counter 0 and the initial learning rate; between resets the state evolves
    seen = []
    reset_adam = nets.Trainer.reset_adam

    def spy(trainer):
        lr = trainer.adam.lr
        seen.append((trainer.adam.step, trainer.adam.m.any(), lr))
        reset_adam(trainer)
        assert trainer.adam.step == 0 and trainer.adam.lr == lr
        assert not trainer.adam.m.any() and not trainer.adam.v.any()

    monkeypatch.setattr(nets.Trainer, "reset_adam", spy)
    log = _run("model_free", sched=_schedule(horizon=450, exploit_threshold=1))
    # reset count over a run = floor(train_steps / period)
    assert len(log.agent_train_steps) == 419
    assert seen == [(100, True, AgentConfig().learning_rate)] * 4


def test_regret_oracle_properties():
    env = EnvConfig()
    oracle = regret_oracle(env)
    s = initial_state(env)
    (mu,) = oracle([s])
    noise_free = noiseless(env)
    for a in range(env.num_actions):
        nxt = dynamics(s, a, noise_free)
        assert mu >= reward_components(nxt, noise_free).total - 1e-12
    assert oracle([s, s]).tolist() == [mu, mu]       # deterministic, state by state
    assert oracle([]).shape == (0,)
    one = EnvConfig(num_actions=2)
    oracle1 = regret_oracle(one)
    s1 = initial_state(one)
    rewards = [reward_components(dynamics(s1, a, noiseless(one)), noiseless(one)).total
               for a in range(2)]
    assert oracle1([s1])[0] == max(rewards)


def test_runlog_csv_shape_and_determinism(tmp_path):
    log = _run("dfm", sched=_schedule(horizon=60))
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    runlog_to_csv(log, p1)
    runlog_to_csv(_run("dfm", sched=_schedule(horizon=60)), p2)
    with open(p1, "rb") as fa, open(p2, "rb") as fb:
        assert fa.read() == fb.read()
    with open(p1) as fh:
        header = fh.readline().strip().split(",")
        assert header == RUNLOG_COLUMNS
        assert sum(1 for _ in fh) == 60


def test_state_field_order_is_the_run_log_and_transition_column_order():
    # runlog_to_csv and flow.encode_transition unpack a state with *s, so its
    # field order must be the order of their state columns
    fields = list(ProcessorState._fields)
    assert RUNLOG_COLUMNS[1:5] == fields
    labels = flow_mod.TRANSITION_LABELS
    assert labels[flow_mod.STATE_COLS] == fields
    assert labels[flow_mod.NEXT_STATE_COLS] == ["next_" + f for f in fields]
    s = ProcessorState(fps=1.0, freq=2.0, power=3.0, temp=4.0)
    s_next = ProcessorState(fps=5.0, freq=6.0, power=7.0, temp=8.0)
    row = flow_mod.encode_transition(s, 0, 0.0, s_next, False,
                                     flow_mod.TransitionLayout(num_actions=2, ambient_temp=0.0))
    assert row[flow_mod.STATE_COLS].tolist() == [1.0, 2.0, 3.0, 4.0]
    assert row[flow_mod.NEXT_STATE_COLS].tolist() == [5.0, 6.0, 7.0, 8.0]


def test_runlog_summary_fields():
    log = _run("dfm", sched=_schedule(horizon=60))
    s = runlog_summary(log)
    assert s["method"] == "dfm"
    assert s["steps"] == 60
    assert s["phi_synth_final"] == 60
    assert s["lambda_weights"] is not None
    assert s["config"]["schedule"]["horizon"] == 60
