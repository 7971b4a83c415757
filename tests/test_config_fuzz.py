"""Fuzz test: every config that passes validation runs ``run`` -> ``gen`` ->
``eval`` -> ``report`` to completion and writes only finite numbers.

Every field of every config section is drawn from a small valid range, and
every method of ``orchestrate.METHODS`` runs for two seeds, through ``cli.main``
as a user would.
"""

import json
import math
import os

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dvfsflow.cli import main  # noqa: E402
from dvfsflow.config import config_from_dict  # noqa: E402
from dvfsflow.flow import load_batch_csv  # noqa: E402
from dvfsflow.orchestrate import METHODS  # noqa: E402


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _sizes(hi):
    return st.lists(st.integers(1, hi), min_size=1, max_size=2)


@st.composite
def configs(draw):
    """A config payload inside every constraint of ``ExperimentConfig.validate``."""
    target_fps = draw(_floats(20.0, 80.0))
    eta, dyn_coeff = draw(_floats(2.1, 4.0)), draw(_floats(2.0, 20.0))
    static_coeff, min_freq = draw(_floats(0.01, 0.1)), draw(_floats(0.05, 0.9))
    # the lowest power, dyn_coeff * min_freq ** eta + static_coeff * ambient_temp,
    # stays > 0: ambient_temp runs from just above that floor
    ambient_floor = -dyn_coeff * min_freq ** eta / static_coeff
    # contraction: the thermal update factor |1 - 1/(C R) + cs/C| < 1
    env = {
        "num_actions": draw(st.integers(2, 6)), "eta": eta,
        "dyn_coeff": dyn_coeff, "static_coeff": static_coeff,
        "thermal_capacitance": draw(_floats(0.8, 2.0)),
        "thermal_resistance": draw(_floats(1.0, 4.0)),
        "ambient_temp": draw(_floats(0.99 * ambient_floor, 40.0)),
        "fps_slope": draw(_floats(20.0, 150.0)),
        "fps_cap": target_fps + draw(_floats(0.0, 60.0)), "target_fps": target_fps,
        "target_temp": draw(_floats(30.0, 80.0)), "reward_scale": draw(_floats(0.5, 4.0)),
        "noise_std_fps": draw(_floats(0.0, 2.0)), "noise_std_temp": draw(_floats(0.0, 1.0)),
        "min_freq": min_freq, "episode_horizon": draw(st.integers(1, 30)),
    }
    agent = {
        "discount": draw(_floats(0.5, 0.99)), "epsilon_init": draw(_floats(0.0, 1.0)),
        "epsilon_decay": draw(_floats(0.5, 1.0)), "epsilon_floor": draw(_floats(0.0, 1.0)),
        "learning_rate": draw(_floats(1e-3, 0.1)),
        "target_sync_period": draw(st.integers(1, 10)), "hidden_sizes": draw(_sizes(6)),
    }
    breadth = draw(st.integers(1, 20))
    schedule = {
        "horizon": draw(st.integers(1, 40)), "exploit_threshold": draw(st.integers(1, 40)),
        "fm_retrain_period": draw(st.integers(5, 20)), "planning_breadth": breadth,
        "batch_size": draw(st.integers(1, 16)), "fm_train_start": draw(st.integers(1, 20)),
        "real_capacity": draw(st.integers(1, 40)),
        "synth_capacity": breadth + draw(st.integers(0, 20)),
        "lr_reset_period": draw(st.integers(1, 20)), "synth_fraction": draw(_floats(0.0, 1.0)),
    }
    flow = {
        "sigma_min": draw(_floats(0.0, 0.5)), "bootstrap_count": draw(st.integers(1, 3)),
        "ode_steps": draw(st.integers(1, 5)), "hidden_sizes": draw(_sizes(8)),
        "epochs": draw(st.integers(1, 3)), "batch_size": draw(st.integers(4, 16)),
        "learning_rate": draw(_floats(1e-4, 1e-2)),
    }
    min_leaf = draw(st.integers(1, 5))
    forest = {
        "n_trees": draw(st.integers(1, 3)), "max_depth": draw(st.integers(1, 3)),
        "min_leaf": min_leaf, "min_samples": 2 * min_leaf + draw(st.integers(0, 20)),
    }
    return {"env": env, "agent": agent, "schedule": schedule, "flow": flow,
            "forest": forest}


def _finite_numbers(value):
    """Every number in a parsed JSON document is finite."""
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_numbers(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def _assert_finite_json(path):
    with open(path, encoding="utf-8") as fh:
        assert _finite_numbers(json.load(fh)), path


# Each example runs two short experiments per method, about 0.1 s in all; 25
# keep tier-1 fast, and derandomize draws the same examples on every run.
@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(payload=configs(), seed=st.integers(0, 1000), n=st.integers(1, 20))
def test_every_valid_config_runs_gen_eval_and_report(tmp_path_factory, capsys, payload,
                                                      seed, n):
    cfg = config_from_dict(payload)         # the strategy stays inside validation
    work = tmp_path_factory.mktemp("fuzz")
    cfg_path, out = str(work / "cfg.json"), str(work / "run")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    assert main(["run", "--config", cfg_path, "--methods", ",".join(METHODS),
                 "--seeds", f"{seed},{seed + 1}", "--output", out]) == 0

    real = os.path.join(out, f"real_dfm_seed{seed}.csv")
    synth = str(work / "gen.csv")
    capsys.readouterr()
    code = main(["gen", "--memory", real, "--out", synth, "--n", str(n),
                 "--config", cfg_path, "--seed", str(seed)])
    if len(load_batch_csv(real)) >= cfg.schedule.fm_train_start:
        assert code == 0
        assert len(load_batch_csv(synth)) == n
    else:                                   # too few rows to train on: a named input error
        assert code == 1
        assert "schedule.fm_train_start" in capsys.readouterr().err
        synth = real

    assert main(["eval", "--real", real, "--synth", synth,
                 "--out", str(work / "eval.json")]) == 0
    _assert_finite_json(work / "eval.json")

    assert main(["report", "--run-dir", out]) == 0
    for directory in (out, os.path.join(out, "report")):
        for name in os.listdir(directory):
            if name.endswith(".json"):
                _assert_finite_json(os.path.join(directory, name))
