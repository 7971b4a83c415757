"""Config loading/validation and the CLI surface end to end (small configs)."""

import json
import os

import numpy as np
import pytest

from dvfsflow.cli import main
from dvfsflow.config import (ExperimentConfig, config_from_dict, config_to_dict,
                             dump_config, load_config)
from dvfsflow.errors import ConfigurationError

FAST_SECTIONS = {
    "schedule": {"horizon": 60, "fm_retrain_period": 50, "planning_breadth": 40,
                 "real_capacity": 500, "synth_capacity": 500},
    "flow": {"hidden_sizes": [8, 8], "epochs": 3, "bootstrap_count": 2},
    "forest": {"n_trees": 4, "max_depth": 3},
    "env": {"episode_horizon": 60},
}


def _write_config(tmp_path, extra=None, name="cfg.json"):
    payload = dict(FAST_SECTIONS)
    if extra:
        payload.update(extra)
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def test_empty_config_gives_table_defaults(tmp_path):
    path = str(tmp_path / "empty.json")
    with open(path, "w") as fh:
        fh.write("{}")
    cfg = load_config(path)
    assert cfg.schedule.horizon == 200
    assert cfg.env.target_fps == 60.0
    assert cfg.env.target_temp == 50.0
    assert cfg.agent.learning_rate == 0.05
    assert cfg.agent.discount == 0.99
    assert cfg.agent.epsilon_decay == 0.99
    assert cfg.schedule.batch_size == 32
    assert cfg.flow.epochs == 400
    assert cfg.env.reward_scale == 2.0
    assert cfg.schedule.planning_breadth == 1000
    assert cfg.schedule.fm_train_start == 32


def test_constraint_violation_names_field(tmp_path):
    path = _write_config(tmp_path, {"agent": {"discount": 1.5}})
    with pytest.raises(ConfigurationError, match="discount"):
        load_config(path)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigurationError, match="unknown"):
        config_from_dict({"envv": {}})
    with pytest.raises(ConfigurationError, match="unknown"):
        config_from_dict({"agent": {"learning_rat": 0.1}})


@pytest.mark.parametrize("section,key", [("flow", "train_start"),
                                         ("agent", "batch_size")])
def test_removed_keys_rejected(section, key):
    with pytest.raises(ConfigurationError,
                       match=rf"\['{key}'\] in section '{section}'"):
        config_from_dict({section: {key: 32}})


@pytest.mark.parametrize("forest,field", [
    ({"n_trees": 0}, "n_trees"),
    ({"min_leaf": 0}, "min_leaf"),
    ({"max_depth": -3}, "max_depth"),
    ({"min_samples": 8, "min_leaf": 5}, "min_samples"),
])
def test_forest_constraint_names_field(forest, field):
    with pytest.raises(ConfigurationError, match=field):
        config_from_dict({"forest": forest})


def test_forest_floor_below_two_leaves_rejected_before_running(tmp_path, capsys):
    # min_samples 8 < 2 * min_leaf: dfm used to fail mid-run in fit_forest
    path = _write_config(tmp_path, {
        "forest": {"min_samples": 8, "min_leaf": 5},
        "flow": {"epochs": 5},
        "schedule": {"batch_size": 4, "fm_train_start": 8, "fm_retrain_period": 8,
                     "horizon": 40},
        "output_dir": str(tmp_path / "out")})
    assert main(["run", "--config", path, "--methods", "dfm"]) == 1
    assert "configuration error: min_samples" in capsys.readouterr().err


def test_fm_train_start_is_the_only_training_floor(tmp_path, capsys):
    # fm_train_start 10 < 32: every method trains from 20 transitions on
    path = _write_config(tmp_path, {
        "schedule": {"batch_size": 8, "fm_train_start": 10, "fm_retrain_period": 20,
                     "horizon": 60},
        "flow": {"epochs": 2},
        "output_dir": str(tmp_path / "out")})
    assert main(["run", "--config", path,
                 "--methods", "dfm,pure_fm,model_based,model_free"]) == 0
    with open(tmp_path / "out" / "summary_dfm_seed0.json") as fh:
        assert json.load(fh)["fm_train_steps"] == [20, 40, 60]


def test_parse_error_reports_line(tmp_path):
    path = str(tmp_path / "broken.json")
    with open(path, "w") as fh:
        fh.write('{\n  "env": {,}\n}')
    with pytest.raises(ConfigurationError, match="line 2"):
        load_config(path)


def test_config_round_trip(tmp_path):
    cfg = config_from_dict({"agent": {"learning_rate": 0.01},
                            "methods": ["dfm"], "seeds": [3, 5]})
    path = str(tmp_path / "echo.json")
    with open(path, "w") as fh:
        fh.write(dump_config(cfg))
    again = load_config(path)
    assert config_to_dict(again) == config_to_dict(cfg)


def test_print_config_round_trip(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert main(["run", "--config", path, "--print-config"]) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert config_to_dict(config_from_dict(echoed)) == echoed


def test_run_writes_expected_outputs(tmp_path, capsys):
    path = _write_config(tmp_path, {"methods": ["dfm", "model_free"],
                                    "seeds": [0, 1],
                                    "output_dir": str(tmp_path / "out")})
    assert main(["run", "--config", path]) == 0
    out = tmp_path / "out"
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert len(manifest["runs"]) == 4
    for entry in manifest["runs"]:
        assert (out / entry["files"]["runlog"]).exists()
        assert (out / entry["files"]["summary"]).exists()
        assert (out / entry["files"]["real"]).exists()
    assert (out / "effective_config.json").exists()
    # dfm runs carry synthetic batches, model_free runs do not
    synth = {e["method"]: e["files"]["synth"] for e in manifest["runs"]}
    assert synth["dfm"] is not None and synth["model_free"] is None


def test_rerun_reproduces_csvs_byte_identically(tmp_path):
    path = _write_config(tmp_path, {"methods": ["dfm"], "seeds": [0]})
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", path, "--output", out_a]) == 0
    assert main(["run", "--config", path, "--output", out_b]) == 0
    for name in ("runlog_dfm_seed0.csv", "real_dfm_seed0.csv", "synth_dfm_seed0.csv"):
        with open(os.path.join(out_a, name), "rb") as fa, \
             open(os.path.join(out_b, name), "rb") as fb:
            assert fa.read() == fb.read()


def test_gen_and_eval_pipeline(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, {"methods": ["model_free"], "seeds": [0],
                                        "output_dir": str(tmp_path / "out")})
    assert main(["run", "--config", cfg_path]) == 0
    real_csv = str(tmp_path / "out" / "real_model_free_seed0.csv")
    synth_csv = str(tmp_path / "synth.csv")
    ckpt = str(tmp_path / "fm.json")
    assert main(["gen", "--memory", real_csv, "--out", synth_csv, "--n", "120",
                 "--config", cfg_path, "--seed", "1", "--checkpoint", ckpt]) == 0
    assert os.path.exists(ckpt)
    out_json = str(tmp_path / "eval.json")
    assert main(["eval", "--real", real_csv, "--synth", synth_csv,
                 "--out", out_json]) == 0
    with open(out_json) as fh:
        result = json.load(fh)
    assert "corr_gap" in result and result["corr_gap"] >= 0
    assert set(result["per_feature_w1"]) == {
        "fps", "freq", "power", "temp", "action", "next_fps", "next_freq",
        "next_power", "next_temp", "reward", "done"}
    assert result["n_synth"] == 120


def test_report_builds_bundle(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, {"methods": ["dfm", "model_free"],
                                        "seeds": [0],
                                        "output_dir": str(tmp_path / "out")})
    assert main(["run", "--config", cfg_path]) == 0
    assert main(["report", "--run-dir", str(tmp_path / "out")]) == 0
    rep = tmp_path / "out" / "report"
    with open(rep / "report.json") as fh:
        payload = json.load(fh)
    assert "dfm" in payload["medians"]
    assert payload["early_fps_gain"]["per_seed"]
    for fig in ("corr_real.svg", "corr_dfm.svg", "fps.svg", "max_q.svg",
                "regret.svg", "metrics.csv"):
        assert (rep / fig).exists()


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == 5


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_config_value_exit_code(tmp_path, capsys):
    path = _write_config(tmp_path, {"agent": {"discount": 1.5}})
    assert main(["run", "--config", path]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["run", "--config", "/nonexistent/cfg.json"]) == 1
