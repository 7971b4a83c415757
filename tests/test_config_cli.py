"""Config loading/validation and the CLI surface end to end (small configs)."""

import contextlib
import json
import multiprocessing
import os
import time
import tracemalloc

import numpy as np
import pytest

from conftest import usable_cores, write_run_dir
from dvfsflow import cli, spread
from dvfsflow.cli import main
from dvfsflow.config import (ExperimentConfig, config_from_dict, config_to_dict,
                             dump_config, load_config)
from dvfsflow.errors import ConfigurationError, NumericError
from dvfsflow.files import save_batch_csv
from dvfsflow.flow import TRANSITION_LABELS
from dvfsflow.orchestrate import METHODS, RUNLOG_COLUMNS

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
                                         ("agent", "batch_size"),
                                         ("env", "seed")])
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
    assert "configuration error: forest.min_samples" in capsys.readouterr().err


def test_fm_train_start_is_the_only_training_floor(tmp_path, capsys):
    # fm_train_start 10 < 32: every method trains from 20 transitions on
    path = _write_config(tmp_path, {
        "schedule": {"batch_size": 8, "fm_train_start": 10, "fm_retrain_period": 20,
                     "horizon": 61},
        "flow": {"epochs": 2},
        "output_dir": str(tmp_path / "out")})
    assert main(["run", "--config", path, "--methods", ",".join(METHODS)]) == 0
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


@pytest.mark.parametrize("cores,env,runs,want", [
    (2, {}, 6, 1),                                  # unset: a BLAS thread per core
    (2, {"OPENBLAS_NUM_THREADS": "1"}, 6, 2),
    (2, {"OPENBLAS_NUM_THREADS": "1"}, 1, 1),       # at most one process per run
    (8, {"OMP_NUM_THREADS": "2"}, 6, 4),
    (8, {"OPENBLAS_NUM_THREADS": "0", "MKL_NUM_THREADS": "4"}, 6, 2),
    (3, {"OMP_NUM_THREADS": "4"}, 6, 1),
])
def test_run_processes_leave_no_core_oversubscribed(monkeypatch, cores, env, runs, want):
    usable_cores(monkeypatch, cores, blas_threads=None)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert spread.processes(runs) == want


def _run_on(cores, argv, out, monkeypatch, capsys):
    """Exit code, stdout, stderr and the bytes of every file of a ``run`` on
    ``cores`` usable cores."""
    usable_cores(monkeypatch, cores)
    code = main(argv)
    captured = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    return code, captured.out, captured.err, files


def test_parallel_run_is_byte_identical_to_one_core(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    path = _write_config(tmp_path, {"methods": ["dfm", "model_based", "model_free"],
                                    "seeds": [0, 1], "output_dir": str(out)})
    pids = tmp_path / "pids"
    pids.mkdir()
    real_run = cli.run_experiment

    def run_and_note_pid(*args, **kwargs):
        (pids / str(os.getpid())).touch()
        return real_run(*args, **kwargs)

    monkeypatch.setattr(cli, "run_experiment", run_and_note_pid)
    one = _run_on(1, ["run", "--config", path], out, monkeypatch, capsys)
    assert [p.name for p in pids.iterdir()] == [str(os.getpid())]
    parallel = _run_on(3, ["run", "--config", path], out, monkeypatch, capsys)
    assert len(list(pids.iterdir())) > 1            # helpers did some of the runs
    assert multiprocessing.active_children() == []
    assert one[:3] == parallel[:3] and one[0] == 0
    assert [line.split(":")[0] for line in one[1].splitlines()] == [
        f"ran {m} seed {s}" for m in ("dfm", "model_based", "model_free") for s in (0, 1)
    ] + [f"wrote 24 files under {out}"]
    assert sorted(one[3]) == sorted(parallel[3]) and len(one[3]) == 24
    for name, data in one[3].items():
        assert parallel[3][name] == data, name


@pytest.mark.parametrize("failing", [("model_free", 1), ("model_based", 0)])
def test_failed_run_fails_the_command_as_on_one_core(tmp_path, capsys, monkeypatch,
                                                     failing):
    jobs = [(m, s) for m in ("dfm", "model_based", "model_free") for s in (0, 1)]
    path = _write_config(tmp_path, {"methods": ["dfm", "model_based", "model_free"],
                                    "seeds": [0, 1]})
    real_run = cli.run_experiment

    def run_or_fail(method, env, agent, schedule, seed, **kwargs):
        (out / f"started_{method}_{seed}").touch()
        if (method, seed) == failing:
            raise NumericError(f"non-finite training loss nan in {method} seed {seed}")
        time.sleep(0.1)                 # the failure stops the others mid-run
        return real_run(method, env, agent, schedule, seed, **kwargs)

    monkeypatch.setattr(cli, "run_experiment", run_or_fail)
    results, last = [], jobs.index(failing)
    for cores in (1, 3):
        out = tmp_path / f"out{cores}"
        results.append(_run_on(cores, ["run", "--config", path, "--output", str(out)],
                               out, monkeypatch, capsys))
        assert multiprocessing.active_children() == []
        assert not (out / "manifest.json").exists()
        # no run starts after the failure; the cores - 1 others may be under way
        started = [(m, s) for m, s in jobs if (out / f"started_{m}_{s}").exists()]
        assert started[:last + 1] == jobs[:last + 1] and len(started) <= last + cores
    (code_one, out_one, err_one, _), (code_par, out_par, err_par, _) = results
    assert code_one == code_par == 1
    assert err_one == err_par == (f"numeric error: non-finite training loss nan in "
                                  f"{failing[0]} seed {failing[1]}\n")
    assert out_one == out_par


def test_run_lost_with_its_helper_is_a_state_error(tmp_path, capsys, monkeypatch):
    path = _write_config(tmp_path, {"methods": ["model_free"], "seeds": [0, 1, 2]})
    caller, real_run = os.getpid(), cli.run_experiment

    def die_out_of_the_caller(*args, **kwargs):
        if os.getpid() != caller:
            os._exit(3)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(cli, "run_experiment", die_out_of_the_caller)
    usable_cores(monkeypatch, 3)
    assert main(["run", "--config", path, "--output", str(tmp_path / "out")]) == 1
    assert multiprocessing.active_children() == []
    assert capsys.readouterr().err == ("state error: run model_free seed 0 was lost: "
                                       "its process exited with code 3\n")
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_forked_run_prints_each_line_once_to_a_real_stdout(tmp_path, monkeypatch):
    # capsys cannot see a forked process write out a stdout buffer it inherited
    path = _write_config(tmp_path, {"methods": ["pure_fm", "model_free"], "seeds": [0, 1]})
    printed = []
    for cores in (1, 3):
        usable_cores(monkeypatch, cores)
        stdout = tmp_path / f"stdout{cores}.txt"
        with open(stdout, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            code = main(["run", "--config", path, "--output", str(tmp_path / "out")])
        assert code == 0 and multiprocessing.active_children() == []
        printed.append(stdout.read_bytes())
    assert printed[0] == printed[1]
    assert [line.split(":")[0] for line in printed[1].decode().splitlines()] == [
        f"ran {m} seed {s}" for m in ("pure_fm", "model_free") for s in (0, 1)
    ] + [f"wrote 16 files under {tmp_path / 'out'}"]


def test_gen_and_eval_pipeline(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, {"methods": ["model_free"], "seeds": [0],
                                        "output_dir": str(tmp_path / "out")})
    assert main(["run", "--config", cfg_path]) == 0
    real_csv = str(tmp_path / "out" / "real_model_free_seed0.csv")
    synth_csv = str(tmp_path / "synth.csv")
    assert main(["gen", "--memory", real_csv, "--out", synth_csv, "--n", "120",
                 "--config", cfg_path, "--seed", "1"]) == 0
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


def test_report_gain_covers_only_the_seeds_both_methods_ran(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, {"methods": ["dfm", "model_free"], "seeds": [0, 1],
                                        "output_dir": str(out)})
    assert main(["run", "--config", cfg_path]) == 0
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    manifest["runs"] = [r for r in manifest["runs"]
                        if (r["method"], r["seed"]) != ("model_free", 1)]
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh)
    assert main(["report", "--run-dir", str(out)]) == 0
    with open(out / "report" / "report.json") as fh:
        gain = json.load(fh)["early_fps_gain"]
    assert len(gain["per_seed"]) == 1 and gain["median"] == gain["per_seed"][0]


def test_report_calls_the_law_once_per_run(tmp_path, capsys, monkeypatch):
    from dvfsflow import orchestrate

    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, {"methods": ["model_free", "model_based"],
                                        "seeds": [0, 1], "output_dir": str(out)})
    assert main(["run", "--config", cfg_path]) == 0
    law, shapes = orchestrate.law, []
    monkeypatch.setattr(orchestrate, "law",
                        lambda temp, *args: shapes.append(temp.shape) or law(temp, *args))
    assert main(["report", "--run-dir", str(out)]) == 0
    assert shapes == [(60, 1)] * 4              # one call on each run's 60 states


@pytest.mark.parametrize("text,want", [
    # a truncated manifest and one without its sections used to end in a traceback
    ('{"version": 1, "config": {', "manifest parse error in {path} at line 1, column 27: "
                                   "Expecting property name enclosed in double quotes"),
    ('{"version": 1}', "manifest {path}: the root has no key 'config'"),
    ('{"config": {}}', "manifest {path}: the root has no key 'runs'"),
    ('{"config": {}, "runs": []}', "manifest {path}: 'runs' must be a non-empty list"),
    ('{"config": {}, "runs": [{"method": "dfm", "seed": 0, "files": {"runlog": "r.csv", '
     '"real": "m.csv"}}, {"method": "dfm", "seed": 1}]}',
     "manifest {path}: runs[1] has no key 'files'"),
    ('{"config": {}, "runs": [{"method": "dfm", "seed": 0, "files": {"real": "m.csv"}}]}',
     "manifest {path}: runs[0].files has no key 'runlog'"),
    ('[]', "manifest {path}: the root has no key 'config'"),
    # a file name that is not a string used to end in a TypeError from os.path.join
    ('{"config": {}, "runs": [{"method": "dfm", "seed": 0, "files": {"runlog": 5, '
     '"real": "m.csv"}}]}', "manifest {path}: runs[0].files.runlog must be a file name, got 5"),
    ('{"config": {}, "runs": [{"method": "dfm", "seed": 0, "files": {"runlog": "r.csv", '
     '"real": null}}]}', "manifest {path}: runs[0].files.real must be a file name, got None"),
    ('{"config": {}, "runs": [{"method": "dfm", "seed": 0, "files": {"runlog": "r.csv", '
     '"real": "m.csv", "synth": ["s.csv"]}}]}',
     "manifest {path}: runs[0].files.synth must be a file name or null, got ['s.csv']"),
    # an unknown method or a seed that is not an int; a list used to end in "unhashable type"
    ('{"config": {}, "runs": [{"method": ["dfm"], "seed": 0, "files": {"runlog": "r.csv", '
     '"real": "m.csv"}}]}', "manifest {path}: runs[0].method must be one of dfm, pure_fm, "
                            "fm_bootstrap, model_based, model_free, got ['dfm']"),
    ('{"config": {}, "runs": [{"method": "dfn", "seed": 0, "files": {"runlog": "r.csv", '
     '"real": "m.csv"}}]}', "manifest {path}: runs[0].method must be one of dfm, pure_fm, "
                            "fm_bootstrap, model_based, model_free, got 'dfn'"),
    ('{"config": {}, "runs": [{"method": "dfm", "seed": [0], "files": {"runlog": "r.csv", '
     '"real": "m.csv"}}]}', "manifest {path}: runs[0].seed must be an integer, got [0]"),
    ('{"config": {}, "runs": [{"method": "dfm", "seed": true, "files": {"runlog": "r.csv", '
     '"real": "m.csv"}}]}', "manifest {path}: runs[0].seed must be an integer, got True"),
    ('{"config": {}, "runs": [{"method": "dfm", "seed": 0.0, "files": {"runlog": "r.csv", '
     '"real": "m.csv"}}]}', "manifest {path}: runs[0].seed must be an integer, got 0.0"),
    # a run listed twice used to be counted twice in per_run and the medians
    ('{"config": {}, "runs": [{"method": "dfm", "seed": 0, "files": {"runlog": "r.csv", '
     '"real": "m.csv"}}, {"method": "dfm", "seed": 1, "files": {"runlog": "r1.csv", '
     '"real": "m1.csv"}}, {"method": "dfm", "seed": 0, "files": {"runlog": "r.csv", '
     '"real": "m.csv"}}]}', "manifest {path}: runs[2] repeats runs[0]: method 'dfm', seed 0"),
])
def test_report_on_a_malformed_manifest_is_an_input_error(tmp_path, capsys, text, want):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(text)
    assert main(["report", "--run-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: " + want.format(path=manifest) + "\n"
    assert not (tmp_path / "report").exists()


def _csv_bytes(columns, row):
    """A header and one row; a "\\udcff" cell becomes the byte 0xff."""
    return (",".join(columns) + "\n" + ",".join(row) + "\n").encode("utf-8", "surrogateescape")


_MANIFEST = json.dumps({"config": {}, "runs": [{"method": "dfm", "seed": 0, "files": {
    "runlog": "r.csv", "real": "m.csv"}}]}).encode()
_BATCH = _csv_bytes(TRANSITION_LABELS, ["0.5"] * 11)
_BAD_BATCH = _csv_bytes(TRANSITION_LABELS, ["0.5"] * 10 + ["\udcff"])
_BAD_RUNLOG = _csv_bytes(RUNLOG_COLUMNS, [{"t": "1", "action": "0", "fps": "\udcff"}.get(c, "0.5")
                                          for c in RUNLOG_COLUMNS])
_CELL_ERROR = "input error: {path} line 2: could not convert string to float: '\\udcff'"


# a 0xff byte in each of these used to end in a UnicodeDecodeError traceback
@pytest.mark.parametrize("argv,files,bad,want", [
    pytest.param(["run", "--config", "{0}"], {"cfg.json": b'{"seeds": [0]\xff}'}, "cfg.json",
                 "configuration error: config parse error in {path} at line 1, column 14: "
                 "Expecting ',' delimiter", id="run_config"),
    pytest.param(["gen", "--memory", "{0}", "--out", "{1}"], {"mem.csv": _BAD_BATCH, "s.csv": b""},
                 "mem.csv", _CELL_ERROR, id="gen_memory"),
    pytest.param(["eval", "--real", "{0}", "--synth", "{1}"],
                 {"m.csv": _BATCH.replace(b"fps", b"\xffps"), "s.csv": _BATCH}, "m.csv",
                 "input error: unexpected column header in {path}", id="eval_real"),
    pytest.param(["report", "--run-dir", "{dir}"], {"manifest.json": b"\xff" + _MANIFEST},
                 "manifest.json", "input error: manifest parse error in {path} at line 1, "
                 "column 1: Expecting value", id="report_manifest"),
    # inside a string the byte reads as "\\udcff", which no method name holds
    pytest.param(["report", "--run-dir", "{dir}"],
                 {"manifest.json": _MANIFEST.replace(b'"dfm"', b'"df\xff"')}, "manifest.json",
                 "input error: manifest {path}: runs[0].method must be one of dfm, pure_fm, "
                 "fm_bootstrap, model_based, model_free, got 'df\\udcff'",
                 id="report_manifest_method"),
    pytest.param(["report", "--run-dir", "{dir}"],
                 {"manifest.json": _MANIFEST, "r.csv": _BAD_RUNLOG, "m.csv": _BATCH}, "r.csv",
                 _CELL_ERROR, id="report_runlog"),
])
def test_a_file_that_is_not_utf8_is_an_error_naming_it(tmp_path, capsys, argv, files, bad, want):
    paths = [tmp_path / name for name in files]
    for path, data in zip(paths, files.values()):
        path.write_bytes(data)
    assert main([a.format(*paths, dir=tmp_path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == want.format(path=tmp_path / bad) + "\n"
    assert not (tmp_path / "report").exists()


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


@pytest.mark.parametrize("seeds", ["a", "1..x", "0,b"])
def test_bad_seeds_is_a_configuration_error(seeds, capsys):
    assert main(["run", "--seeds", seeds, "--print-config"]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "--seeds" in err and repr(seeds) in err


def test_gen_rejects_non_positive_n_before_training(tmp_path, capsys, monkeypatch):
    from dvfsflow import flow
    from dvfsflow.files import save_batch_csv

    memory = str(tmp_path / "memory.csv")
    save_batch_csv(np.random.default_rng(0).uniform(0.1, 1.0, size=(60, 11)), memory)
    trained = []
    monkeypatch.setattr(flow, "train_flow_model", lambda *a, **k: trained.append(a))
    for n in ("-5", "0"):
        code = main(["gen", "--memory", memory, "--out", str(tmp_path / "synth.csv"),
                     "--n", n, "--method", "fm_bootstrap"])
        assert code != 0
        err = capsys.readouterr().err
        assert "input error" in err and "--n" in err
    assert trained == []
    assert not (tmp_path / "synth.csv").exists()


def test_gen_rejects_negative_seed_before_reading(tmp_path, capsys, monkeypatch):
    # used to end in numpy's "expected non-negative integer" traceback
    from dvfsflow import cli
    from dvfsflow.files import save_batch_csv

    memory = str(tmp_path / "memory.csv")
    save_batch_csv(np.random.default_rng(0).uniform(0.1, 1.0, size=(60, 11)), memory)
    read = []
    monkeypatch.setattr(cli, "load_batch_csv", lambda path: read.append(path))
    out = tmp_path / "synth.csv"
    assert main(["gen", "--memory", memory, "--out", str(out), "--seed", "-1",
                 "--method", "fm_bootstrap"]) == 1
    err = capsys.readouterr().err
    assert "input error: --seed must be >= 0, got -1" in err
    assert read == [] and not out.exists()


def test_duplicate_methods_rejected(tmp_path, capsys):
    # a repeated method used to run twice, overwrite its CSVs and be listed
    # twice in the manifest and in the report's medians
    with pytest.raises(ConfigurationError, match="methods must be distinct"):
        config_from_dict({"methods": ["model_free", "dfm", "model_free"]})
    out = tmp_path / "out"
    path = _write_config(tmp_path, {"output_dir": str(out)})
    assert main(["run", "--config", path, "--methods", "model_free,model_free",
                 "--seeds", "0"]) == 1
    assert "configuration error: methods must be distinct" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_seeds_override_fails_validation(capsys):
    assert main(["run", "--seeds", "1,1", "--print-config"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: seeds must be distinct\n"


def test_unknown_method_error_names_the_known_methods(capsys):
    assert main(["run", "--methods", "dfm,zTT", "--print-config"]) == 1
    assert capsys.readouterr().err == (
        "configuration error: methods contains unknown method 'zTT'; "
        f"known methods: {', '.join(METHODS)}\n")


@pytest.mark.parametrize("payload,field", [
    ({"seeds": ["a"]}, "seeds[0]"),                         # was a raw ValueError
    ({"schedule": {"horizon": "x"}}, "schedule.horizon"),   # was a raw TypeError
    ({"schedule": {"horizon": 2.5}}, "schedule.horizon"),   # used to crash mid-run
    ({"schedule": {"horizon": True}}, "schedule.horizon"),  # used to run as 1
    ({"flow": {"hidden_sizes": "64"}}, "flow.hidden_sizes"),  # used to build [12, 6, 4, 11]
    ({"agent": {"learning_rate": float("nan")}}, "agent.learning_rate"),  # failed mid-run
    ({"agent": {"learning_rate": 10 ** 400}}, "agent.learning_rate"),
    ({"seeds": [-1]}, "seeds"),                             # was a raw ValueError mid-run
    ({"env": {"static_coeff": 0.5}},                        # update factor 1.139
     "env.thermal_capacitance, env.thermal_resistance and env.static_coeff"),
    ([], "config root"),
    ({"env": 5}, "section 'env'"),
])
def test_config_value_types_checked(payload, field, tmp_path, capsys):
    with pytest.raises(ConfigurationError, match=field.replace("[", r"\[")):
        config_from_dict(payload)
    path = str(tmp_path / "cfg.json")
    with open(path, "w") as fh:
        json.dump(payload, fh)
    assert main(["run", "--config", path, "--print-config"]) == 1
    err = capsys.readouterr().err
    assert f"configuration error: {field}" in err


def test_config_list_items_and_float_fields_typed():
    with pytest.raises(ConfigurationError, match=r"agent\.hidden_sizes\[1\]"):
        config_from_dict({"agent": {"hidden_sizes": [6, 6.0]}})
    with pytest.raises(ConfigurationError, match=r"methods\[0\]"):
        config_from_dict({"methods": [1]})
    with pytest.raises(ConfigurationError, match=r"agent\.learning_rate"):
        config_from_dict({"agent": {"learning_rate": "0.1"}})
    cfg = config_from_dict({"agent": {"learning_rate": 1}, "env": {"eta": 4}})
    assert cfg.agent.learning_rate == 1.0 and isinstance(cfg.agent.learning_rate, float)
    assert isinstance(cfg.env.eta, float)


@pytest.mark.parametrize("sizes", [[0], [-3], [64, 0]])
def test_flow_hidden_sizes_below_one_rejected(sizes):
    with pytest.raises(ConfigurationError, match="hidden_sizes"):
        config_from_dict({"flow": {"hidden_sizes": sizes}})


def test_run_with_zero_width_flow_layer_fails_before_writing(tmp_path, capsys):
    # used to write effective_config.json, then fail at the first retrain
    # with an error that named no field
    out = tmp_path / "out"
    path = _write_config(tmp_path, {"flow": {"hidden_sizes": [0]}, "methods": ["dfm"],
                                    "output_dir": str(out)})
    assert main(["run", "--config", path]) == 1
    assert "configuration error: flow.hidden_sizes" in capsys.readouterr().err
    assert not (out / "effective_config.json").exists()


def test_qnet_without_hidden_layers_runs_and_reports(tmp_path):
    # agent.hidden_sizes [] used to be rejected, though a 4-12 Q-net trains
    # as the 11-12 flow net of flow.hidden_sizes [] does
    out = tmp_path / "out"
    path = _write_config(tmp_path, {
        "agent": {"hidden_sizes": []}, "methods": ["model_free"], "seeds": [0],
        "schedule": {**FAST_SECTIONS["schedule"], "exploit_threshold": 20},
        "output_dir": str(out)})
    assert main(["run", "--config", path]) == 0
    with open(out / "summary_model_free_seed0.json") as fh:
        assert json.load(fh)["agent_train_steps_count"] > 0
    assert main(["report", "--run-dir", str(out)]) == 0
    assert (out / "report" / "report.json").exists()


def test_contractive_config_with_static_coeff_times_r_above_c_runs_and_reports(tmp_path):
    # C 0.5, R 3, static_coeff 0.2: static_coeff * R >= C used to be rejected,
    # though the thermal update factor is 0.733
    out = tmp_path / "out"
    path = _write_config(tmp_path, {
        "env": {"thermal_capacitance": 0.5, "thermal_resistance": 3.0, "static_coeff": 0.2},
        "methods": ["model_based", "model_free"], "flow": {"epochs": 5},
        "output_dir": str(out)})
    assert main(["run", "--config", path]) == 0
    assert main(["report", "--run-dir", str(out)]) == 0
    assert (out / "report" / "report.json").exists()


def test_gen_non_finite_cell_is_a_numeric_error(tmp_path, capsys):
    from dvfsflow.files import save_batch_csv

    rows = np.random.default_rng(0).uniform(0.1, 1.0, size=(60, 11))
    rows[7, 4] = np.nan                     # used to end in a raw ValueError traceback
    memory = str(tmp_path / "memory.csv")
    save_batch_csv(rows, memory)
    out = tmp_path / "synth.csv"
    assert main(["gen", "--memory", memory, "--out", str(out), "--method",
                 "fm_bootstrap"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"numeric error: {memory}: ") and "column(s) action" in err
    assert not out.exists()


def test_ambient_temp_that_allows_non_positive_power_fails_validation(tmp_path, capsys):
    # used to pass validation, then stop some seeds' runs with "input error:
    # power must be > 0 to evaluate the reward", which named no field
    out = tmp_path / "out"
    path = _write_config(tmp_path, {"env": {"ambient_temp": -2}, "methods": ["model_free"],
                                    "seeds": [3], "output_dir": str(out)})
    assert main(["run", "--config", path]) == 1
    assert capsys.readouterr().err.startswith("configuration error: env.ambient_temp must be > ")
    assert not out.exists()


@pytest.mark.parametrize("line,want", [
    ("1,2,3,4,5,6,7,8,9,10", "line 3: expected 11 cells, got 10"),   # was numpy's shape error
    ("1,2,3,4,abc,6,7,8,9,10,11", "line 3: could not convert string to float: 'abc'"),
])
def test_malformed_batch_csv_is_an_input_error(line, want, tmp_path, capsys):
    good = str(tmp_path / "good.csv")
    with open(good, "w") as fh:
        fh.write(",".join(TRANSITION_LABELS) + "\n" + ",".join(["0.5"] * 11) + "\n")
    bad = str(tmp_path / "bad.csv")
    with open(good) as src, open(bad, "w") as fh:
        fh.write(src.read() + line + "\n")
    assert main(["eval", "--real", bad, "--synth", good]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and f"{bad} {want}" in err


def test_eval_non_finite_cell_is_a_numeric_error(tmp_path, capsys):
    from dvfsflow.files import save_batch_csv

    rng = np.random.default_rng(0)
    real, synth = str(tmp_path / "real.csv"), str(tmp_path / "synth.csv")
    save_batch_csv(rng.uniform(0.1, 1.0, size=(30, 11)), real)
    rows = rng.uniform(0.1, 1.0, size=(40, 11))
    rows[3, 2] = np.nan                     # used to print "power": NaN and exit 0
    rows[5, 9] = np.inf
    save_batch_csv(rows, synth)
    assert main(["eval", "--real", real, "--synth", synth]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"numeric error: {synth}: ")
    assert "column(s) power, reward" in captured.err


def test_report_non_finite_cell_is_a_numeric_error(tmp_path, capsys):
    from dvfsflow.files import load_batch_csv, save_batch_csv

    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, {"methods": ["pure_fm", "model_free"],
                                        "seeds": [0, 1], "output_dir": str(out)})
    assert main(["run", "--config", cfg_path]) == 0
    synth = str(out / "synth_pure_fm_seed1.csv")
    rows = load_batch_csv(synth)
    rows[0, 0] = np.nan
    save_batch_csv(rows, synth)
    capsys.readouterr()
    assert main(["report", "--run-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"numeric error: {synth}: ") and "column(s) fps\n" in err
    assert not (out / "report").exists()


def _pure_fm_model_free_run(tmp_path):
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, {"methods": ["pure_fm", "model_free"],
                                        "seeds": [0], "output_dir": str(out)})
    assert main(["run", "--config", cfg_path]) == 0
    return out


@pytest.mark.parametrize("cell,want", [
    ("nan", "numeric error: {path} line 6: NaN/inf in run-log column(s) reward\n"),
    ("abc", "input error: {path} line 6: could not convert string to float: 'abc'\n"),
    # 13 cells used to pass, the two extra filed under the key None
    ("1,2,3", "input error: {path} line 6: expected 11 cells, got 13\n"),
    # a valid line 6, then a 4-cell line 7, which used to fail in int(None)
    ("0,0,0,0,\n1,2,3,4\n", "input error: {path} line 7: expected 11 cells, got 4\n"),
])
def test_report_bad_runlog_cell_names_path_and_line(tmp_path, capsys, cell, want):
    # a nan reward used to give exit 0 and "mean_reward": NaN, abc a traceback
    out = _pure_fm_model_free_run(tmp_path)
    runlog = out / "runlog_model_free_seed0.csv"
    lines = runlog.read_text().splitlines(keepends=True)
    cells = lines[5].split(",")                      # step 5, line 6 of the file
    cells[6] = cell                                  # the reward column
    lines[5] = ",".join(cells)
    runlog.write_text("".join(lines))
    capsys.readouterr()
    assert main(["report", "--run-dir", str(out)]) == 1
    assert capsys.readouterr().err == want.format(path=runlog)
    assert not (out / "report").exists()        # it used to be left behind, empty


def test_report_on_a_run_log_without_steps_is_an_input_error(tmp_path, capsys):
    # a header-only run log used to end in an IndexError traceback at final_regret
    out = _pure_fm_model_free_run(tmp_path)
    runlog = out / "runlog_model_free_seed0.csv"
    runlog.write_text(runlog.read_text().splitlines(keepends=True)[0])
    capsys.readouterr()
    assert main(["report", "--run-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"input error: {runlog}: the run log holds no steps\n"
    assert not (out / "report").exists()


@pytest.mark.parametrize("command", ["eval", "report"])
def test_wrong_csv_header_names_the_file(command, tmp_path, capsys):
    out = _pure_fm_model_free_run(tmp_path)
    name, kind = {"eval": ("real_model_free_seed0.csv", "column header"),
                  "report": ("runlog_model_free_seed0.csv", "run-log header")}[command]
    bad = out / name
    lines = bad.read_text().splitlines(keepends=True)
    bad.write_text(lines[0].replace("fps", "FPS", 1) + "".join(lines[1:]))
    capsys.readouterr()
    argv = (["eval", "--real", str(bad), "--synth", str(out / "synth_pure_fm_seed0.csv")]
            if command == "eval" else ["report", "--run-dir", str(out)])
    assert main(argv) == 1
    assert capsys.readouterr().err == f"input error: unexpected {kind} in {bad}\n"


def _header_only_batch(path):
    with open(path, "w") as fh:
        fh.write(",".join(TRANSITION_LABELS) + "\n")
    return str(path)


@pytest.mark.parametrize("empty", ["real", "synth"])
def test_eval_on_a_batch_without_rows_names_the_file(empty, tmp_path, capsys):
    # used to print "input error: wasserstein1 needs non-empty samples"
    from dvfsflow.files import save_batch_csv

    paths = {"real": str(tmp_path / "real.csv"), "synth": str(tmp_path / "synth.csv")}
    save_batch_csv(np.random.default_rng(0).uniform(0.1, 1.0, size=(30, 11)),
                   paths["synth" if empty == "real" else "real"])
    _header_only_batch(paths[empty])
    assert main(["eval", "--real", paths["real"], "--synth", paths["synth"]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {paths[empty]}: the batch holds no transition rows\n"


def test_report_on_a_batch_without_rows_names_the_file(tmp_path, capsys):
    out = _pure_fm_model_free_run(tmp_path)
    synth = _header_only_batch(out / "synth_pure_fm_seed0.csv")
    capsys.readouterr()
    assert main(["report", "--run-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"input error: {synth}: the batch holds no transition rows\n"
    assert not (out / "report").exists()


def test_gen_on_a_batch_without_rows_names_the_file_and_the_floor(tmp_path, capsys):
    memory = _header_only_batch(tmp_path / "memory.csv")
    assert main(["gen", "--memory", memory, "--out", str(tmp_path / "synth.csv")]) == 1
    assert capsys.readouterr().err == (
        "input error: generator training needs more than 32 transitions (schedule.batch_size) "
        f"and at least 32 (schedule.fm_train_start), {memory} holds 0\n")


@pytest.mark.parametrize("rows,code", [(16, 1), (17, 0)])
def test_gen_trains_only_where_a_run_would(tmp_path, capsys, rows, code):
    # a run retrains once phi_M > batch_size and len(M) >= fm_train_start;
    # gen used to check only the second, so it trained on 16 rows here
    cfg_path = _write_config(tmp_path, {"schedule": {"batch_size": 16, "fm_train_start": 8}})
    memory = str(tmp_path / "memory.csv")
    save_batch_csv(np.random.default_rng(0).uniform(size=(rows, len(TRANSITION_LABELS))),
                   memory)
    argv = ["gen", "--memory", memory, "--out", str(tmp_path / "synth.csv"), "--n", "5",
            "--config", cfg_path]
    assert main(argv) == code
    if code:
        assert capsys.readouterr().err == (
            "input error: generator training needs more than 16 transitions (schedule.batch_size) "
            f"and at least 8 (schedule.fm_train_start), {memory} holds 16\n")


def test_gen_rejects_a_method_without_a_generator_before_reading(tmp_path, capsys,
                                                                  monkeypatch):
    read = []
    monkeypatch.setattr(cli, "load_batch_csv", lambda path: read.append(path))
    out = tmp_path / "synth.csv"
    for method in ("model_free", "zTT"):
        assert main(["gen", "--memory", str(tmp_path / "memory.csv"), "--out", str(out),
                     "--method", method]) == 1
        assert capsys.readouterr().err == (
            "input error: --method must be a method with a generator, one of dfm, pure_fm, "
            f"fm_bootstrap, model_based, got {method!r}\n")
    assert read == [] and not out.exists()


def test_gen_model_based_plans_from_rows_of_the_memory(tmp_path, capsys):
    from dvfsflow.files import load_batch_csv
    from dvfsflow.flow import INPUT_COLS, TransitionLayout, canonical_rows

    cfg_path = _write_config(tmp_path)
    memory, out = str(tmp_path / "memory.csv"), str(tmp_path / "synth.csv")
    save_batch_csv(np.random.default_rng(0).uniform(0.1, 1.0, size=(40, 11)), memory)
    assert main(["gen", "--memory", memory, "--out", out, "--n", "90", "--config", cfg_path,
                 "--method", "model_based"]) == 0
    assert capsys.readouterr().out.endswith(f"wrote 90 samples to {out}\n")
    cfg = load_config(cfg_path)
    real = canonical_rows(load_batch_csv(memory),
                          TransitionLayout(cfg.env.num_actions, cfg.env.ambient_temp))
    synth = load_batch_csv(out)
    assert synth.shape == (90, 11)
    seeds = {tuple(row) for row in real[:, INPUT_COLS].tolist()}
    assert all(tuple(row) in seeds for row in synth[:, INPUT_COLS].tolist())


def test_gen_trains_each_flow_method_on_its_replicate_count(tmp_path, monkeypatch):
    from dvfsflow import flow

    train = flow.train_flow_model
    counts = []

    def spy(data, lam, config, seed=0):
        counts.append(config.bootstrap_count)
        return train(data, lam, config, seed=seed)

    monkeypatch.setattr(flow, "train_flow_model", spy)
    cfg_path = _write_config(tmp_path)          # flow.bootstrap_count 2
    memory = str(tmp_path / "memory.csv")
    save_batch_csv(np.random.default_rng(0).uniform(0.1, 1.0, size=(40, 11)), memory)
    for method in ("pure_fm", "fm_bootstrap"):
        assert main(["gen", "--memory", memory, "--out", str(tmp_path / "synth.csv"),
                     "--n", "5", "--config", cfg_path, "--method", method]) == 0
    assert counts == [1, 2]


@pytest.mark.parametrize("flag", ["methods", "seeds"])
def test_empty_methods_or_seeds_override_fails_validation(flag, capsys):
    # an empty override used to be ignored: the config's methods or seeds ran instead
    assert main(["run", f"--{flag}", "", "--print-config"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: {flag} must be non-empty\n"


def test_empty_output_override_fails_validation(capsys):
    # an empty --output used to be ignored: the config's output_dir was echoed
    assert main(["run", "--output", "", "--print-config"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: output_dir must be non-empty\n"


def test_empty_output_dir_in_a_config_file_fails_before_running(tmp_path, capsys):
    # it used to pass validation and end in a missing-file error at os.makedirs
    path = _write_config(tmp_path, {"output_dir": ""})
    with pytest.raises(ConfigurationError, match="output_dir"):
        load_config(path)
    assert main(["run", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: output_dir must be non-empty\n"


def test_runlog_empty_loss_cells_read_as_none(tmp_path):
    from dvfsflow.files import runlog_from_csv

    out = _pure_fm_model_free_run(tmp_path)
    log = runlog_from_csv(str(out / "runlog_pure_fm_seed0.csv"))
    with open(out / "summary_pure_fm_seed0.json") as fh:
        retrains = json.load(fh)["fm_train_steps"]
    assert retrains and all(v is None for v in log.agent_loss)   # no agent update yet
    assert [t for t, v in zip(log.t, log.fm_loss) if v is not None] == retrains
    assert all(type(log.fm_loss[t - 1]) is float for t in retrains)


def test_report_stale_env_key_is_a_configuration_error(tmp_path, capsys):
    # the manifest's env section goes through config validation: a retired
    # key used to be a TypeError traceback from EnvConfig(**env)
    out = _pure_fm_model_free_run(tmp_path)
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert "seed" not in manifest["config"]["env"]
    manifest["config"]["env"]["seed"] = 0
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh)
    capsys.readouterr()
    assert main(["report", "--run-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "['seed'] in section 'env'" in err


@pytest.mark.parametrize("argv", [
    ["run", "--config", "{dir}"],
    ["eval", "--real", "{dir}", "--synth", "{dir}"],
])
def test_directory_given_as_a_file_is_a_one_line_error(tmp_path, capsys, argv):
    # used to end in an IsADirectoryError traceback
    assert main([a.format(dir=tmp_path) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("file error: ") and str(tmp_path) in err
    assert err.count("\n") == 1


def test_run_output_that_is_a_file_is_a_one_line_error(tmp_path, capsys):
    # os.makedirs used to end in a FileExistsError traceback
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    cfg_path = _write_config(tmp_path, {"methods": ["model_free"], "seeds": [0]})
    assert main(["run", "--config", cfg_path, "--output", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("file error: ") and str(taken) in err
    assert err.count("\n") == 1
    assert taken.read_text() == "not a directory\n"


def test_missing_file_names_the_path(capsys):
    assert main(["run", "--config", "/nonexistent/cfg.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("missing file: ") and "/nonexistent/cfg.json" in err


def test_report_on_a_run_too_short_for_stability(tmp_path, capsys):
    # a 5-step run has no q-value stability estimate (it needs 8 steps);
    # report used to exit 1 with "run log too short for a stability estimate"
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, {"methods": ["pure_fm", "model_free"],
                                        "seeds": [0], "output_dir": str(out),
                                        "schedule": {"horizon": 5}})
    assert main(["run", "--config", cfg_path]) == 0
    assert main(["report", "--run-dir", str(out)]) == 0
    with open(out / "report" / "report.json") as fh:
        payload = json.load(fh)
    assert [r["qvalue_stability"] for r in payload["per_run"]] == [None, None]
    assert payload["medians"]["model_free"]["qvalue_stability"] is None
    assert payload["medians"]["model_free"]["final_regret"] >= 0
    lines = (out / "report" / "metrics.csv").read_text().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        assert line.split(",")[4] == ""


def test_report_medians_skip_runs_too_short_for_stability(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, {"methods": ["model_free"], "seeds": [0, 1, 2],
                                        "output_dir": str(out),
                                        "schedule": {"horizon": 20}})
    assert main(["run", "--config", cfg_path]) == 0
    short = out / "runlog_model_free_seed1.csv"        # cut seed 1 to 5 steps
    short.write_text("".join(short.read_text().splitlines(keepends=True)[:6]))
    assert main(["report", "--run-dir", str(out)]) == 0
    with open(out / "report" / "report.json") as fh:
        payload = json.load(fh)
    stab = [r["qvalue_stability"] for r in payload["per_run"]]
    assert stab[1] is None and None not in (stab[0], stab[2])
    want = float(np.median([stab[0], stab[2]]))
    assert payload["medians"]["model_free"]["qvalue_stability"] == want


def test_run_no_longer_than_one_retrain_period_writes_no_synthetic_batch(tmp_path, capsys):
    # horizon == fm_retrain_period: the only multiple is the final step, where
    # no retrain runs, so no generator method fills M'
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, {"methods": ["dfm", "model_based", "model_free"],
                                        "seeds": [0], "output_dir": str(out),
                                        "schedule": {"horizon": 50, "fm_retrain_period": 50}})
    assert main(["run", "--config", cfg_path]) == 0
    assert main(["report", "--run-dir", str(out)]) == 0
    with open(out / "manifest.json") as fh:
        runs = json.load(fh)["runs"]
    assert [r["files"]["synth"] for r in runs] == [None, None, None]
    for r in runs:
        with open(out / r["files"]["summary"]) as fh:
            assert json.load(fh)["fm_train_steps"] == []
    with open(out / "report" / "report.json") as fh:
        assert not [r for r in json.load(fh)["per_run"] if "eval" in r]


# Each of these validated, ran, and then made report and eval exit 1 with
# "pearson_matrix needs at least 2 rows": a one-row real or synthetic batch.
ONE_ROW_SCHEDULES = [
    pytest.param({"horizon": 1}, "corr_real.svg", id="horizon_1"),
    pytest.param({"planning_breadth": 1, "horizon": 60}, "corr_pure_fm.svg", id="breadth_1"),
    pytest.param({"real_capacity": 1, "horizon": 60}, "corr_real.svg", id="real_capacity_1"),
]


@pytest.mark.parametrize("schedule,skipped", ONE_ROW_SCHEDULES)
def test_one_row_batch_reports_null_correlations(tmp_path, capsys, schedule, skipped):
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, {"methods": ["pure_fm", "model_free"],
                                        "seeds": [0, 1], "output_dir": str(out),
                                        "schedule": schedule})
    assert main(["run", "--config", cfg_path]) == 0
    assert main(["report", "--run-dir", str(out)]) == 0
    with open(out / "report" / "report.json") as fh:
        payload = json.load(fh)
    assert skipped in [s["figure"] for s in payload["skipped_figures"]]
    assert not (out / "report" / skipped).exists()
    for fig in ("fps.svg", "max_q.svg", "regret.svg"):
        assert (out / "report" / fig).exists()
    evals = [r["eval"] for r in payload["per_run"] if "eval" in r]
    for e in evals:                         # every pure_fm batch of this config has 1 row
        assert e["corr_gap"] is None and e["corr_excluded_entries"] is None
    if evals:
        assert payload["medians"]["pure_fm"]["corr_gap"] is None
    for line in (out / "report" / "metrics.csv").read_text().splitlines()[1:]:
        assert line.split(",")[6] == ""

    real = out / "real_pure_fm_seed0.csv"
    synth = out / "synth_pure_fm_seed0.csv"
    result = tmp_path / "eval.json"
    argv = ["eval", "--real", str(real), "--synth", str(synth if synth.exists() else real),
            "--out", str(result)]
    assert main(argv) == 0
    with open(result) as fh:
        got = json.load(fh)
    assert got["corr_gap"] is None and got["corr_excluded_entries"] is None
    assert min(got["n_real"], got["n_synth"]) == 1
    if got["n_real"] == 1:
        assert got["zero_variance_real"] == TRANSITION_LABELS


# each schedule over FAST_SECTIONS, and whether a generator method retrains under it
RETRAIN_SCHEDULES = [
    pytest.param({"horizon": 50, "fm_retrain_period": 50}, False, id="period_is_horizon"),
    pytest.param({"horizon": 1}, False, id="horizon_1"),
    pytest.param({"horizon": 51, "fm_retrain_period": 50}, True, id="one_multiple_below"),
    pytest.param({"fm_retrain_period": 20, "batch_size": 40}, False, id="batch_size"),
    pytest.param({"horizon": 61, "fm_retrain_period": 20, "batch_size": 40}, True,
                 id="past_batch_size"),
    pytest.param({"fm_retrain_period": 10, "real_capacity": 20}, False, id="real_capacity"),
    pytest.param({"fm_retrain_period": 10, "fm_train_start": 51}, False, id="train_start"),
    pytest.param({"horizon": 61, "fm_retrain_period": 10, "fm_train_start": 51}, True,
                 id="past_train_start"),
    pytest.param({"horizon": 40, "fm_retrain_period": 10, "batch_size": 30,
                  "fm_train_start": 40}, False, id="batch_size_and_train_start"),
]


@pytest.mark.parametrize("schedule,retrains", RETRAIN_SCHEDULES)
def test_run_warns_exactly_when_a_generator_method_never_retrains(tmp_path, capsys, schedule,
                                                                   retrains):
    # such a run used to pass validation and run as model_free without a word
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, {"methods": ["pure_fm", "model_free"], "seeds": [0],
                                        "output_dir": str(out),
                                        "schedule": {**FAST_SECTIONS["schedule"], **schedule}})
    assert main(["run", "--config", cfg_path]) == 0
    with open(out / "summary_pure_fm_seed0.json") as fh:
        assert (json.load(fh)["fm_train_steps"] != []) == retrains
    err = capsys.readouterr().err
    if retrains:
        assert err == ""
    else:
        assert err.startswith("warning: pure_fm will not retrain (they run as model_free): ")
        assert err.count("\n") == 1 and "schedule." in err
        fields = {k for k in schedule if k != "horizon"} | {"horizon", "fm_retrain_period"}
        assert all(f"schedule.{k} = " in err for k in fields), err


def test_run_warning_names_the_generator_methods_and_the_fields(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, {
        "methods": ["model_free", "dfm", "model_based"], "seeds": [0],
        "output_dir": str(tmp_path / "out"),
        "schedule": {**FAST_SECTIONS["schedule"], "horizon": 40, "fm_retrain_period": 10,
                     "batch_size": 30, "fm_train_start": 40}})
    assert main(["run", "--config", cfg_path]) == 0
    assert capsys.readouterr().err == (
        "warning: dfm, model_based will not retrain (they run as model_free): at step 30, the "
        "last multiple of schedule.fm_retrain_period = 10 below schedule.horizon = 40, the "
        "real memory has taken 30 transitions, not more than schedule.batch_size = 30 and "
        "holds 30 (schedule.real_capacity = 500), fewer than schedule.fm_train_start = 40\n")


def test_run_of_model_free_alone_never_warns(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, {"methods": ["model_free"], "seeds": [0],
                                        "output_dir": str(tmp_path / "out"),
                                        "schedule": {"horizon": 5}})
    assert main(["run", "--config", cfg_path]) == 0
    assert capsys.readouterr().err == ""


def _report_peak(run_dir) -> int:
    """The tracemalloc peak, in bytes, of a report of ``run_dir``."""
    tracemalloc.start()
    try:
        assert main(["report", "--run-dir", str(run_dir)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_report_memory_does_not_grow_with_the_run_count(tmp_path, capsys):
    # the report holds one run's batches at a time; it used to keep every batch it
    # read until it returned, 0.44 MB for each of these 5,000-row batches
    runs = [("dfm", seed, 200, 5000, 5000) for seed in range(8)]
    write_run_dir(tmp_path / "two", runs[:2])
    write_run_dir(tmp_path / "eight", runs)
    _report_peak(tmp_path / "two")          # the first report's imports and caches
    two, eight = _report_peak(tmp_path / "two"), _report_peak(tmp_path / "eight")
    assert eight <= two + 100_000, (two, eight)
