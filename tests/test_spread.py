"""spread(fn, items): item order, failures and lost helpers; and a lone run
and ``gen``, which stay in the calling process and are byte-identical on one
and on several cores."""

import hashlib
import multiprocessing
import os
import time

import pytest

from conftest import usable_cores
from dvfsflow import forest, nets, spread as spread_mod
from dvfsflow.cli import main
from dvfsflow.config import config_from_dict
from dvfsflow.errors import StateError
from dvfsflow.flow import save_batch_csv
from dvfsflow.orchestrate import run_experiment, runlog_to_csv
from dvfsflow.spread import spread


@pytest.fixture(autouse=True)
def no_helper_left():
    yield
    assert multiprocessing.active_children() == []


def _pid_of(_item):
    return os.getpid()


def test_results_come_back_in_item_order(monkeypatch):
    usable_cores(monkeypatch, 3)

    def task(i):
        time.sleep(0.002 * (i % 5))     # later items often finish first
        return i * i, os.getpid()

    got = list(spread(task, range(40)))
    assert [v for v, _ in got] == [i * i for i in range(40)]
    assert len({pid for _, pid in got}) > 1     # helpers did some of the tasks


@pytest.mark.parametrize("cores,blas_threads", [(1, "1"), (3, None)])
def test_nothing_is_forked_on_one_core_or_unset_blas_threads(monkeypatch, cores,
                                                            blas_threads):
    usable_cores(monkeypatch, cores, blas_threads)
    assert spread_mod.processes(8) == 1
    assert list(spread(_pid_of, range(8))) == [os.getpid()] * 8


def test_earliest_failure_is_raised_after_every_helper_is_joined(tmp_path, monkeypatch):
    usable_cores(monkeypatch, 3)
    failed = tmp_path / "failed_2"

    def task(i):
        (tmp_path / f"start_{i}").touch()
        if i == 1:          # the earliest failure by index, though the last to happen
            time.sleep(0.3)
            (tmp_path / "end_1").touch()
            raise ValueError("task 1 failed")
        if i == 2:
            failed.touch()
            raise ValueError("task 2 failed")
        deadline = time.monotonic() + 5.0
        while not failed.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)     # then this process would take a task, if any were left
        (tmp_path / f"end_{i}").touch()
        return i

    got = []
    with pytest.raises(ValueError, match="task 1 failed"):
        for value in spread(task, range(12)):
            got.append(value)
    assert got == [0]
    # no task started after the failure of task 2, and the raise waited for task 1
    assert sorted(p.name for p in tmp_path.glob("start_*")) == ["start_0", "start_1",
                                                               "start_2"]
    assert (tmp_path / "end_0").exists() and (tmp_path / "end_1").exists()


@pytest.mark.parametrize("name,prefix", [(None, "task "),
                                         (lambda item: f"item {item}", "item ")])
def test_task_lost_with_its_helper_is_a_state_error(monkeypatch, name, prefix):
    usable_cores(monkeypatch, 3)
    caller = os.getpid()

    def die_in_helpers(i):
        if os.getpid() != caller:
            os._exit(3)
        time.sleep(0.2)                 # the helpers take their tasks meanwhile
        return i

    with pytest.raises(StateError) as info:
        list(spread(die_in_helpers, range(3), name=name))
    message = str(info.value)
    assert message.startswith(prefix) and message[len(prefix)] in "012"
    assert message.endswith("was lost: helper processes exited with codes [3, 3]")


def _slow_identity(i):
    time.sleep(0.02)
    return i


def test_spread_closed_early_joins_its_helpers(monkeypatch):
    usable_cores(monkeypatch, 3)
    results = spread(_slow_identity, range(10))
    assert next(results) == 0
    results.close()         # the fixture checks that no helper is left


# ---------------------------------------------------------------- byte identity

TINY_DFM = {"schedule": {"horizon": 121, "fm_retrain_period": 40},
            "flow": {"epochs": 4}, "forest": {"n_trees": 8}}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _note_pids(monkeypatch, pids):
    """Record the process of every forest fit and every flow forward pass."""
    for owner, attr in ((forest, "fit_forest"), (nets, "forward_batch")):
        real = getattr(owner, attr)

        def noted(*args, _real=real, **kwargs):
            (pids / str(os.getpid())).touch()
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, noted)


def _dfm_and_gen(tmp_path, monkeypatch, cores):
    usable_cores(monkeypatch, cores)
    out = tmp_path / f"cores{cores}"
    pids = out / "pids"
    pids.mkdir(parents=True)
    _note_pids(monkeypatch, pids)
    cfg = config_from_dict(TINY_DFM)
    log = run_experiment("dfm", cfg.env, cfg.agent, cfg.schedule, 0,
                         fm_config=cfg.flow, forest_config=cfg.forest)
    runlog_to_csv(log, str(out / "runlog.csv"))
    save_batch_csv(log.real_flat, str(out / "real.csv"))
    config = out / "cfg.json"
    config.write_text('{"flow": {"epochs": 4}, "forest": {"n_trees": 8}}')
    assert main(["gen", "--memory", str(out / "real.csv"), "--out", str(out / "gen.csv"),
                 "--config", str(config)]) == 0
    assert log.fm_train_steps == [40, 80, 120] and len(log.synth_raw) == 1000
    return ({name: _sha256(out / name) for name in ("runlog.csv", "gen.csv")},
            log.synth_raw.tobytes(), [float.hex(v) for v in log.lambda_weights],
            {int(p.name) for p in pids.iterdir()})


def test_dfm_run_and_gen_byte_identical_on_one_and_three_cores(tmp_path, monkeypatch):
    one = _dfm_and_gen(tmp_path, monkeypatch, 1)
    three = _dfm_and_gen(tmp_path, monkeypatch, 3)
    assert one[:3] == three[:3]
    assert one[3] == three[3] == {os.getpid()}      # no forest or block leaves the caller
