"""Golden run digests: a refactor that keeps behaviour keeps these bytes.

Each method runs once on a small fixed config at seed 0; the sha256 of its
run-log CSV and of its last synthetic batch CSV are pinned, and so are the
batch and checkpoint that ``dvfsflow gen`` writes and every file that
``dvfsflow report`` and ``dvfsflow eval --out`` write.  A change that alters any
digest must say why in CHANGES.md.
"""

import hashlib
import json

import pytest

from dvfsflow.cli import main
from dvfsflow.config import config_from_dict
from dvfsflow.flow import save_batch_csv
from dvfsflow.orchestrate import run_experiment, runlog_to_csv

GOLDEN_CONFIG = {"schedule": {"horizon": 120, "fm_retrain_period": 40},
                 "flow": {"epochs": 60}}

GOLDEN = {
    "dfm": ("68a081f298c6b7524d860ad8ecb95f2407fd2ee17b703e01570b7ec45b8ce547",
            "1d2ceeb53c57639a80c80599b42ac86bfb19355b5e820236c8f5c6ba96c2f9cc"),
    "pure_fm": ("30bf1dcd09d536488e840bf42f0031f35f0d1f016b60387497ce5e53bd9956d2",
                "f6a477838eb4a02cd9b1f3d679f8372da360794b2fe9a1ed5e765a3098a7c324"),
    "model_based": ("90205e7a686920d1879da5e1359fa1ce3f52932d5352eafeb827d141a880f989",
                    "4713afa04e2ec1fea7b23044acd63835ec96c8dd25f1952376c87c9c7478664c"),
    "model_free": ("8eedad3cd7cfb6d8dfba5568b290bc1883f92572cee4c786eceade6bfbe6481f",
                   None),
}


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("method", sorted(GOLDEN))
def test_golden_digests(method, tmp_path):
    cfg = config_from_dict(GOLDEN_CONFIG)
    log = run_experiment(method, cfg.env, cfg.agent, cfg.schedule, 0,
                         fm_config=cfg.flow, forest_config=cfg.forest)
    runlog_to_csv(log, str(tmp_path / "runlog.csv"))
    runlog_digest, synth_digest = GOLDEN[method]
    assert _sha256(tmp_path / "runlog.csv") == runlog_digest
    if synth_digest is None:
        assert log.synth_raw is None
    else:
        save_batch_csv(log.synth_raw, str(tmp_path / "synth.csv"))
        assert _sha256(tmp_path / "synth.csv") == synth_digest


# dfm's last forest feature weights (lambda) on the golden config, as
# float.hex, so that a forest change fails here and not only via the digest.
GOLDEN_DFM_LAMBDA = [
    "0x1.72ee4921e9d36p-6", "0x1.a26d7579c5d53p-8", "0x1.6e0854587e215p-5",
    "0x1.43adb72def3edp-3", "0x1.aeb6bea6df439p-2", "0x1.72ee4921e9d36p-6",
    "0x1.a26d7579c5d53p-8", "0x1.6e0854587e215p-5", "0x1.43adb72def3edp-3",
    "0x1.daa101141a303p-5", "0x1.daa101141a303p-5",
]


def test_golden_dfm_lambda_weights():
    cfg = config_from_dict(GOLDEN_CONFIG)
    log = run_experiment("dfm", cfg.env, cfg.agent, cfg.schedule, 0,
                         fm_config=cfg.flow, forest_config=cfg.forest)
    assert [float(v).hex() for v in log.lambda_weights] == GOLDEN_DFM_LAMBDA


# model_free with a horizon four times the real memory, so FIFO eviction runs
# on every step after the 100th and the Q-step samples from a moving window.
EVICTION_CONFIG = {"schedule": {"horizon": 400, "real_capacity": 100}}
GOLDEN_EVICTION_RUNLOG = "9bf69031c5a5988ba9a88340cebd6927ff473a248d395e07425172a98772736f"


def test_golden_digest_with_fifo_eviction(tmp_path):
    cfg = config_from_dict(EVICTION_CONFIG)
    log = run_experiment("model_free", cfg.env, cfg.agent, cfg.schedule, 0,
                         fm_config=cfg.flow, forest_config=cfg.forest)
    assert log.phi_real[-1] > cfg.schedule.real_capacity
    runlog_to_csv(log, str(tmp_path / "runlog.csv"))
    assert _sha256(tmp_path / "runlog.csv") == GOLDEN_EVICTION_RUNLOG


# Both memories evict (|M| = 150 of 400 steps, |M'| = 500 of up to 3,000
# synthetic rows), and the Q-net takes 300-361 updates: 15-18 target syncs and
# three Adam resets.  This pins the replay memories' eviction order and the
# Q-net's update schedule on their own.
EVICTION_SYNC_CONFIG = {"schedule": {"horizon": 400, "fm_retrain_period": 40,
                                     "planning_breadth": 300, "synth_capacity": 500,
                                     "real_capacity": 150},
                        "flow": {"epochs": 20}}
GOLDEN_EVICTION_SYNC = {
    "pure_fm": ("e51ea8d40d20ec0a531797b6ec30b2486e99db3d66937ffde3c161874aa06569",
                "77c0b0073e2d544f6823d39141116976d19dc9627fc0ba718dc47df994764541",
                "d84c747c4f82528a883352e215417eccf867666b78dc1c49ce9f9d4a6b2f7a7d", 361),
    "model_based": ("3c65f16064534327585164b3212e234a6ae6374528a5b724ff81f121a7dcc9c2",
                    "1047e7d04e0b647ed2211bf6c467dfa33a404ec6bf5246ea5b8578187aa07ac1",
                    "916cf73b0b48998ae314854c318d2a205899053b03af4295ba6028b426afecf6", 361),
    "model_free": ("1930aa37508c81b78c57f4f64ecca68848115b96396ee029700f2b51703d8b42",
                   None, "266e0b04ba84abd5cb5e31e919e4bc03e3087882d21c4df87504053e81ebae67", 300),
}


@pytest.mark.parametrize("method", sorted(GOLDEN_EVICTION_SYNC))
def test_golden_digest_with_eviction_syncs_and_resets(method, tmp_path):
    cfg = config_from_dict(EVICTION_SYNC_CONFIG)
    sched = cfg.schedule
    log = run_experiment(method, cfg.env, cfg.agent, sched, 0,
                         fm_config=cfg.flow, forest_config=cfg.forest)
    runlog_digest, synth_digest, real_digest, updates = GOLDEN_EVICTION_SYNC[method]
    assert log.phi_real[-1] > sched.real_capacity
    assert len(log.agent_train_steps) == updates
    assert updates // cfg.agent.target_sync_period >= 15
    assert updates // sched.lr_reset_period == 3
    runlog_to_csv(log, str(tmp_path / "runlog.csv"))
    assert _sha256(tmp_path / "runlog.csv") == runlog_digest
    save_batch_csv(log.real_flat, str(tmp_path / "real.csv"))     # M, oldest first
    assert _sha256(tmp_path / "real.csv") == real_digest
    if synth_digest is None:
        assert log.synth_raw is None and log.phi_synth[-1] == 0
    else:
        assert log.phi_synth[-1] > sched.synth_capacity
        save_batch_csv(log.synth_raw, str(tmp_path / "synth.csv"))
        assert _sha256(tmp_path / "synth.csv") == synth_digest


# `dvfsflow gen` on model_free's real memory from the golden config: 120 rows,
# enough for the forest's floor of 50, so one variant takes forest lambda and
# the other the uniform lambda of --uniform-lambda.  Both keep the config's B.
GEN_CONFIG = {"flow": {"epochs": 60}}
GOLDEN_GEN = {
    "forest": ("42bfa8344a804b3cf571592af129487604ef77e2606838e9c7dfa3ee2c27f14c",
               "5451eb646875da2dc5e2c19dbfeac1c8add929fc8769855811e856dfb24cb53f"),
    "uniform": ("b2ce9487db73244a2b1ef622c57fd79b8292c94ba7438f0286d455bed7b05abe",
                "679fecae6a38b432de1f9647aed3e6768692a1bf562a6626917d64b005d66d95"),
}


@pytest.mark.parametrize("variant", sorted(GOLDEN_GEN))
def test_golden_gen_digests(variant, tmp_path):
    cfg = config_from_dict(GOLDEN_CONFIG)
    log = run_experiment("model_free", cfg.env, cfg.agent, cfg.schedule, 0,
                         fm_config=cfg.flow, forest_config=cfg.forest)
    memory, config = str(tmp_path / "real.csv"), str(tmp_path / "gen.json")
    save_batch_csv(log.real_flat, memory)
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(GEN_CONFIG, fh)
    argv = ["gen", "--memory", memory, "--out", str(tmp_path / "synth.csv"), "--n", "300",
            "--config", config, "--seed", "3", "--checkpoint", str(tmp_path / "flow.json")]
    assert main(argv + (["--uniform-lambda"] if variant == "uniform" else [])) == 0
    with open(tmp_path / "flow.json", encoding="utf-8") as fh:
        checkpoint = json.load(fh)
    assert checkpoint["config"]["bootstrap_count"] == cfg.flow.bootstrap_count
    assert (checkpoint["weights"] == [1.0 / 11] * 11) == (variant == "uniform")
    synth_digest, checkpoint_digest = GOLDEN_GEN[variant]
    assert _sha256(tmp_path / "synth.csv") == synth_digest
    assert _sha256(tmp_path / "flow.json") == checkpoint_digest


# `dvfsflow run` → `report` → `eval --out` on dfm and model_free, seeds 0 and 1,
# so the report covers early_fps_gain, both heatmaps and every metric column.
# The digests pin the bytes of every file the report and eval writers produce.
REPORT_CONFIG = {"schedule": {"horizon": 100}, "flow": {"epochs": 10}, "forest": {"n_trees": 10},
                 "methods": ["dfm", "model_free"], "seeds": [0, 1]}
GOLDEN_REPORT = {
    "report.json":
        "8c6a24b56f1400910a5ab91e0556cbb26aadfb1b8e6c8864e09cd7a6b8a7f87f",
    "metrics.csv":
        "02bd230206567160a6ad8ee270ebd8654a19193da938dd3fb2248fbbad53a7ee",
    "corr_dfm.svg":
        "577d87e280d52c84d81b06d63fff054faf266f70cefe62c960ab28a6294bbfa9",
    "corr_real.svg":
        "30e75e7a877c354c339f15f54cd460fd4ad64d5295045e4fb142e0acef8c47df",
    "fps.svg":
        "f149dc6f4866194117a6e5543d88ef778c7b3f1a1c280b0d5bb0bda0573d0648",
    "max_q.svg":
        "ba7248143c0b78f54b453304cb55bf1b0ab5be46de6cb24347c400ac13335a2a",
    "regret.svg":
        "37132e5983f2fd908615d547558077404d4ef6c953fb599c026d7677a666618c",
    "eval.json":
        "4ec22204329279522c70c62a9659f5c288700f4564ce2f770e9cae6487c38063",
}


def test_golden_report_and_eval_digests(tmp_path, capsys):
    config, out = str(tmp_path / "cfg.json"), tmp_path / "run"
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({**REPORT_CONFIG, "output_dir": str(out)}, fh)
    assert main(["run", "--config", config]) == 0
    assert main(["report", "--run-dir", str(out)]) == 0
    assert main(["eval", "--real", str(out / "real_dfm_seed0.csv"),
                 "--synth", str(out / "synth_dfm_seed0.csv"),
                 "--out", str(out / "report" / "eval.json")]) == 0
    got = {name: _sha256(out / "report" / name) for name in GOLDEN_REPORT}
    assert sorted(p.name for p in (out / "report").iterdir()) == sorted(GOLDEN_REPORT)
    assert got == GOLDEN_REPORT
