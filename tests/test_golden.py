"""Golden run digests: a refactor that keeps behaviour keeps these bytes.

Each method runs once on a small fixed config at seed 0; the sha256 of its
run-log CSV and of its last synthetic batch CSV are pinned, and so are the
batch that ``dvfsflow gen`` writes and every file that
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
    "dfm": ("8b1bec1a93912fd2907ee8b72055c19fd26f8e0896141724afca34e7505f77a3",
            "56d3d10d9d63434c358ebeea936903c0d82e5f8d2d383f3d029ceca10a364c0d"),
    "pure_fm": ("5096d37a9535dfd903801d220ff40b4d2778e5d65a9e3c849546e6777636c578",
                "dbbdc35778a1a727c4706a464a0923730e4d617d197a6148d850047044da52a8"),
    "model_based": ("4e3841befd7eb5865a3aa486ff654d1098726162bab15d3f4d3a45a56d697454",
                    "4364ee794ad36d2b7201e6f9e0d5a8491130200a15577367d30186f0fb8f1082"),
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
    "0x1.0a5a8ecb28745p-6", "0x1.855011192ae85p-7", "0x1.57463056372e9p-5",
    "0x1.62216cef35928p-3", "0x1.9207e114561e1p-2", "0x1.0a5a8ecb28745p-6",
    "0x1.855011192ae85p-7", "0x1.57463056372e9p-5", "0x1.62216cef35928p-3",
    "0x1.f1934befbb1b3p-5", "0x1.f1934befbb1b3p-5",
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


# Both memories evict (|M| = 150 of 400 steps, |M'| = 500 of up to 2,700
# synthetic rows), and the Q-net takes 300-361 updates: 15-18 target syncs and
# three Adam resets.  This pins the replay memories' eviction order and the
# Q-net's update schedule on their own.
EVICTION_SYNC_CONFIG = {"schedule": {"horizon": 400, "fm_retrain_period": 40,
                                     "planning_breadth": 300, "synth_capacity": 500,
                                     "real_capacity": 150},
                        "flow": {"epochs": 20}}
GOLDEN_EVICTION_SYNC = {
    "pure_fm": ("0ee35daa8276f4f7fe295bc3b0ddd97cd64a4282e49a3da68106fc33abed724a",
                "3d46f3ea2b912ec64c8269d91100d137c00a5885c30cfd93723b16a4609ff5bc",
                "7a43cedc2830bba9e286062a174fd0a089949cb1fbbd3de4762688706999b371", 361),
    "model_based": ("b5d7de0bbb388e2efecbd13d2511a33ce777d37fee2fd9308ed0b0acee5c933e",
                    "a0f6147a00543139bec1c4744109e3c9825a43cd1c9af3d019c75fd859f5a6b0",
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
# enough for the forest's floor of 50, so one variant takes forest lambda (dfm)
# and the other the uniform lambda of fm_bootstrap.  Both keep the config's B.
GEN_CONFIG = {"flow": {"epochs": 60}}
GOLDEN_GEN = {
    "forest": "a40254df7a3ea0e2d40d1bc714da23809d0fe4ff91f7ff6129afcedddb97501d",
    "uniform": "a0c281a1353619ff73da0a03c153ee404b9c1aae9cda816ea210fb532a5a956d",
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
            "--config", config, "--seed", "3"]
    assert main(argv + (["--method", "fm_bootstrap"] if variant == "uniform" else [])) == 0
    assert _sha256(tmp_path / "synth.csv") == GOLDEN_GEN[variant]


# `dvfsflow run` → `report` → `eval --out` on dfm and model_free, seeds 0 and 1,
# so the report covers early_fps_gain, both heatmaps and every metric column.
# The digests pin the bytes of every file the report and eval writers produce.
REPORT_CONFIG = {"schedule": {"horizon": 100}, "flow": {"epochs": 10}, "forest": {"n_trees": 10},
                 "methods": ["dfm", "model_free"], "seeds": [0, 1]}
GOLDEN_REPORT = {
    "report.json":
        "1c99865375bcdbf220deee30b177be099386244fa5afeff5665a3cb89417265e",
    "metrics.csv":
        "b10fecb496e15d8ead172f510a714aa47f92bb0d6bfe9a669455282d78f0621c",
    "corr_dfm.svg":
        "5d535e57952380934c2d2be65523d33629e75f486764a1b267c56519bff49b29",
    "corr_real.svg":
        "30e75e7a877c354c339f15f54cd460fd4ad64d5295045e4fb142e0acef8c47df",
    "fps.svg":
        "f149dc6f4866194117a6e5543d88ef778c7b3f1a1c280b0d5bb0bda0573d0648",
    "max_q.svg":
        "43094c487b0ec77b3487b916a160f5507aa9a45638ffb72a28a4caf1d70bb54e",
    "regret.svg":
        "37132e5983f2fd908615d547558077404d4ef6c953fb599c026d7677a666618c",
    "eval.json":
        "dca4e0e7c9e2aea8a0827be48f4316adab1fa2894cbc565fec2012389e42324c",
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
