"""Golden run digests: a refactor that keeps behaviour keeps these bytes.

Each method runs once on a small fixed config at seed 0; the sha256 of its
run-log CSV and of its last synthetic batch CSV are pinned.  A change that
alters any digest must say why in CHANGES.md.
"""

import hashlib

import pytest

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
