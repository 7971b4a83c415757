"""Experiment configuration: one JSON file drives every module.

Empty sections fall back to the tuned defaults (the bold grid-search values
where the hyperparameter has one).  Unknown keys are rejected so typos and
retired keys fail loudly, and every constraint violation names the offending
field.  Each concept has exactly one knob: ``schedule.batch_size`` is the DQN
batch size beta, ``schedule.fm_train_start`` the number of real transitions
every generator (flow or planner) waits for, and ``flow.batch_size`` only the
flow's own training minibatch.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .agent import AgentConfig
from .errors import ConfigurationError
from .flow import FMConfig
from .forest import ForestConfig
from .orchestrate import METHODS, ScheduleConfig
from .simenv import EnvConfig

_SECTIONS = {
    "env": EnvConfig,
    "agent": AgentConfig,
    "schedule": ScheduleConfig,
    "flow": FMConfig,
    "forest": ForestConfig,
}


@dataclass
class ExperimentConfig:
    env: EnvConfig = field(default_factory=EnvConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    flow: FMConfig = field(default_factory=FMConfig)
    forest: ForestConfig = field(default_factory=ForestConfig)
    methods: list[str] = field(default_factory=lambda: ["dfm", "model_free"])
    seeds: list[int] = field(default_factory=lambda: [0])
    output_dir: str = "runs"

    def validate(self) -> None:
        self.env.validate()
        self.agent.validate()
        self.schedule.validate()
        self.flow.validate()
        self.forest.validate()
        if not self.methods:
            raise ConfigurationError("methods must be non-empty")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigurationError(f"methods contains unknown method {m!r}")
        if not self.seeds:
            raise ConfigurationError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("seeds must be distinct")


def _build_section(cls, payload: dict, section: str):
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - known
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {sorted(unknown)} in section {section!r}")
    return cls(**payload)


def config_from_dict(payload: dict) -> ExperimentConfig:
    if not isinstance(payload, dict):
        raise ConfigurationError("config root must be a JSON object")
    known = set(_SECTIONS) | {"methods", "seeds", "output_dir"}
    unknown = set(payload) - known
    if unknown:
        raise ConfigurationError(f"unknown top-level key(s) {sorted(unknown)}")
    kwargs = {}
    for section, cls in _SECTIONS.items():
        raw = payload.get(section, {})
        if not isinstance(raw, dict):
            raise ConfigurationError(f"section {section!r} must be an object")
        kwargs[section] = _build_section(cls, raw, section)
    cfg = ExperimentConfig(**kwargs)
    if "methods" in payload:
        cfg.methods = list(payload["methods"])
    if "seeds" in payload:
        cfg.seeds = [int(s) for s in payload["seeds"]]
    if "output_dir" in payload:
        cfg.output_dir = str(payload["output_dir"])
    cfg.validate()
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "env": dataclasses.asdict(cfg.env),
        "agent": dataclasses.asdict(cfg.agent),
        "schedule": dataclasses.asdict(cfg.schedule),
        "flow": dataclasses.asdict(cfg.flow),
        "forest": dataclasses.asdict(cfg.forest),
        "methods": list(cfg.methods),
        "seeds": list(cfg.seeds),
        "output_dir": cfg.output_dir,
    }


def load_config(path: str) -> ExperimentConfig:
    """Parse and fully validate a JSON experiment config; defaults fill gaps."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"config parse error in {path} at line {exc.lineno}, "
                f"column {exc.colno}: {exc.msg}") from exc
    return config_from_dict(payload)


def dump_config(cfg: ExperimentConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True)
