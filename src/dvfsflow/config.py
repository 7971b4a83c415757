"""Experiment configuration: one JSON file drives every module.

Empty sections fall back to the tuned defaults (the bold grid-search values
where the hyperparameter has one).  Unknown keys are rejected so typos and
retired keys fail loudly, every value is checked against its field's type,
and every type or constraint violation names the offending field.  Each
section field declares its domain on itself (:func:`errors.domain`), which
its section's ``validate()`` checks, NaN and inf included, for configs built
in Python and read from JSON alike.  Each concept has exactly one knob:
``schedule.batch_size`` is the DQN batch size beta; a generator (flow or
planner) trains, in ``run`` and ``gen`` alike, once M holds
``schedule.fm_train_start`` rows and phi_M > beta
(``ScheduleConfig.can_train``), so at beta 32, fm_train_start 10 and zeta_d
20 the first retrain falls at step 40; ``flow.epochs``, ``flow.batch_size``
and ``flow.learning_rate`` train the flow and the model-based planner alike.

:class:`ExperimentConfig`'s fields are the one list of what a config holds: a
dataclass-typed field is a section, any other field a top-level key.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import typing
from dataclasses import dataclass, field

from .agent import AgentConfig
from .errors import ConfigurationError
from .flow import FMConfig
from .forest import ForestConfig
from .orchestrate import METHODS, ScheduleConfig
from .simenv import EnvConfig


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
        for f in dataclasses.fields(self):
            section = getattr(self, f.name)
            if dataclasses.is_dataclass(section):
                section.validate()
        if not self.methods:
            raise ConfigurationError("methods must be non-empty")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigurationError(f"methods contains unknown method {m!r}; "
                                         f"known methods: {', '.join(METHODS)}")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigurationError("methods must be distinct")
        if not self.seeds:
            raise ConfigurationError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("seeds must be distinct")
        if min(self.seeds) < 0:
            raise ConfigurationError("seeds must be >= 0")
        if not self.output_dir:
            raise ConfigurationError("output_dir must be non-empty")


_ACCEPTS = {int: numbers.Integral, float: numbers.Real}   # float fields take ints too


def _typed(name: str, value, annotation):
    """``value`` checked against a field annotation (int, float, str or
    list[...]) and converted to it; bools pass for no field.  The sections'
    ``validate()`` rejects NaN and inf."""
    if typing.get_origin(annotation) is list:
        if not isinstance(value, list):
            raise ConfigurationError(f"{name} must be a list, got {value!r}")
        (item,) = typing.get_args(annotation)
        return [_typed(f"{name}[{i}]", v, item) for i, v in enumerate(value)]
    if isinstance(value, bool) or not isinstance(value, _ACCEPTS.get(annotation, annotation)):
        raise ConfigurationError(f"{name} must be {annotation.__name__}, got {value!r}")
    try:
        return annotation(value)
    except OverflowError:                   # an int beyond the float range
        raise ConfigurationError(f"{name} must be finite, got {value!r}") from None


def _build_section(cls, payload: dict, section: str):
    hints = typing.get_type_hints(cls)
    unknown = set(payload) - set(hints)
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {sorted(unknown)} in section {section!r}")
    return cls(**{k: _typed(f"{section}.{k}", v, hints[k]) for k, v in payload.items()})


def config_from_dict(payload: dict) -> ExperimentConfig:
    if not isinstance(payload, dict):
        raise ConfigurationError("config root must be a JSON object")
    hints = typing.get_type_hints(ExperimentConfig)
    unknown = set(payload) - set(hints)
    if unknown:
        raise ConfigurationError(f"unknown top-level key(s) {sorted(unknown)}")
    kwargs = {}
    for key, annotation in hints.items():
        if dataclasses.is_dataclass(annotation):
            raw = payload.get(key, {})
            if not isinstance(raw, dict):
                raise ConfigurationError(f"section {key!r} must be an object")
            kwargs[key] = _build_section(annotation, raw, key)
        elif key in payload:
            kwargs[key] = _typed(key, payload[key], annotation)
    cfg = ExperimentConfig(**kwargs)
    cfg.validate()
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return dataclasses.asdict(cfg)


def load_config(path: str) -> ExperimentConfig:
    """Parse and fully validate a JSON experiment config; defaults fill gaps."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"config parse error in {path} at line {exc.lineno}, "
                f"column {exc.colno}: {exc.msg}") from exc
    return config_from_dict(payload)


def dump_config(cfg: ExperimentConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True)
