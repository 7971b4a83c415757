"""Config field domains: every field of every config section declares its
domain on itself, and one check enforces it on configs read from JSON and
configs built in Python alike.

The edge cases are derived from the declarations: for each finite end of a
domain, the nearest value outside it must fail naming ``section.field`` and
the boundary value inside it must pass.
"""

import dataclasses
import math
import typing

import pytest

from dvfsflow.agent import AgentConfig
from dvfsflow.config import ExperimentConfig, config_from_dict
from dvfsflow.errors import ConfigurationError, check_domains
from dvfsflow.flow import FMConfig
from dvfsflow.forest import ForestConfig
from dvfsflow.orchestrate import ScheduleConfig, run_experiment
from dvfsflow.simenv import DvfsEnv, EnvConfig

SECTIONS = {name: cls for name, cls in typing.get_type_hints(ExperimentConfig).items()
            if dataclasses.is_dataclass(cls)}

# Fields whose only rule ties them to other fields of their section:
# ambient_temp to the power floor, min_samples to 2 * min_leaf.
CROSS_FIELD_ONLY = {("env", "ambient_temp"), ("forest", "min_samples")}


def _fields():
    for section, cls in SECTIONS.items():
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            yield section, cls, f, hints[f.name]


def _step(value, toward, kind):
    """The next value of ``kind`` after ``value`` in the direction of ``toward``."""
    if kind is float:
        return math.nextafter(value, toward)
    return value + (1 if toward > value else -1)


def _edges(spec, kind):
    """(just outside, boundary inside) for each finite end of a domain ``spec``."""
    if spec.startswith(">"):
        op, bound = spec.split()
        ends = [(kind(bound), op == ">=", -math.inf)]
    else:
        lo, hi = (kind(float(b)) for b in spec[1:-1].split(","))
        ends = [(lo, spec[0] == "[", -math.inf), (hi, spec[-1] == "]", math.inf)]
    for bound, closed, out in ends:
        yield (_step(bound, out, kind), bound) if closed else (bound, _step(bound, -out, kind))


def _edge_cases():
    for section, cls, f, hint in _fields():
        if "domain" not in f.metadata:
            continue
        listed = typing.get_origin(hint) is list
        kind = typing.get_args(hint)[0] if listed else hint
        for outside, inside in _edges(f.metadata["domain"], kind):
            id_ = f"{section}.{f.name}-{outside!r}"
            if listed:
                outside, inside = [outside], [inside]
            yield pytest.param(section, cls, f.name, outside, inside, id=id_)


def _float_fields():
    for section, cls, f, hint in _fields():
        if hint is float:
            for bad in (math.nan, math.inf, -math.inf):
                yield pytest.param(section, cls, f.name, bad, id=f"{section}.{f.name}-{bad}")


def test_every_section_field_declares_a_domain_or_has_a_cross_field_rule():
    assert set(SECTIONS) == {"env", "agent", "schedule", "flow", "forest"}
    for section, _, f, _ in _fields():
        declared = "domain" in f.metadata
        assert declared != ((section, f.name) in CROSS_FIELD_ONLY), f"{section}.{f.name}"


@pytest.mark.parametrize("section,cls,name,outside,inside", list(_edge_cases()))
def test_domain_edges(section, cls, name, outside, inside):
    # just outside: rejected on both paths, the message naming section.field
    pattern = rf"^{section}\.{name}(\[0\])? must (be|lie in) .*, got "
    with pytest.raises(ConfigurationError, match=pattern):
        config_from_dict({section: {name: outside}})
    with pytest.raises(ConfigurationError, match=pattern):
        cls(**{name: outside}).validate()
    # the boundary inside the domain passes the domain check
    check_domains(section, cls(**{name: inside}))


@pytest.mark.parametrize("section,cls,name,bad", list(_float_fields()))
def test_non_finite_float_rejected_on_both_paths(section, cls, name, bad):
    pattern = rf"^{section}\.{name} must be finite, got "
    with pytest.raises(ConfigurationError, match=pattern):
        config_from_dict({section: {name: bad}})
    with pytest.raises(ConfigurationError, match=pattern):
        cls(**{name: bad}).validate()


@pytest.mark.parametrize("env,agent", [(EnvConfig(eta=math.nan), AgentConfig()),
                                       (EnvConfig(), AgentConfig(learning_rate=math.nan))],
                         ids=["env.eta", "agent.learning_rate"])
def test_run_experiment_rejects_nan_field_before_any_step(env, agent, monkeypatch):
    # eta nan used to run and log NaN rewards, learning_rate nan to stop mid-run
    steps = []
    monkeypatch.setattr(DvfsEnv, "step", lambda self, a: steps.append(a))
    with pytest.raises(ConfigurationError, match="must be finite, got nan"):
        run_experiment("model_free", env, agent, ScheduleConfig(horizon=20), 0,
                       FMConfig(), ForestConfig())
    assert steps == []
