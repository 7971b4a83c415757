"""Exception taxonomy shared across the workbench, and the one check of config
field domains.  A section field declares its domain on itself, as in
``discount: float = domain("(0, 1)", default=0.99)``: an interval or a lower
bound such as ``">= 1"``, which a list field's every entry must meet."""

import dataclasses
import math


class ConfigurationError(ValueError):
    """A config field violates its documented constraint."""


class DomainError(ValueError):
    """An argument is outside the operation's domain (bad action index, shape mismatch, ...)."""


class StateError(RuntimeError):
    """Operation called on an object in the wrong state (finished episode, untrained model)."""


class InsufficientDataError(ValueError):
    """Not enough samples to run the requested fit or draw."""


class NumericError(ArithmeticError):
    """NaN/inf detected where finite values are required."""


def domain(spec: str, **field_args):
    """A dataclass field, built from ``field_args``, whose values lie in ``spec``."""
    return dataclasses.field(metadata={"domain": spec}, **field_args)


def _inside(value, spec: str) -> bool:
    if spec.startswith(">"):
        op, bound = spec.split()
        return value > float(bound) if op == ">" else value >= float(bound)
    lo, hi = (float(b) for b in spec[1:-1].split(","))
    return ((lo < value if spec[0] == "(" else lo <= value)
            and (value < hi if spec[-1] == ")" else value <= hi))


def check_domains(section: str, config) -> None:
    """Raise :class:`ConfigurationError` naming ``<section>.<field>`` at the first
    field of the dataclass ``config`` holding a NaN/inf float or a value outside its domain."""
    for f in dataclasses.fields(config):
        value, spec = getattr(config, f.name), f.metadata.get("domain")
        entries = enumerate(value) if isinstance(value, list) else [(None, value)]
        for i, v in entries:
            name = f"{section}.{f.name}" if i is None else f"{section}.{f.name}[{i}]"
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigurationError(f"{name} must be finite, got {v!r}")
            if spec is not None and not _inside(v, spec):
                verb = "be" if spec.startswith(">") else "lie in"
                raise ConfigurationError(f"{name} must {verb} {spec}, got {v!r}")
