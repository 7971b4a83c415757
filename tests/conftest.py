"""Helpers shared by the test modules."""

from dataclasses import replace

from dvfsflow.simenv import EnvConfig


def noiseless(config: EnvConfig) -> EnvConfig:
    """Copy of ``config`` with observation noise switched off."""
    return replace(config, noise_std_fps=0.0, noise_std_temp=0.0)
