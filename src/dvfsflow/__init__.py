"""Distribution-aware flow matching workbench for few-shot DVFS RL.

A numpy library with four layers: a seeded processor simulator (simenv), tiny
dense nets with manual backprop (nets), the DQN agent and replay memories
(agent), the forest feature weighting (forest) and the flow-matching generator
(flow), tied together by the experiment orchestrator (orchestrate) and the
evaluation metrics (evalkit).  The `dvfsflow` CLI wraps runs, generation,
evaluation and reporting.  Only its ``run`` forks: each independent run gets a
process of its own, at most one per usable core at a time (spread), and does
all its work there while the calling process collects the results.
"""

from .agent import AgentConfig, ReplayMemory
from .errors import (ConfigurationError, DomainError, InsufficientDataError,
                     NumericError, StateError)
from .flow import FMConfig, FlowModel, TransitionLayout
from .forest import ForestConfig
from .nets import AdamState, MlpParams
from .orchestrate import RunLog, ScheduleConfig, run_experiment
from .simenv import DvfsEnv, EnvConfig, ProcessorState

__all__ = [
    "AgentConfig", "ReplayMemory",
    "ConfigurationError", "DomainError", "InsufficientDataError",
    "NumericError", "StateError",
    "FMConfig", "FlowModel", "TransitionLayout",
    "ForestConfig",
    "AdamState", "MlpParams",
    "RunLog", "ScheduleConfig", "run_experiment",
    "DvfsEnv", "EnvConfig", "ProcessorState",
]

__version__ = "0.1.0"
