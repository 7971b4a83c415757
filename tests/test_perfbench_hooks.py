"""The benchmark's tracer still finds the package names it wraps.

``perfbench/tracer.py`` wraps dvfsflow functions by name from outside the
package, and a name it cannot find only lands in ``Tracer.missing``: the
counters built on it read 0 without an error.  This pins that list, so a
rename in the package that silently drops another per-layer counter fails
here.  The tracer file is read, never imported through the import system, so
nothing is written next to it.
"""

import os
import types

import dvfsflow
from dvfsflow import nets

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "perfbench", "tracer.py")

# Names the tracer hooks that the package no longer has.
STALE_HOOKS = [
    "ReplayMemory.sample_batch",
    "dvfsflow.cli.corr_gap",
    "dvfsflow.cli.corr_gap_excluded_count",
    "dvfsflow.cli.early_fps_gain",
    "dvfsflow.cli.empirical_regret",
    "dvfsflow.cli.generate_raw",
    "dvfsflow.cli.load_batch_csv",
    "dvfsflow.cli.pearson_matrix",
    "dvfsflow.cli.qvalue_stability",
    "dvfsflow.cli.runlog_from_csv",
    "dvfsflow.cli.train_flow_model",
    "dvfsflow.cli.transition_feature_weights",
    "dvfsflow.cli.unflatten_transition",
    "dvfsflow.cli.wasserstein1",
    "dvfsflow.flow.flatten_memory",
    "dvfsflow.nets.train_step",
]


def _tracer_module():
    module = types.ModuleType("perfbench_tracer")
    with open(TRACER, encoding="utf-8") as fh:
        exec(compile(fh.read(), TRACER, "exec"), module.__dict__)
    return module


def test_perfbench_tracer_finds_every_hooked_name_but_the_known_stale_ones():
    forward_batch, run_experiment = nets.forward_batch, dvfsflow.run_experiment
    tracer = _tracer_module().Tracer()
    try:
        tracer.install()
        assert sorted(tracer.missing) == STALE_HOOKS
        assert nets.forward_batch is not forward_batch      # the hooks are in place
    finally:
        tracer.restore()
    assert nets.forward_batch is forward_batch
    assert dvfsflow.run_experiment is run_experiment
