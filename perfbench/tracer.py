"""Span tracer that wraps dvfsflow's public functions from outside the package.

A span is one call of a wrapped function.  Spans are aggregated in memory per
name: call count, inclusive time and self time (inclusive time minus the time
of the spans it caused).  A few counters are taken at the same boundaries, so
that ratios are measured where the work happens.

Several modules bind functions by name at import time (``from .flow import
train_flow_model``), so a wrapper is installed on every module that holds the
name, not only on the defining one.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.values = {}
        self.missing = []           # targets that no longer exist in the package
        self._stack = []            # [name, child_seconds] per open span
        self._undo = []

    # ------------------------------------------------------------ spans

    def inside(self, name):
        return any(frame[0] == name for frame in self._stack)

    def wrap(self, name, fn, after=None):
        """Return ``fn`` recorded as span ``name``; ``after(result, args)`` runs
        once the span is closed and may update counters."""
        tracer = self

        def traced(*args, **kwargs):
            if tracer._stack and tracer._stack[-1][0] == name:
                return fn(*args, **kwargs)      # same layer calling itself
            frame = [name, 0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                tracer.calls[name] += 1
                tracer.total_s[name] += dt
                tracer.self_s[name] += dt - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += dt
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, after=None):
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ install

    def install(self):
        """Wrap every layer boundary of dvfsflow; undo with :meth:`restore`."""
        import dvfsflow
        from dvfsflow import agent, cli, config, evalkit, flow, forest, nets
        from dvfsflow import orchestrate, report, simenv

        def on_train(model, args):
            self.values["flow.final_loss"] = float(model.loss_curve[-1])

        def on_retrain(result, args):
            if self.inside("orchestrate.run"):
                self.counts["orchestrate.retrains"] += 1

        def on_train_step(result, args):
            if self.inside("flow.train"):
                self.counts["flow.train.adam_steps"] += 1

        def on_sample(raw, args):
            self.counts["flow.sample.rows"] += int(raw.shape[0])

        def on_memory_sample(batch, args):
            for t in batch:
                if t.source != "real":
                    self.counts["agent.memory.synth_sampled"] += 1
                if t.source == "synth":
                    self.counts["flow.sample.used"] += 1

        def on_csv_write(result, args):
            self.counts["io.bytes_written"] += os.path.getsize(args[1])

        for owner in (orchestrate, cli, dvfsflow):
            self.patch(owner, "run_experiment", "orchestrate.run")
        self.patch(orchestrate._ModelBasedPlanner, "train", "orchestrate.planner.train",
                   on_retrain)
        self.patch(orchestrate._ModelBasedPlanner, "plan", "orchestrate.planner.plan")

        for owner in (flow, cli):
            self.patch(owner, "train_flow_model", "flow.train",
                       lambda m, a: (on_train(m, a), on_retrain(m, a)))
            self.patch(owner, "generate_raw", "flow.sample", on_sample)
            self.patch(owner, "unflatten_transition", "flow.codec")
        self.patch(flow, "flatten_memory", "flow.codec")

        for owner in (forest, orchestrate, cli):
            self.patch(owner, "transition_feature_weights", "forest.weights")
        self.patch(forest, "fit_forest", "forest.fit")

        self.patch(nets, "train_step", "nets.train_step", on_train_step)
        self.patch(nets, "forward_batch", "nets.forward_batch")

        self.patch(agent, "select_action", "agent.select_action")
        self.patch(agent, "train_q_step", "agent.train_q_step")
        self.patch(agent.ReplayMemory, "push", "agent.memory.push")
        self.patch(agent.ReplayMemory, "sample_batch", "agent.memory.sample",
                   on_memory_sample)
        self.patch(simenv.DvfsEnv, "step", "simenv.step")

        for owner in (orchestrate, cli):
            self.patch(owner, "runlog_to_csv", "io.csv_write", on_csv_write)
            self.patch(owner, "runlog_from_csv", "io.csv_read")
        for owner in (flow, cli):
            self.patch(owner, "save_batch_csv", "io.csv_write", on_csv_write)
            self.patch(owner, "load_batch_csv", "io.csv_read")

        for fn in ("corr_gap", "corr_gap_excluded_count", "early_fps_gain",
                   "empirical_regret", "pearson_matrix", "qvalue_stability",
                   "wasserstein1"):
            for owner in (evalkit, cli):
                self.patch(owner, fn, "evalkit")
        for fn in ("svg_heatmap", "svg_lines"):
            self.patch(report, fn, "report.svg")
        for owner in (config, cli):
            self.patch(owner, "load_config", "config.load")

    # ------------------------------------------------------------ metrics

    def metrics(self) -> dict:
        """Per-layer numbers as {name: (value, unit)}."""
        c, s = self.calls, self.total_s
        rows = self.counts["flow.sample.rows"]
        return {
            "flow.train.calls": (c["flow.train"], "count"),
            "flow.train.s": (s["flow.train"], "s"),
            "flow.train.adam_steps": (self.counts["flow.train.adam_steps"], "count"),
            "flow.final_loss": (self.values.get("flow.final_loss", 0.0), "loss"),
            "nets.train_step.calls": (c["nets.train_step"], "count"),
            "nets.train_step.s": (s["nets.train_step"], "s"),
            "forest.weights.calls": (c["forest.weights"], "count"),
            "forest.weights.s": (s["forest.weights"], "s"),
            "forest.fit.calls": (c["forest.fit"], "count"),
            "flow.sample.calls": (c["flow.sample"], "count"),
            "flow.sample.s": (s["flow.sample"], "s"),
            "flow.sample.rows": (rows, "count"),
            "flow.sample.used_frac": (self.counts["flow.sample.used"] / rows if rows else 0.0,
                                      "ratio"),
            "nets.forward_batch.calls": (c["nets.forward_batch"], "count"),
            "nets.forward_batch.s": (s["nets.forward_batch"], "s"),
            "flow.codec.s": (s["flow.codec"], "s"),
            "agent.train_q_step.calls": (c["agent.train_q_step"], "count"),
            "agent.train_q_step.s": (s["agent.train_q_step"], "s"),
            "agent.select_action.s": (s["agent.select_action"], "s"),
            "agent.memory.push.s": (s["agent.memory.push"], "s"),
            "agent.memory.sample.s": (s["agent.memory.sample"], "s"),
            "agent.memory.synth_sampled": (self.counts["agent.memory.synth_sampled"], "count"),
            "simenv.step.calls": (c["simenv.step"], "count"),
            "simenv.step.s": (s["simenv.step"], "s"),
            "orchestrate.run.s": (self.self_s["orchestrate.run"], "s"),
            "orchestrate.retrains": (self.counts["orchestrate.retrains"], "count"),
            "orchestrate.planner.train.s": (s["orchestrate.planner.train"], "s"),
            "orchestrate.planner.plan.s": (s["orchestrate.planner.plan"], "s"),
            "io.csv_write.s": (s["io.csv_write"], "s"),
            "io.csv_read.s": (s["io.csv_read"], "s"),
            "io.bytes_written": (self.counts["io.bytes_written"], "B"),
            "evalkit.s": (s["evalkit"], "s"),
            "report.svg.s": (s["report.svg"], "s"),
            "config.load.s": (s["config.load"], "s"),
        }

    def spans(self) -> dict:
        return {name: {"calls": self.calls[name], "total_s": self.total_s[name],
                       "self_s": self.self_s[name]} for name in sorted(self.calls)}
