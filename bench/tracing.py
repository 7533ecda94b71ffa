"""In-memory span tracing of gppi's layers, installed from outside the package.

Each public function of `control`, `moments`, `gp`, `plants` and `baselines`
that the learning loop or the sampling baseline reaches is replaced, for the
duration of a traced run, by a wrapper bound at the place where its caller
looks the name up: `control.moment_match` (not only `moments.moment_match`),
`harness.sampling_pi_control`, `Plant.step` and each plant subclass's `drift`
at class level, and so on.  A wrapper records one span (name, start, end,
parent) per call; the hottest leaf, `drift`, is only counted.

Nothing under `src/` is modified and the program's numerics are untouched:
a traced run at a given seed must reproduce the untraced run bit for bit.
"""

from __future__ import annotations

import gzip
import json
import logging
import time
from collections import Counter

import numpy as np

from gppi import control, gp, harness, moments, plants
from gppi.errors import NumericalError

# Warning templates of the `gppi` logger that count a failure or a retry.
# Matched on the unformatted template so that arguments do not matter.
LOG_EVENTS = (
    ("failed to improve", "gp.refit.no_improvement"),
    ("desirability trace saturated", "control.desirability.saturated"),
    ("inner optimization made no progress", "control.inner_optimize.no_progress_logged"),
    ("trial %d aborted", "learn.trials_aborted_logged"),
    ("initialization rollout %d diverged", "learn.init_rollouts_diverged"),
    ("rejecting non-finite", "gp.incorporate_sample.rejected"),
)


class LogCounter(logging.Handler):
    """Counts the warnings in LOG_EVENTS emitted under the `gppi` logger."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.counts = Counter()

    def emit(self, record):
        template = str(record.msg)
        for needle, key in LOG_EVENTS:
            if needle in template:
                self.counts[key] += 1

    def __enter__(self):
        logging.getLogger("gppi").addHandler(self)
        return self

    def __exit__(self, *exc):
        logging.getLogger("gppi").removeHandler(self)


class Tracer:
    """Span store plus the wrappers that feed it.

    Spans are kept as (name, start, end, parent_index) tuples in call order;
    parent_index is -1 for a span opened outside every other span.
    """

    def __init__(self):
        self.spans: list = []
        self.counts = Counter()
        self.points: list = []          # training-set size per predict_increment
        self.accepted_steps = 0         # sum of len(accepted_log_psi) - 1
        self.rollout_horizon = 0        # sum of tail horizons over forward_rollout
        self._stack: list = []
        self._patches: list = []

    # --- wrappers -----------------------------------------------------------
    def _wrap(self, orig, name_of, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            except NumericalError:
                self.counts[name + ".numerical_error"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _count_only(self, orig, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Bind every wrapper where its caller looks the name up."""
        if self._patches:
            raise RuntimeError("tracer already installed")

        def fixed(name):
            return lambda args, kwargs: name

        def rollout_name(args, kwargs):
            jac = kwargs.get("compute_jac", args[5] if len(args) > 5 else True)
            return "control.forward_rollout." + ("jac" if jac else "val")

        def after_rollout(args, kwargs, result):
            cost = kwargs.get("cost", args[4] if len(args) > 4 else None)
            self.rollout_horizon += cost.horizon_steps

        def predict_name(args, kwargs):
            dirs = kwargs.get("dmu_dirs", args[3] if len(args) > 3 else None)
            self.points.append(args[0].n_points)
            return "moments.predict_increment." + ("val" if dirs is None else "jac")

        def incorporate_name(args, kwargs):
            model = args[0]
            full = model.max_points is not None and model.n_points >= model.max_points
            return "gp.incorporate_sample." + ("at_max" if full else "below_max")

        def after_inner(args, kwargs, result):
            self.counts["control.inner_optimize.status." + result.status] += 1
            self.accepted_steps += len(result.accepted_log_psi) - 1

        h, c = harness, control
        patches = [
            (h, "mpc_learning_loop", fixed("control.mpc_learning_loop"), None),
            (h, "sampling_pi_control", fixed("baselines.sampling_pi_control"), None),
            (h, "save_model", fixed("records.write"), None),
            (h, "save_record", fixed("records.write"), None),
            (h, "export_trace_csv", fixed("records.write"), None),
            (c, "inner_optimize", fixed("control.inner_optimize"), after_inner),
            (c, "forward_rollout", rollout_name, after_rollout),
            (c, "backward_desirability", fixed("control.backward_desirability"), None),
            (c, "desirability_gradient", fixed("control.desirability_gradient"), None),
            (c, "control_update", fixed("control.control_update"), None),
            (c, "moment_match", fixed("moments.moment_match"), None),
            (c, "incorporate_sample", incorporate_name, None),
            (c, "refit", fixed("gp.refit"), None),
            (moments, "predict_increment", predict_name, None),
            (plants.Plant, "step", fixed("plants.step"), None),
        ]
        for owner, attr, name_of, after in patches:
            self._patch(owner, attr, self._wrap(owner.__dict__[attr], name_of, after))
        self._patch(gp, "log_marginal_likelihood",
                    self._count_only(gp.log_marginal_likelihood,
                                     "gp.log_marginal_likelihood.calls"))
        for cls in _plant_classes():
            if "drift" in cls.__dict__:
                self._patch(cls, "drift", self._count_only(cls.__dict__["drift"],
                                                          "plants.drift.calls"))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # --- output -------------------------------------------------------------
    def write(self, path) -> None:
        """Write the spans as gzip'd JSON lines: name, start, end, parent."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps([name, t0, t1, parent]) + "\n")


def _plant_classes():
    out, todo = [], [plants.Plant]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def self_times(spans) -> tuple[dict, dict]:
    """Per-name (self seconds, inclusive durations) of a span list.

    A span's self time is its duration minus the durations of its direct
    children; children never outlive their parent, so that is the part of
    the interval no child covers.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_s: dict = {}
    durations: dict = {}
    for i, (name, t0, t1, parent) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[i]
        durations.setdefault(name, []).append(t1 - t0)
    return self_s, durations


def layer_metrics(tracer: Tracer, log_counts: dict, run_s: float) -> dict:
    """The per-layer metric values of one traced run; `run_s` is the wall
    time of the traced harness call, the base of `gp.share`."""
    self_s, durs = self_times(tracer.spans)
    counts = tracer.counts

    def calls(name):
        return len(durs.get(name, ()))

    def total(name):
        return float(sum(durs.get(name, ())))

    def pct(name, q, scale):
        d = durs.get(name)
        return float(np.percentile(d, q)) * scale if d else 0.0

    out = {}
    for v in ("val", "jac"):
        name = "moments.predict_increment." + v
        out[name + ".calls"] = calls(name)
        out[name + ".s"] = self_s.get(name, 0.0)
        out[name + ".p50_us"] = pct(name, 50, 1e6)
    out["moments.predict_increment.mean_points"] = (
        float(np.mean(tracer.points)) if tracer.points else 0.0)
    out["moments.moment_match.calls"] = calls("moments.moment_match")
    out["moments.moment_match.s"] = self_s.get("moments.moment_match", 0.0)

    name = "control.inner_optimize"
    out[name + ".calls"] = calls(name)
    out[name + ".s"] = self_s.get(name, 0.0)
    out[name + ".p50_ms"] = pct(name, 50, 1e3)
    out[name + ".p80_ms"] = pct(name, 80, 1e3)
    for status in ("converged", "max-iters", "stalled", "no-progress"):
        key = f"{name}.status.{status}"
        out[key] = counts[key]
    for v in ("val", "jac"):
        name = "control.forward_rollout." + v
        out[name + ".calls"] = calls(name)
        out[name + ".s"] = self_s.get(name, 0.0)
        out[name + ".total_s"] = total(name)
    rollouts = out["control.forward_rollout.val.total_s"] \
        + out["control.forward_rollout.jac.total_s"]
    out["control.forward_rollout.jac.share"] = (
        out["control.forward_rollout.jac.total_s"] / rollouts if rollouts else 0.0)
    val_rollouts = calls("control.forward_rollout.val")
    out["control.linesearch.accept_ratio"] = (
        tracer.accepted_steps / val_rollouts if val_rollouts else 0.0)
    out["control.linesearch.numerical_fail"] = \
        counts["control.forward_rollout.val.numerical_error"]
    for stage in ("backward_desirability", "desirability_gradient",
                  "control_update"):
        out[f"control.{stage}.s"] = self_s.get("control." + stage, 0.0)
    out["control.desirability.saturated"] = log_counts.get("control.desirability.saturated", 0)

    for v in ("below_max", "at_max"):
        name = "gp.incorporate_sample." + v
        out[name + ".calls"] = calls(name)
        out[name + ".s"] = self_s.get(name, 0.0)
    out["gp.refit.calls"] = calls("gp.refit")
    out["gp.refit.s"] = self_s.get("gp.refit", 0.0)
    out["gp.refit.no_improvement"] = log_counts.get("gp.refit.no_improvement", 0)
    out["gp.log_marginal_likelihood.calls"] = counts["gp.log_marginal_likelihood.calls"]
    gp_s = total("gp.refit") + sum(total("gp.incorporate_sample." + v)
                                   for v in ("below_max", "at_max"))
    out["gp.share"] = gp_s / run_s

    out["plants.step.calls"] = calls("plants.step")
    out["plants.step.s"] = self_s.get("plants.step", 0.0)
    out["plants.drift.calls"] = counts["plants.drift.calls"]
    out["baselines.sampling_pi_control.s"] = self_s.get(
        "baselines.sampling_pi_control", 0.0)
    out["records.write.s"] = self_s.get("records.write", 0.0)
    out["trace.spans"] = len(tracer.spans)
    return out
