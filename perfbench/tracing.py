"""Span tracing of hlstm's layers from outside the package.

A :class:`Tracer` replaces each traced function, in every ``hlstm`` module
that binds it, with a wrapper that records a span (layer metric, start, end,
parent span, run id). Callers keep looking the function up by the same name
(``hlstm.experiments.train_lstm``, ``hlstm.training.forward_sequence``,
``hlstm.cli.load_dataset``), so the program's own files are untouched.
Spans stay in memory until :meth:`Tracer.write`; counts of work done are
recorded at the same boundaries.

A span's self time is its duration minus the durations of its child spans.
Calls are synchronous and single-threaded, so child spans never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

import numpy as np

import hlstm.baselines
import hlstm.cli
import hlstm.dataset
import hlstm.experiments
import hlstm.lstm
import hlstm.modelio
import hlstm.synthetic
import hlstm.training


def _dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


# (module, attribute, layer metric, {count metric: f(args, kwargs, result)})
# Count functions run after the span has closed, so they cost no layer time.
LAYER_FUNCTIONS = [
    (hlstm.synthetic, "generate_synthetic", "synthetic.generate", {}),
    (hlstm.dataset, "save_dataset", "dataset.save",
     {"dataset.save.bytes": lambda a, k, r: _dir_bytes(a[1])}),
    (hlstm.dataset, "load_dataset", "dataset.load", {}),
    (hlstm.dataset, "normalize", "dataset.normalize", {}),
    (hlstm.dataset, "apply_normalization", "dataset.normalize", {}),
    (hlstm.training, "prepare_sequences", "training.prepare", {}),
    (hlstm.training, "sample_batch", "training.sample_batch", {}),
    (hlstm.training, "masked_loss", "training.loss", {}),
    (hlstm.training, "clip_gradients", "training.clip", {}),
    (hlstm.training, "adam_step", "training.optimizer", {}),
    (hlstm.training, "sgd_step", "training.optimizer", {}),
    (hlstm.training, "train_lstm", "training.loop",
     {"training.epochs": lambda a, k, r: len(r[1]),
      "_sample_days": lambda a, k, r: a[1].epochs * a[1].batch_size * a[1].unroll_length}),
    (hlstm.lstm, "forward_sequence", "lstm.forward",
     {"lstm.forward.sample_days": lambda a, k, r: int(np.prod(np.shape(a[1])[:-1]))}),
    (hlstm.lstm, "bptt_gradients", "lstm.bptt", {}),
    (hlstm.lstm, "predict_sequence", "lstm.predict",
     {"lstm.predict.pixel_days": lambda a, k, r: int(np.prod(np.shape(a[1])[:-1]))}),
    (hlstm.baselines, "select_ar_order", "baselines.ar_sweep",
     {"_ar_sweeps": lambda a, k, r: 1}),
    (hlstm.baselines, "fit_ar", "baselines.fit_ar", {}),
    (hlstm.baselines, "ar_forecast", "baselines.ar_forecast",
     {"baselines.ar_forecast.steps": lambda a, k, r: np.size(r)}),
    (hlstm.baselines, "ar_forecast_batch", "baselines.ar_forecast",
     {"baselines.ar_forecast.steps": lambda a, k, r: np.size(r)}),
    (hlstm.baselines, "fit_lasso", "baselines.lasso",
     {"baselines.lasso.sweeps": lambda a, k, r: r.n_sweeps}),
    (hlstm.baselines, "fit_ffnn", "baselines.ffnn",
     {"baselines.ffnn.epochs": lambda a, k, r: r.epochs_run}),
    (hlstm.experiments, "compute_metrics", "experiments.metrics", {}),
    (hlstm.experiments, "build_metrics_report", "experiments.metrics", {}),
    (hlstm.experiments, "write_experiment_reports", "experiments.reports", {}),
    (hlstm.experiments, "write_hindcast_reports", "experiments.reports", {}),
    (hlstm.experiments, "run_hindcast_experiment", "experiments.hindcast", {}),
    (hlstm.modelio, "save_model", "modelio.save",
     {"modelio.save.bytes": lambda a, k, r: os.path.getsize(a[0])}),
    (hlstm.modelio, "load_model", "modelio.load", {}),
    (hlstm.cli, "cmd_synth", "cli.synth", {}),
    (hlstm.cli, "cmd_split", "cli.split", {}),
    (hlstm.cli, "cmd_train", "cli.train", {}),
    (hlstm.cli, "cmd_evaluate", "cli.evaluate", {}),
    (hlstm.cli.RunManifest, "write", "cli.manifest", {}),
]

# Counts taken from the spans themselves: calls made, and calls that raised.
CALL_COUNTS = {"dataset.load.calls": ("dataset.load", False),
               "baselines.fit_ar.calls": ("baselines.fit_ar", False),
               "baselines.fit_ar.failed": ("baselines.fit_ar", True)}

# Per-layer metrics in report order. Names ending ".s" are self times in
# seconds; the rest count work done. "untraced.s" is the part of a round no
# layer span covers (the benchmark's own code and unwrapped program code), so
# the ".s" metrics of one round add up to its wall time.
TIME_METRICS = sorted({m for _, _, m, _ in LAYER_FUNCTIONS})
# Counters whose name starts with "_" stay out of the report: they feed
# baselines.ar_kept_per_fit and the training rate.
COUNT_METRICS = sorted({c for *_, counts in LAYER_FUNCTIONS for c in counts
                        if not c.startswith("_")} | set(CALL_COUNTS))
# baselines.ar_kept_per_fit: orders kept (one per select_ar_order sweep) over
# the fit_ar calls that returned a model.
DERIVED_METRICS = ["baselines.ar_kept_per_fit"]
UNTRACED = "untraced.s"
# The two stages whose rates are end-to-end metrics; an untraced run wraps
# only these.
STAGE_FUNCTIONS = [f for f in LAYER_FUNCTIONS
                   if f[1] in ("train_lstm", "predict_sequence")]


class Tracer:
    """Records spans around hlstm's layer functions while installed."""

    def __init__(self, functions=LAYER_FUNCTIONS):
        self.functions = functions
        self.spans = []        # [name, start, end, parent index, run id, raised]
        self.counts = []       # [metric, value, run id]
        self.run_id = None
        self.run_walls = {}    # run id -> (start, end)
        self._stack = []
        self._patched = []

    def install(self):
        hlstm_modules = [m for name, m in sys.modules.items()
                         if name == "hlstm" or name.startswith("hlstm.")]
        for owner, attr, metric, counters in self.functions:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, metric, counters)
            targets = [owner] + [m for m in hlstm_modules
                                 if m is not owner and getattr(m, attr, None) is original]
            for target in targets:
                self._patched.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self):
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    def _wrap(self, fn, metric, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [metric, time.perf_counter(), None, parent, self.run_id, True]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
                span[5] = False
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            for name, count in counters.items():
                self.counts.append([name, count(args, kwargs, result), self.run_id])
            return result
        return traced

    def begin(self, run_id: str):
        self.run_id = run_id
        self.run_walls[run_id] = (time.perf_counter(), None)

    def end(self):
        start, _ = self.run_walls[self.run_id]
        self.run_walls[self.run_id] = (start, time.perf_counter())
        self.run_id = None

    def per_run(self) -> dict:
        """{run id: {metric: value}} with self times, counts and untraced.s."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {rid: {} for rid in self.run_walls}
        covered = dict.fromkeys(self.run_walls, 0.0)
        for k, (name, start, end, parent, rid, raised) in enumerate(self.spans):
            if rid not in out:
                continue
            key = name + ".s"
            out[rid][key] = out[rid].get(key, 0.0) + (end - start) - child_time[k]
            if parent < 0:
                covered[rid] += end - start
            for count, (layer, only_raised) in CALL_COUNTS.items():
                if name == layer and (raised or not only_raised):
                    out[rid][count] = out[rid].get(count, 0) + 1
        for name, value, rid in self.counts:
            if rid in out:
                out[rid][name] = out[rid].get(name, 0) + value
        for rid, (start, end) in self.run_walls.items():
            out[rid][UNTRACED] = (end - start) - covered[rid]
            fits = (out[rid].get("baselines.fit_ar.calls", 0)
                    - out[rid].get("baselines.fit_ar.failed", 0))
            if fits:
                out[rid]["baselines.ar_kept_per_fit"] = (
                    out[rid].get("_ar_sweeps", 0) / fits)
        return out

    def layer_metrics(self) -> dict:
        """Median over rounds of each per-layer metric.

        A layer seen only during set-up (synthetic generation in ``train``
        and ``hindcast``) reports its median over the set-up repetitions.
        """
        runs = self.per_run()
        rounds = [v for rid, v in runs.items() if rid.startswith("round")]
        setups = [v for rid, v in runs.items() if rid.startswith("setup")]
        names = ([m + ".s" for m in TIME_METRICS] + [UNTRACED]
                 + COUNT_METRICS + DERIVED_METRICS)
        metrics = {}
        for name in names:
            pool = rounds if any(name in r for r in rounds) or name == UNTRACED else setups
            values = [r.get(name, 0) for r in pool] or [0]
            metrics[name] = statistics.median(values)
        return metrics

    def rates(self, count: str, metric: str) -> list:
        """Per round, the summed ``count`` over the summed duration of the
        ``metric`` spans (whole spans, child spans included)."""
        out = []
        for rid in self.run_walls:
            busy = sum(end - start for name, start, end, _, run, _ in self.spans
                       if run == rid and name == metric)
            if rid.startswith("round") and busy > 0:
                done = sum(v for name, v, run in self.counts if run == rid and name == count)
                out.append(done / busy)
        return out

    def write(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run", "raised"],
                       "spans": self.spans, "counts": self.counts,
                       "runs": self.run_walls}, fh)
