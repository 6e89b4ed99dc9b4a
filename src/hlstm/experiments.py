"""Generalization splits, the metric suite, the self-assessed-bias
diagnostic, and the experiment orchestrators (model comparison and long-term
hindcast), all emitting machine-readable reports.

Split kinds:

    temporal          same pixels, disjoint train/test date windows
    spatial_subsample train = one pixel per stride x stride patch, test = rest
    regional_holdout  train = pixels whose region label is whitelisted

Metrics (per pixel, over observed steps only): bias = mean(pred - obs),
RMSE, and Pearson's R. Pixels with too few observations are excluded and
counted; R is additionally undefined on zero-variance series and excluded
from the R percentiles.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .baselines import AR_MAX_ORDER, BaselineSettings, ar_forecast_batch, select_ar_orders
from .config import Config
from .dataset import GridDataset, normalize, parse_date, write_json_atomic
from .errors import ValidationError
from .lstm import predict_sequence
from .modelio import MODEL_KINDS
from .synthetic import SyntheticConfig
from .training import Features, TrainingConfig, prepare_sequences, train_lstm

PERCENTILES = (25, 50, 75, 90)
# IQR overlap below this fraction of the narrower box trips the
# biased-training-sample flag.
BIAS_OVERLAP_FLAG_THRESHOLD = 0.2


@dataclass
class SplitSpec(Config):
    kind: str
    train_window: tuple[str, str] | None = None   # inclusive ISO dates
    test_window: tuple[str, str] | None = None
    stride: int = 4
    offset: tuple[int, int] = (0, 0)
    train_regions: list[str] = field(default_factory=list)

    def validate(self):
        if self.kind not in ("temporal", "spatial_subsample", "regional_holdout"):
            raise ValidationError(f"unknown split kind {self.kind!r}")
        if self.kind == "temporal":
            if self.train_window is None or self.test_window is None:
                raise ValidationError("temporal split needs train and test windows")
        if self.kind == "spatial_subsample" and self.stride < 2:
            raise ValidationError("stride must be >= 2")
        if self.kind == "regional_holdout" and not self.train_regions:
            raise ValidationError("regional holdout needs training regions")
        return self


@dataclass
class Split(Config):
    """A materialized partition: pixel id lists plus [t0, t1) day windows."""

    train_pixels: list[str]
    test_pixels: list[str]
    train_window: tuple[int, int]
    test_window: tuple[int, int]
    spec: SplitSpec

    def validate(self):
        if not self.train_pixels or not self.test_pixels:
            raise ValidationError("split leaves an empty train or test set")
        (a0, a1), (b0, b1) = self.train_window, self.test_window
        if max(a0, b0) < min(a1, b1) and not set(self.train_pixels).isdisjoint(self.test_pixels):
            raise ValidationError("train and test windows overlap on shared pixels")
        return self


def _window_indices(dataset: GridDataset, window: tuple[str, str] | None):
    if window is None:
        return (0, dataset.n_days)
    start = dataset.date_index(parse_date(window[0]))
    end = dataset.date_index(parse_date(window[1]))
    if end < start:
        raise ValidationError(f"window {window} ends before it starts")
    return (start, end + 1)


def make_split(dataset: GridDataset, spec: SplitSpec) -> Split:
    spec.validate()
    tr = te = _window_indices(dataset, spec.train_window)
    if spec.kind == "temporal":
        te = _window_indices(dataset, spec.test_window)
        pixels = [px.pixel_id for px in dataset.pixels]
        train_px, test_px = pixels, list(pixels)
    elif spec.kind == "spatial_subsample":
        r0, c0 = spec.offset
        train_px = [px.pixel_id for px in dataset.pixels
                    if px.row % spec.stride == r0 % spec.stride
                    and px.col % spec.stride == c0 % spec.stride]
        chosen = set(train_px)
        test_px = [px.pixel_id for px in dataset.pixels if px.pixel_id not in chosen]
    else:  # regional_holdout
        labels = set(spec.train_regions)
        known = set(dataset.region_labels())
        missing = labels - known
        if missing:
            raise ValidationError(f"regions not in dataset: {sorted(missing)}")
        train_px = [px.pixel_id for px in dataset.pixels if px.region in labels]
        test_px = [px.pixel_id for px in dataset.pixels if px.region not in labels]
    return Split(train_pixels=train_px, test_pixels=test_px,
                 train_window=tr, test_window=te, spec=spec).validate()


def compute_metrics(pred: np.ndarray, obs: np.ndarray, mask: np.ndarray):
    """Bias, RMSE and Pearson R over the observed steps.

    R is NaN when fewer than 2 points are observed or either side has zero
    variance. Raises when nothing is observed at all.
    """
    pred = np.asarray(pred, dtype=float)
    obs = np.asarray(obs, dtype=float)
    m = np.asarray(mask).astype(bool)
    if pred.shape != obs.shape or obs.shape != m.shape:
        raise ValidationError("pred, obs and mask must share a shape")
    p = pred[m]
    o = obs[m]
    if p.size == 0:
        raise ValidationError("no observed steps; metrics undefined")
    diff = p - o
    bias = float(diff.mean())
    rmse = float(np.sqrt((diff * diff).mean()))
    if p.size < 2 or p.std() == 0.0 or o.std() == 0.0:
        r = float("nan")
    else:
        r = float(np.corrcoef(p, o)[0, 1])
    return bias, rmse, r


@dataclass
class MetricsReport:
    model_kind: str
    phase: str                       # "train" or "test"
    split: dict
    rows: list                       # per-pixel dicts
    percentiles: dict
    counts: dict
    flags: dict = field(default_factory=dict)

    def summary_dict(self) -> dict:
        return {
            "model": self.model_kind,
            "phase": self.phase,
            "split": self.split,
            "percentiles": self.percentiles,
            "counts": self.counts,
            "flags": self.flags,
        }


def _percentile_block(values) -> dict:
    arr = np.asarray([v for v in values if v is not None and not math.isnan(v)])
    if arr.size == 0:
        return {f"p{q}": None for q in PERCENTILES}
    return {f"p{q}": float(np.percentile(arr, q)) for q in PERCENTILES}


def build_metrics_report(model_kind: str, phase: str, dataset: GridDataset,
                         predictions: dict, window: tuple[int, int],
                         pixel_ids, split_echo: dict,
                         flags: dict | None = None, against: str = "target") -> MetricsReport:
    """Assemble per-pixel metrics for `predictions[pid]` (dense series over
    ``window``) against the observed target, or with ``against="truth"``
    against the clean truth on every day."""
    t0, t1 = window
    rows, n_no_obs, n_r_undef = [], 0, 0
    by_id = {px.pixel_id: px for px in dataset.pixels}
    for pid in pixel_ids:
        px = by_id[pid]
        if against == "truth":
            if px.truth is None:
                raise ValidationError("scoring against truth needs a dataset with "
                                      "the truth column")
            ref, mask = px.truth[t0:t1], np.ones(t1 - t0, dtype=bool)
        else:
            ref, mask = px.target[t0:t1], px.mask[t0:t1]
        if pid not in predictions or not mask.any():
            n_no_obs += 1
            continue
        pred = np.asarray(predictions[pid], dtype=float)
        if pred.shape != (t1 - t0,):
            raise ValidationError(
                f"prediction for {pid} has shape {pred.shape}, expected {(t1 - t0,)}")
        bias, rmse, r = compute_metrics(pred, ref, mask)
        n_r_undef += math.isnan(r)
        rows.append({"pixel_id": pid, "row": px.row, "col": px.col,
                     "bias": bias, "rmse": rmse, "r": None if math.isnan(r) else r})
    counts = {"total": len(list(pixel_ids)), "evaluated": len(rows),
              "excluded_no_obs": n_no_obs, "r_undefined": n_r_undef}
    percentiles = {m: _percentile_block(row[m] for row in rows) for m in ("bias", "rmse", "r")}
    return MetricsReport(model_kind=model_kind, phase=phase, split=split_echo,
                         rows=rows, percentiles=percentiles, counts=counts,
                         flags=dict(flags or {}))


def self_assessed_bias(predictions: dict, dataset: GridDataset,
                       window: tuple[int, int]) -> dict:
    """Per-pixel time-mean of (prediction - lsm input) over a dense window."""
    if not dataset.has_lsm:
        raise ValidationError("self-assessed bias needs the lsm channel")
    t0, t1 = window
    by_id = {px.pixel_id: px for px in dataset.pixels}
    return {pid: float(np.mean(np.asarray(pred) - by_id[pid].lsm[t0:t1]))
            for pid, pred in predictions.items()}


def _iqr(values) -> tuple[float, float]:
    arr = np.asarray(list(values), dtype=float)
    return (float(np.percentile(arr, 25)), float(np.percentile(arr, 75)))


def training_bias_flag(self_assessed: dict, dataset: GridDataset,
                       train_pixels, train_window: tuple[int, int]) -> dict:
    """Flag a possibly biased training sample.

    The self-assessed value (prediction - lsm) is the model's idea of the
    correction a pixel needs; the training set's observed corrections are
    (target - lsm) over observed steps. When the test-set self-assessed box
    barely overlaps the training correction box, the model is applying
    corrections it never saw during training. None when no training pixel
    has an observed step in the train window.
    """
    t0, t1 = train_window
    by_id = {px.pixel_id: px for px in dataset.pixels}
    train_corr = []
    for pid in train_pixels:
        px = by_id[pid]
        m = px.mask[t0:t1]
        if m.any():
            train_corr.append(float(np.mean(px.target[t0:t1][m] - px.lsm[t0:t1][m])))
    if not train_corr:
        return None
    self_lo, self_hi = _iqr(self_assessed.values())
    train_lo, train_hi = _iqr(train_corr)
    inter = max(0.0, min(self_hi, train_hi) - max(self_lo, train_lo))
    narrower = max(min(self_hi - self_lo, train_hi - train_lo), 1e-9)
    overlap = inter / narrower
    flag = overlap < BIAS_OVERLAP_FLAG_THRESHOLD
    return {
        "self_assessed_iqr": [self_lo, self_hi],
        "train_correction_iqr": [train_lo, train_hi],
        "overlap_fraction": overlap,
        "flag_biased_training": flag,
        "message": ("possible biased training sample: self-assessed test "
                    "corrections barely overlap the training-set corrections")
                   if flag else "",
    }


@dataclass
class ExperimentResult:
    split: Split
    reports: list
    models: dict = field(default_factory=dict)
    bias_diagnostic: dict | None = None
    errors: dict = field(default_factory=dict)
    stats: object = None             # NormalizationStats used for the run
    feature_names: list = field(default_factory=list)
    predictions: dict = field(default_factory=dict)  # kind -> phase -> pid -> series

    @property
    def comparison(self) -> list:
        """One row per report: model, phase and the median bias, rmse and r."""
        return [{"model": r.model_kind, "phase": r.phase,
                 **{f"median_{m}": r.percentiles[m]["p50"] for m in ("bias", "rmse", "r")}}
                for r in self.reports]

    def summary_dict(self) -> dict:
        return {
            "split": self.split.to_dict(),
            "reports": [r.summary_dict() for r in self.reports],
            "comparison": self.comparison,
            "bias_diagnostic": self.bias_diagnostic,
            "errors": self.errors,
        }


def require_point_split(model_kinds, split: Split):
    """Reject point-by-point kinds on a split whose train and test pixels
    differ: they fit and score each pixel on its own series."""
    if (any(MODEL_KINDS[kind].point for kind in model_kinds)
            and set(split.train_pixels) != set(split.test_pixels)):
        raise ValidationError(
            "point-by-point models need the same pixels in train and test "
            "(temporal split)")


def score_models(dataset: GridDataset, split: Split, predictions: dict,
                 against: str = "target", **fields) -> ExperimentResult:
    """Every kind's train and test report, in ``predictions`` order
    (kind -> phase -> pid -> series), scored against ``against``, and the
    bias diagnostic of the lstm's test predictions when the dataset has lsm;
    ``fields`` fill the rest of the result."""
    reports = [build_metrics_report(kind, phase, dataset, preds[phase], window, pixel_ids,
                                    split.spec.to_dict(), MODEL_KINDS[kind].flags, against)
               for kind, preds in predictions.items()
               for phase, pixel_ids, window in (
                   ("train", split.train_pixels, split.train_window),
                   ("test", split.test_pixels, split.test_window))]
    diag = None
    if "lstm" in predictions and dataset.has_lsm:
        diag = training_bias_flag(
            self_assessed_bias(predictions["lstm"]["test"], dataset, split.test_window),
            dataset, split.train_pixels, split.train_window)
    return ExperimentResult(split=split, reports=reports, bias_diagnostic=diag,
                            predictions=predictions, **fields)


def prepare_split(dataset: GridDataset, split: Split, features: Features | None = None):
    """(data, its training pixels' rows, stats): the dataset normalized with
    the training pixels' statistics, stacked as ``features`` selects."""
    norm_ds, stats = normalize(dataset, split.train_pixels)
    data = prepare_sequences(norm_ds, features)
    return data, data.subset(split.train_pixels), stats


def run_experiment(dataset: GridDataset, split_spec: SplitSpec, model_kinds,
                   lstm_config: TrainingConfig | None = None,
                   features: Features | None = None,
                   baselines: BaselineSettings | None = None,
                   seed: int = 0,
                   out_dir: str | None = None) -> ExperimentResult:
    """Train every requested model kind on the split's train set and report
    train/test metrics separately. A model failure is isolated to its own
    entry in ``errors``; the rest of the run completes."""
    for kind in model_kinds:
        if kind not in MODEL_KINDS:
            raise ValidationError(f"unknown model kind {kind!r}")
    baselines = (baselines or BaselineSettings()).validate()
    split = make_split(dataset, split_spec)
    require_point_split(model_kinds, split)
    data, train_data, stats = prepare_split(dataset, split, features)

    models, predictions, errors = {}, {}, {}
    for kind in model_kinds:
        try:
            entry = MODEL_KINDS[kind]
            models[kind] = entry.fit(train_data, split, lstm_config, baselines, seed)
            predictions[kind] = entry.predict(models[kind], data, split)
        except Exception as exc:  # noqa: BLE001 - isolate per-model failures
            errors[kind] = f"{type(exc).__name__}: {exc}"

    result = score_models(dataset, split, predictions, models=models, errors=errors,
                          stats=stats, feature_names=data.feature_names)
    if out_dir is not None:
        write_experiment_reports(result, out_dir)
    return result


def write_experiment_reports(result: ExperimentResult, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    per_pixel = os.path.join(out_dir, "metrics_per_pixel.csv")
    with open(per_pixel, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pixel_id", "row", "col", "model", "split_phase",
                         "bias", "rmse", "r"])
        for rep in result.reports:
            for row in rep.rows:
                writer.writerow([
                    row["pixel_id"], row["row"], row["col"], rep.model_kind,
                    rep.phase, format(row["bias"], ".17g"),
                    format(row["rmse"], ".17g"),
                    "" if row["r"] is None else format(row["r"], ".17g"),
                ])
    with open(os.path.join(out_dir, "comparison.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "phase", "median_bias", "median_rmse", "median_r"])
        for row in result.comparison:
            writer.writerow([
                row["model"], row["phase"],
                _csv_num(row["median_bias"]), _csv_num(row["median_rmse"]),
                _csv_num(row["median_r"]),
            ])
    write_json_atomic(os.path.join(out_dir, "summary.json"), result.summary_dict())


def _csv_num(v):
    return "" if v is None else format(v, ".17g")


@dataclass
class HindcastConfig(Config):
    """A hindcast config file: the synthetic dataset, the LSTM's training
    config, the trailing years trained on, the scoring window in days and the
    largest AR order swept."""

    synthetic: SyntheticConfig = field(default_factory=SyntheticConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    train_years: int = 2
    window_days: int = 730
    ar_max_order: int = AR_MAX_ORDER

    def validate(self):
        if self.train_years < 1:
            raise ValidationError(f"train_years must be >= 1, got {self.train_years}")
        if not 0 <= self.ar_max_order <= AR_MAX_ORDER:
            raise ValidationError(f"ar_max_order must lie in [0, {AR_MAX_ORDER}], "
                                  f"got {self.ar_max_order}")
        return self


@dataclass
class HindcastResult:
    windows: list                    # [(t0, t1, label), ...] oldest first
    rmse_rows: list                  # dicts: pixel_id, model, window, rmse
    summary: dict
    models: dict


def run_hindcast_experiment(dataset: GridDataset, train_days: int,
                            lstm_config: TrainingConfig | None = None,
                            ar_max_order: int = AR_MAX_ORDER,
                            window_days: int = 730,
                            out_dir: str | None = None) -> HindcastResult:
    """Long-term hindcast probe: train on the trailing ``train_days`` of the
    (noisy) target using forcings only, then predict the preceding days and
    score against the clean truth per 2-year window.

    The dataset must carry a dense ``truth`` series (synthetic generator
    output). AR orders are selected per pixel on hindcast-truth RMSE,
    mirroring the optimistic source protocol; the summary flags it.
    """
    if any(px.truth is None for px in dataset.pixels):
        raise ValidationError("hindcast experiment needs the clean truth series")
    n_days = dataset.n_days
    if train_days >= n_days:
        raise ValidationError("training window leaves no hindcast period")
    if window_days < 1:
        raise ValidationError(f"window_days must be >= 1, got {window_days}")
    h_end = n_days - train_days
    train_window = (h_end, n_days)
    all_ids = [px.pixel_id for px in dataset.pixels]

    norm_ds, stats = normalize(dataset, all_ids)
    # Forcings only: no model-simulated channel, no static attributes.
    data = prepare_sequences(norm_ds, Features(include_lsm=False, include_attributes=False))

    config = lstm_config or TrainingConfig()
    w, history = train_lstm(data, config, window=train_window)
    # Spin-up: the hindcast window starts at the first forcing day, so one
    # pass from the zero state runs the opening year ahead of it, seasonally
    # aligned, to give day 0 a warm state, and those outputs are dropped
    # (years are 365 days; the generator's climate is stationary).
    spin = min(365, n_days)
    lstm_pred = predict_sequence(w, np.concatenate(
        (data.inputs[:, :spin], data.inputs[:, :h_end]), axis=1))[:, spin:, 0]  # (n_pixels, h_end)

    # Per-pixel AR with the order swept against hindcast truth.
    truth = np.stack([px.truth for px in dataset.pixels])
    theta_tr = data.targets[:, h_end:]
    mask_tr = data.mask[:, h_end:]
    # Hindcast recursion starts at day 0 with no earlier observations;
    # seed the lags with the training-window mean.
    warmups = np.array([np.full(ar_max_order, th[m].mean())
                        for th, m in zip(theta_tr, mask_tr)])
    ar_models = select_ar_orders(theta_tr, mask_tr, data.inputs[:, h_end:],
                                 truth[:, :h_end], np.ones((len(truth), h_end), dtype=bool),
                                 data.inputs[:, :h_end], warmups, p_max=ar_max_order,
                                 labels=all_ids)
    for model in ar_models:
        if isinstance(model, ValidationError):
            raise model
    ar_pred = ar_forecast_batch(ar_models, data.inputs[:, :h_end], warmups)

    # Windowed RMSE vs clean truth, oldest window first.
    windows = []
    t0 = 0
    while t0 < h_end:
        t1 = min(t0 + window_days, h_end)
        windows.append((t0, t1, f"window_{len(windows)}"))
        t0 = t1
    preds = {"lstm": lstm_pred, "ar_p": ar_pred}
    rmse = {}   # (window label, model) -> per-pixel RMSE
    for t0, t1, label in windows:
        for m, pred in preds.items():
            err = pred[:, t0:t1] - truth[:, t0:t1]
            rmse[label, m] = np.sqrt(np.mean(err * err, axis=1))
    rmse_rows = [{"pixel_id": pid, "model": m, "window": label, "rmse": float(v)}
                 for (label, m), values in rmse.items() for pid, v in zip(all_ids, values)]
    per_window = {m: {label: _percentile_block(rmse[label, m]) for *_, label in windows}
                  for m in preds}
    pooled = {m: _percentile_block(np.concatenate([rmse[label, m] for *_, label in windows]))
              for m in preds}
    first_label, last_label = windows[0][2], windows[-1][2]
    summary = {
        "train_days": train_days,
        "hindcast_days": h_end,
        "window_days": window_days,
        "per_window_rmse": per_window,
        "pooled_rmse": pooled,
        "median_lstm_rmse": pooled["lstm"]["p50"],
        "median_ar_rmse": pooled["ar_p"]["p50"],
        "earliest_window_median": {m: per_window[m][first_label]["p50"]
                                   for m in per_window},
        "latest_window_median": {m: per_window[m][last_label]["p50"]
                                 for m in per_window},
        "ar_order_counts": {str(p): sum(1 for m in ar_models if m.p == p)
                            for p in range(ar_max_order + 1)},
        "flags": dict(MODEL_KINDS["ar_p"].flags),
        "lstm_config": config.to_dict(),
        "final_training_loss": history[-1]["loss"] if history else None,
    }
    result = HindcastResult(windows=windows, rmse_rows=rmse_rows,
                            summary=summary,
                            models={"lstm": w, "ar_p": ar_models, "stats": stats,
                                    "feature_names": data.feature_names,
                                    "features": data.features})
    if out_dir is not None:
        write_hindcast_reports(result, out_dir)
    return result


def write_hindcast_reports(result: HindcastResult, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "hindcast_rmse.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pixel_id", "model", "window", "rmse"])
        for row in result.rmse_rows:
            writer.writerow([row["pixel_id"], row["model"], row["window"],
                             format(row["rmse"], ".17g")])
    write_json_atomic(os.path.join(out_dir, "hindcast_summary.json"), result.summary)
