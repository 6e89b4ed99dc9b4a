"""Command-line entry point: synth | split | train | evaluate | hindcast.

Every run writes a RunManifest (run_manifest.json) to its output directory
with the resolved configuration, seeds, toolkit version, paths and timing, so
the run can be replayed exactly. Data goes to the declared output paths;
diagnostics go to stderr. Exit codes: 0 success, 1 validation/usage error,
2 runtime failure.

Config files are JSON. The train config mirrors TrainingConfig field names at
the top level; the reserved sections "features" (include_lsm,
include_attributes) and "baselines" (lasso_lambda, ffnn_hidden,
ffnn_hidden_point, ffnn_l2, ffnn_epochs, ar_max_order) tune the rest.
Command-line flags override config values.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .baselines import ar_forecast, ffnn_predict
from .dataset import GridDataset, apply_normalization, load_dataset, normalize, save_dataset
from .errors import DataError, ValidationError
from .experiments import (
    Split,
    SplitSpec,
    build_metrics_report,
    make_split,
    require_point_split,
    run_hindcast_experiment,
    _ar_warmup,
    _fit_and_predict,
    _ar_in_sample,
    write_experiment_reports,
    ExperimentResult,
)
from .lstm import predict_sequence
from .modelio import (
    ar_from_payload,
    ar_payload,
    ffnn_from_payload,
    ffnn_payload,
    lasso_from_payload,
    lasso_payload,
    load_model,
    lstm_from_payload,
    lstm_payload,
    payload_fields,
    per_pixel_payload,
    save_model,
)
from .synthetic import SyntheticConfig, generate_synthetic
from .training import TrainingConfig, prepare_sequences, train_lstm, write_history_csv

MODEL_KINDS = ("lstm", "lasso", "lasso_p", "ar_p", "nn", "nn_p")


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors, per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ValidationError(f"{what} file {path} not found") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} file {path}: invalid JSON ({exc})") from exc


def _atomic_json(path: str, obj):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


class RunManifest:
    def __init__(self, command: str, argv, out_dir: str):
        self.doc = {
            "command": command,
            "argv": list(argv),
            "toolkit_version": __version__,
            "started_at": dt.datetime.now(dt.timezone.utc).isoformat(),
            "config": {},
            "seeds": {},
            "inputs": {},
            "outputs": {},
            "wall_seconds": None,
        }
        self.out_dir = out_dir
        self._t0 = time.perf_counter()

    def write(self):
        self.doc["wall_seconds"] = round(time.perf_counter() - self._t0, 3)
        os.makedirs(self.out_dir, exist_ok=True)
        _atomic_json(os.path.join(self.out_dir, "run_manifest.json"), self.doc)


def _load_split(path: str, dataset: GridDataset) -> Split:
    """Accept either a SplitSpec JSON or a materialized split JSON."""
    doc = _load_json(path, "split")
    if "train_pixels" in doc:
        spec = SplitSpec.from_dict(doc.get("spec", {"kind": doc.get("kind", "temporal")}))
        return Split(train_pixels=list(doc["train_pixels"]),
                     test_pixels=list(doc["test_pixels"]),
                     train_window=tuple(doc["train_window"]),
                     test_window=tuple(doc["test_window"]),
                     spec=spec)
    return make_split(dataset, SplitSpec.from_dict(doc))


def _split_train_config(doc: dict, seed_override):
    features = doc.pop("features", {})
    baselines = doc.pop("baselines", {})
    config = TrainingConfig.from_dict(doc) if doc else TrainingConfig()
    if seed_override is not None:
        config.seed = seed_override
    config.validate()
    return config, features, baselines


def cmd_synth(args) -> int:
    manifest = RunManifest("synth", sys.argv[1:], args.out)
    doc = _load_json(args.config, "synthetic config") if args.config else {}
    cfg = SyntheticConfig.from_dict(doc)
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.validate()
    dataset = generate_synthetic(cfg)
    save_dataset(dataset, args.out)
    manifest.doc["config"] = cfg.to_dict()
    manifest.doc["seeds"] = {"seed": cfg.seed}
    manifest.doc["outputs"] = {"dataset": args.out}
    manifest.write()
    print(f"wrote {len(dataset.pixels)} pixels x {dataset.n_days} days to {args.out}",
          file=sys.stderr)
    return 0


def cmd_split(args) -> int:
    manifest = RunManifest("split", sys.argv[1:], args.out)
    dataset = load_dataset(args.data)
    spec = SplitSpec.from_dict(_load_json(args.config, "split spec"))
    split = make_split(dataset, spec)
    os.makedirs(args.out, exist_ok=True)
    _atomic_json(os.path.join(args.out, "split.json"), split.to_dict())
    manifest.doc["config"] = spec.to_dict()
    manifest.doc["inputs"] = {"dataset": args.data}
    manifest.doc["outputs"] = {"split": os.path.join(args.out, "split.json")}
    manifest.write()
    print(f"split: {len(split.train_pixels)} train / {len(split.test_pixels)} "
          f"test pixels", file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    manifest = RunManifest("train", sys.argv[1:], args.out)
    dataset = load_dataset(args.data)
    split = _load_split(args.split, dataset)
    require_point_split([args.model], split)
    doc = _load_json(args.config, "training config") if args.config else {}
    config, features, baselines = _split_train_config(doc, args.seed)
    include_lsm = features.get("include_lsm", dataset.has_lsm)
    include_attributes = features.get("include_attributes", True)

    norm_ds, stats = normalize(dataset, split.train_pixels)
    data = prepare_sequences(norm_ds, include_lsm=include_lsm,
                             include_attributes=include_attributes)
    train_data = data.subset(split.train_pixels)
    os.makedirs(args.out, exist_ok=True)

    feature_flags = {"include_lsm": include_lsm,
                     "include_attributes": include_attributes}
    model_path = os.path.join(args.out, "model.json")
    if args.model == "lstm":
        def ckpt_writer(path, weights):
            save_model(path, "lstm", lstm_payload(
                weights, data.feature_names, stats, config.to_dict(),
                extra=feature_flags))

        w, history = train_lstm(train_data, config, window=split.train_window,
                                checkpoint_dir=args.out,
                                checkpoint_writer=ckpt_writer)
        save_model(model_path, "lstm", lstm_payload(
            w, data.feature_names, stats, config.to_dict(), extra=feature_flags))
        write_history_csv(history, os.path.join(args.out, "history.csv"))
    else:
        predictions, flags, model_obj = _fit_and_predict(
            args.model, data, train_data, split, config,
            baselines.get("lasso_lambda", 0.002),
            baselines.get("ffnn_hidden", 100),
            baselines.get("ffnn_hidden_point", 30),
            baselines.get("ffnn_l2", 0.002),
            baselines.get("ffnn_epochs", 400),
            baselines.get("ar_max_order", 5),
            config.seed)
        payload = _baseline_payload(args.model, model_obj, data.feature_names,
                                    stats, flags, extra=feature_flags)
        save_model(model_path, args.model, payload)

    manifest.doc["config"] = {**config.to_dict(), "features": feature_flags,
                              "baselines": baselines, "model": args.model}
    manifest.doc["seeds"] = {"seed": config.seed}
    manifest.doc["inputs"] = {"dataset": args.data, "split": args.split}
    manifest.doc["outputs"] = {"model": model_path}
    manifest.write()
    print(f"trained {args.model}; model container at {model_path}", file=sys.stderr)
    return 0


def _baseline_payload(kind, model_obj, feature_names, stats, flags, extra=None):
    extra = dict(extra or {})
    if kind == "lasso":
        payload = lasso_payload(model_obj, feature_names, stats)
    elif kind == "nn":
        payload = ffnn_payload(model_obj, feature_names, stats)
    elif kind == "lasso_p":
        payload = per_pixel_payload(
            model_obj, lambda m: lasso_payload(m, feature_names, None),
            feature_names, stats, flags)
    elif kind == "nn_p":
        payload = per_pixel_payload(
            model_obj, lambda m: ffnn_payload(m, feature_names, None),
            feature_names, stats, flags)
    elif kind == "ar_p":
        payload = per_pixel_payload(
            model_obj, lambda triple: {**ar_payload(triple[0], triple[2]),
                                       "order": triple[1]},
            feature_names, stats, flags)
    else:
        raise ValidationError(f"unknown model kind {kind!r}")
    payload.update(extra)
    return payload


def _container_predictions(kind, payload, dataset, split):
    """Rebuild a model from its container and produce per-phase predictions."""
    include_lsm = payload.get("include_lsm", dataset.has_lsm)
    include_attributes = payload.get("include_attributes", True)
    stats_doc = payload.get("normalization")
    if stats_doc is None:
        raise DataError("model container lacks normalization statistics")
    from .dataset import NormalizationStats

    stats = NormalizationStats.from_dict(stats_doc)
    norm_ds = apply_normalization(dataset, stats)
    data = prepare_sequences(norm_ds, include_lsm=include_lsm,
                             include_attributes=include_attributes)
    (feature_names,) = payload_fields(payload, kind, "feature_names")
    if data.feature_names != list(feature_names):
        raise ValidationError(
            f"dataset features {data.feature_names} do not match the model's "
            f"{feature_names}")
    idx = {pid: k for k, pid in enumerate(data.pixel_ids)}
    tr0, tr1 = split.train_window
    te0, te1 = split.test_window
    preds = {"train": {}, "test": {}}

    if kind == "lstm":
        w, _, _ = lstm_from_payload(payload)
        Y = predict_sequence(w, data.inputs)[..., 0]
        for pid in split.train_pixels:
            preds["train"][pid] = Y[idx[pid], tr0:tr1]
        for pid in split.test_pixels:
            preds["test"][pid] = Y[idx[pid], te0:te1]
        return preds

    if kind in ("lasso", "nn"):
        model = lasso_from_payload(payload) if kind == "lasso" else ffnn_from_payload(payload)
        predict = model.predict if kind == "lasso" else (lambda X: ffnn_predict(model, X))
        for pid in split.train_pixels:
            preds["train"][pid] = predict(data.inputs[idx[pid], tr0:tr1])
        for pid in split.test_pixels:
            preds["test"][pid] = predict(data.inputs[idx[pid], te0:te1])
        return preds

    # per-pixel containers
    (pixel_payloads,) = payload_fields(payload, kind, "pixels")
    for pid, doc in pixel_payloads.items():
        if pid not in idx:
            continue
        k = idx[pid]
        if kind == "lasso_p":
            model = lasso_from_payload(doc)
            preds["train"][pid] = model.predict(data.inputs[k, tr0:tr1])
            preds["test"][pid] = model.predict(data.inputs[k, te0:te1])
        elif kind == "nn_p":
            model = ffnn_from_payload(doc)
            preds["train"][pid] = ffnn_predict(model, data.inputs[k, tr0:tr1])
            preds["test"][pid] = ffnn_predict(model, data.inputs[k, te0:te1])
        else:  # ar_p
            model = ar_from_payload(doc)
            theta_tr = np.nan_to_num(data.targets[k, tr0:tr1])
            mask_tr = data.mask[k, tr0:tr1]
            preds["train"][pid] = _ar_in_sample(model, theta_tr, mask_tr,
                                                data.inputs[k, tr0:tr1])
            warm = _ar_warmup(theta_tr, mask_tr, max(model.p, 1))
            preds["test"][pid] = ar_forecast(model, data.inputs[k, te0:te1], warm)
    return preds


def cmd_evaluate(args) -> int:
    manifest = RunManifest("evaluate", sys.argv[1:], args.out)
    dataset = load_dataset(args.data)
    split = _load_split(args.split, dataset)
    eval_ds = dataset
    if args.against == "truth":
        if any(px.truth is None for px in dataset.pixels):
            raise ValidationError("--against truth needs a dataset with the "
                                  "truth column")
        # score against the dense clean series instead of the observations
        import dataclasses

        eval_ds = dataclasses.replace(dataset, pixels=[
            dataclasses.replace(px, target=px.truth.copy(),
                                mask=np.ones(dataset.n_days, dtype=bool))
            for px in dataset.pixels])

    reports = []
    comparison = []
    for path in args.model_file:
        kind, payload = load_model(path)
        require_point_split([kind], split)
        predictions = _container_predictions(kind, payload, dataset, split)
        for phase, pixel_ids, window in (
                ("train", split.train_pixels, split.train_window),
                ("test", split.test_pixels, split.test_window)):
            rep = build_metrics_report(kind, phase, eval_ds,
                                       predictions[phase], window, pixel_ids,
                                       split.spec.to_dict(),
                                       payload.get("flags"))
            reports.append(rep)
            comparison.append({
                "model": kind, "phase": phase,
                "median_bias": rep.percentiles["bias"]["p50"],
                "median_rmse": rep.percentiles["rmse"]["p50"],
                "median_r": rep.percentiles["r"]["p50"],
            })
    result = ExperimentResult(split=split, reports=reports,
                              comparison=comparison, models={},
                              bias_diagnostic=None, errors={})
    write_experiment_reports(result, args.out)
    manifest.doc["inputs"] = {"dataset": args.data, "split": args.split,
                              "models": list(args.model_file)}
    manifest.doc["config"] = {"against": args.against}
    manifest.doc["outputs"] = {"reports": args.out}
    manifest.write()
    print(f"evaluated {len(args.model_file)} model(s); reports in {args.out}",
          file=sys.stderr)
    return 0


def cmd_hindcast(args) -> int:
    manifest = RunManifest("hindcast", sys.argv[1:], args.out)
    doc = _load_json(args.config, "hindcast config")
    synth_doc = doc.get("synthetic", {})
    cfg = SyntheticConfig.from_dict(synth_doc)
    if args.seed is not None:
        cfg.seed = args.seed
    train_years = doc.get("train_years", 2)
    window_days = doc.get("window_days", 730)
    ar_max_order = doc.get("ar_max_order", 5)
    tdoc = doc.get("training", {})
    lstm_config = TrainingConfig.from_dict(tdoc) if tdoc else None

    dataset = generate_synthetic(cfg)
    if args.data:
        save_dataset(dataset, args.data)
    result = run_hindcast_experiment(dataset, train_days=train_years * 365,
                                     lstm_config=lstm_config,
                                     ar_max_order=ar_max_order,
                                     window_days=window_days,
                                     out_dir=args.out)
    stats = result.models["stats"]
    names = result.models["feature_names"]
    flags = {"include_lsm": False, "include_attributes": False}
    save_model(os.path.join(args.out, "model_lstm.json"), "lstm",
               lstm_payload(result.models["lstm"], names, stats,
                            (lstm_config or TrainingConfig()).to_dict(),
                            extra=flags))
    ar_models = {px.pixel_id: (m, m.p, rmse_by_p) for px, m, rmse_by_p in
                 zip(dataset.pixels, result.models["ar_p"],
                     result.models["ar_rmse_by_p"])}
    save_model(os.path.join(args.out, "model_ar_p.json"), "ar_p",
               _baseline_payload("ar_p", ar_models, names, stats,
                                 result.summary["flags"], extra=flags))

    manifest.doc["config"] = {"synthetic": cfg.to_dict(),
                              "training": (lstm_config or TrainingConfig()).to_dict(),
                              "train_years": train_years,
                              "window_days": window_days,
                              "ar_max_order": ar_max_order}
    manifest.doc["seeds"] = {"synthetic": cfg.seed,
                             "training": (lstm_config or TrainingConfig()).seed}
    manifest.doc["outputs"] = {"reports": args.out}
    manifest.write()
    med = result.summary
    print(f"hindcast medians: lstm {med['median_lstm_rmse']:.4f}, "
          f"ar_p {med['median_ar_rmse']:.4f}", file=sys.stderr)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="hlstm",
                     description="Gap-aware sequence learning toolkit for "
                                 "sparsely observed gridded series")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, data=False, split=False, config=False, model=False,
               model_file=False):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        if data:
            p.add_argument("--data", required=True, help="dataset directory")
        if split:
            p.add_argument("--split", required=True,
                           help="split spec or materialized split JSON")
        if config:
            p.add_argument("--config", help="JSON config file")
        if model:
            p.add_argument("--model", required=True, choices=MODEL_KINDS)
        if model_file:
            p.add_argument("--model-file", action="append", required=True,
                           help="trained model container (repeatable)")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p, config=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", help="materialize a train/test split")
    common(p, data=True, config=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train one model kind on a split")
    common(p, data=True, split=True, config=True, model=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score trained models on a split")
    common(p, data=True, split=True, model_file=True)
    p.add_argument("--against", choices=("target", "truth"), default="target",
                   help="score against observations or the clean truth")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("hindcast", help="run the long-term hindcast experiment")
    common(p, config=True)
    p.add_argument("--data", default=None,
                   help="also write the generated dataset here")
    p.set_defaults(func=cmd_hindcast)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None and args.command in ("split", "hindcast"):
        parser.error(f"{args.command} requires --config")
    try:
        return args.func(args)
    except (ValidationError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failure boundary
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
