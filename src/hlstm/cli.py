"""Command-line entry point: synth | split | train | evaluate | hindcast.

Every run writes a RunManifest (run_manifest.json) to its output directory
with the resolved configuration, seeds, toolkit version, paths, timing and
environment, so the run can be replayed exactly, and how it ended: status
"ok" or "error", exit_code and, on failure, the error message. Data goes to
the declared output paths; diagnostics go to stderr. Exit codes: 0 success,
1 validation/usage error, 2 runtime failure.

Config files are JSON, and every section is read by ``Config.from_dict``
(hlstm.config), which names the field at fault. The train config mirrors
TrainingConfig field names at the top level; the reserved sections
"features" (Features) and "baselines" (BaselineSettings) tune the rest. A
hindcast config is a HindcastConfig, a split config a SplitSpec or a
materialized Split. A section that is not a JSON object, an unknown or
missing key, a value of the wrong JSON type or one out of range exits 1.
Command-line flags override config values.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from .baselines import BaselineSettings
from .dataset import GridDataset, load_dataset, save_dataset, write_json_atomic
from .errors import DataError, ValidationError
from .experiments import (
    HindcastConfig,
    Split,
    SplitSpec,
    make_split,
    prepare_split,
    require_point_split,
    run_hindcast_experiment,
    score_models,
    write_experiment_reports,
)
from .lstm import usable_cpus
from .modelio import MODEL_KINDS, load_model, model_payload, predict_container, save_model
from .synthetic import SyntheticConfig, generate_synthetic
from .training import Features, TrainingConfig, write_history_csv


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


def _environment() -> dict:
    """What a run's speed, and the bits of a large shared fit, depend on:
    the Python, numpy and BLAS builds, the usable CPUs and the BLAS thread
    settings."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
            "usable_cpus": usable_cpus(),
            "thread_variables": {name: os.environ.get(name) for name in
                                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


class RunManifest:
    def __init__(self, args):
        self.doc = {
            "command": args.command,
            "argv": list(args.argv),
            "toolkit_version": __version__,
            "started_at": dt.datetime.now(dt.timezone.utc).isoformat(),
            "config": {},
            "seeds": {},
            "inputs": {},
            "outputs": {},
            "wall_seconds": None,
            "environment": _environment(),
        }
        self.out_dir = args.out
        self._t0 = time.perf_counter()

    def write(self):
        self.doc["wall_seconds"] = round(time.perf_counter() - self._t0, 3)
        os.makedirs(self.out_dir, exist_ok=True)
        write_json_atomic(os.path.join(self.out_dir, "run_manifest.json"), self.doc)

    def close(self, exit_code: int, error: str | None) -> bool:
        """Record how the run ended (status "ok" or "error", the error
        message, exit_code) and write the manifest; False, reported on
        stderr, when it cannot be written."""
        self.doc.update(status="error" if exit_code else "ok", exit_code=exit_code)
        if exit_code:
            self.doc["error"] = error
        try:
            self.write()
        except OSError as exc:
            print(f"failure: cannot write the run manifest: {exc}", file=sys.stderr)
            return False
        return True


def _load_split(path: str, dataset: GridDataset) -> Split:
    """Accept either a SplitSpec JSON or a materialized split JSON, whose
    pixel ids must be in the dataset and whose windows must be non-empty
    day ranges [t0, t1) within the record (else ValidationError naming the
    field)."""
    doc = _load_json(path, "split")
    if not (isinstance(doc, dict) and "train_pixels" in doc):
        return make_split(dataset, SplitSpec.from_dict(doc, "split"))
    split = Split.from_dict(doc, "split")
    known = {px.pixel_id for px in dataset.pixels}
    for name in ("train_pixels", "test_pixels"):
        bad = [pid for pid in getattr(split, name) if pid not in known]
        if bad:
            raise ValidationError(f"split field {name!r} holds ids not in the dataset: {bad}")
    for name in ("train_window", "test_window"):
        t0, t1 = getattr(split, name)
        if not 0 <= t0 < t1 <= dataset.n_days:
            raise ValidationError(f"split field {name!r} must be [t0, t1] with "
                                  f"0 <= t0 < t1 <= {dataset.n_days}, got {[t0, t1]}")
    return split


def cmd_synth(args, manifest: RunManifest) -> int:
    doc = _load_json(args.config, "synthetic config") if args.config else {}
    cfg = SyntheticConfig.from_dict(doc, "synthetic config")
    if args.seed is not None:
        cfg.seed = args.seed
    dataset = generate_synthetic(cfg)
    save_dataset(dataset, args.out)
    manifest.doc["config"] = cfg.to_dict()
    manifest.doc["seeds"] = {"seed": cfg.seed}
    manifest.doc["outputs"] = {"dataset": args.out}
    print(f"wrote {len(dataset.pixels)} pixels x {dataset.n_days} days to {args.out}",
          file=sys.stderr)
    return 0


def cmd_split(args, manifest: RunManifest) -> int:
    dataset = load_dataset(args.data)
    spec = SplitSpec.from_dict(_load_json(args.config, "split spec"), "split spec")
    try:
        split = make_split(dataset, spec)
    except ValidationError as exc:
        raise ValidationError(f"split spec file {args.config}: {exc}") from None
    os.makedirs(args.out, exist_ok=True)
    write_json_atomic(os.path.join(args.out, "split.json"), split.to_dict())
    manifest.doc["config"] = spec.to_dict()
    manifest.doc["inputs"] = {"dataset": args.data}
    manifest.doc["outputs"] = {"split": os.path.join(args.out, "split.json")}
    print(f"split: {len(split.train_pixels)} train / {len(split.test_pixels)} "
          f"test pixels", file=sys.stderr)
    return 0


def cmd_train(args, manifest: RunManifest) -> int:
    dataset = load_dataset(args.data)
    split = _load_split(args.split, dataset)
    require_point_split([args.model], split)
    doc = _load_json(args.config, "training config") if args.config else {}
    if not isinstance(doc, dict):
        raise ValidationError("training config must be a JSON object")
    config = TrainingConfig.from_dict(
        {k: v for k, v in doc.items() if k not in ("features", "baselines")}, "training config")
    features = Features.from_dict(doc.get("features", {}), "features section")
    baselines = BaselineSettings.from_dict(doc.get("baselines", {}), "config section 'baselines'")
    if args.seed is not None:
        config.seed = args.seed

    data, train_data, stats = prepare_split(dataset, split, features)
    os.makedirs(args.out, exist_ok=True)

    def save(path, model):
        save_model(path, args.model, model_payload(args.model, model, data.feature_names,
                                                   stats, config, data.features))

    checkpoint = {}
    if args.model == "lstm":
        checkpoint["checkpoint"] = lambda epoch, w: save(
            os.path.join(args.out, f"checkpoint_{epoch:06d}.json"), (w, []))
    model = MODEL_KINDS[args.model].fit(train_data, split, config, baselines, config.seed,
                                        **checkpoint)
    model_path = os.path.join(args.out, "model.json")
    save(model_path, model)
    if args.model == "lstm":
        write_history_csv(model[1], os.path.join(args.out, "history.csv"))

    manifest.doc["config"] = {**config.to_dict(), "features": data.features.to_dict(),
                              "baselines": baselines.to_dict(), "model": args.model}
    manifest.doc["seeds"] = {"seed": config.seed}
    manifest.doc["inputs"] = {"dataset": args.data, "split": args.split}
    manifest.doc["outputs"] = {"model": model_path}
    print(f"trained {args.model}; model container at {model_path}", file=sys.stderr)
    return 0


def cmd_evaluate(args, manifest: RunManifest) -> int:
    dataset = load_dataset(args.data)
    split = _load_split(args.split, dataset)
    predictions = {}
    for path in args.model_file:
        kind, payload = load_model(path)
        if kind in predictions:
            raise ValidationError(f"{path}: a second {kind} container; evaluate "
                                  f"takes one container per model kind")
        require_point_split([kind], split)
        try:
            predictions[kind] = predict_container(kind, payload, dataset, split)
        except (ValidationError, DataError) as exc:
            raise DataError(f"{path}: {exc}") from exc
    write_experiment_reports(score_models(dataset, split, predictions, args.against),
                             args.out)
    manifest.doc["inputs"] = {"dataset": args.data, "split": args.split,
                              "models": list(args.model_file)}
    manifest.doc["config"] = {"against": args.against}
    manifest.doc["outputs"] = {"reports": args.out}
    print(f"evaluated {len(args.model_file)} model(s); reports in {args.out}",
          file=sys.stderr)
    return 0


def cmd_hindcast(args, manifest: RunManifest) -> int:
    hc = HindcastConfig.from_dict(_load_json(args.config, "hindcast config"),
                                  "hindcast config")
    if args.seed is not None:
        hc.synthetic.seed = args.seed

    dataset = generate_synthetic(hc.synthetic)
    if args.data:
        save_dataset(dataset, args.data)
    result = run_hindcast_experiment(dataset, train_days=hc.train_years * 365,
                                     lstm_config=hc.training,
                                     ar_max_order=hc.ar_max_order,
                                     window_days=hc.window_days,
                                     out_dir=args.out)
    names, stats, features = (result.models[k] for k in ("feature_names", "stats", "features"))
    pixel_ids = [px.pixel_id for px in dataset.pixels]
    for kind, model in (("lstm", (result.models["lstm"], [])),
                        ("ar_p", dict(zip(pixel_ids, result.models["ar_p"])))):
        save_model(os.path.join(args.out, f"model_{kind}.json"), kind,
                   model_payload(kind, model, names, stats, hc.training, features))

    manifest.doc["config"] = hc.to_dict()
    manifest.doc["seeds"] = {"synthetic": hc.synthetic.seed, "training": hc.training.seed}
    manifest.doc["outputs"] = {"reports": args.out}
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

    def common(p, *, seed=False, data=False, split=False, config=False, model=False,
               model_file=False):
        p.add_argument("--out", required=True, help="output directory")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed (a non-negative integer)")
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
    common(p, seed=True, config=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", help="materialize a train/test split")
    common(p, data=True, config=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train one model kind on a split")
    common(p, seed=True, data=True, split=True, config=True, model=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score trained models on a split")
    common(p, data=True, split=True, model_file=True)
    p.add_argument("--against", choices=("target", "truth"), default="target",
                   help="score against observations or the clean truth")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("hindcast", help="run the long-term hindcast experiment")
    common(p, seed=True, config=True)
    p.add_argument("--data", default=None,
                   help="also write the generated dataset here")
    p.set_defaults(func=cmd_hindcast)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = sys.argv[1:] if argv is None else argv
    if getattr(args, "config", None) is None and args.command in ("split", "hindcast"):
        parser.error(f"{args.command} requires --config")
    if getattr(args, "seed", None) is not None and args.seed < 0:
        parser.error(f"--seed must be a non-negative integer, got {args.seed}")
    manifest = RunManifest(args)
    # Left as is only when KeyboardInterrupt escapes: 128 + SIGINT.
    code, error = 130, "interrupted"
    try:
        code, error = args.func(args, manifest), None
    except (ValidationError, DataError) as exc:
        code, error = 1, str(exc)
        print(f"error: {error}", file=sys.stderr)
    except Exception as exc:  # noqa: BLE001 - runtime failure boundary
        code, error = 2, f"{type(exc).__name__}: {exc}"
        print(f"failure: {error}", file=sys.stderr)
    finally:
        if not manifest.close(code, error):
            code = code or 2
    return code


if __name__ == "__main__":
    sys.exit(main())
