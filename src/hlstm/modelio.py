"""Versioned model container: one JSON file per trained model (or per-pixel
model set), self-describing and lossless.

Layout:

    {"format": "hlstm-v1", "kind": "<model kind>", "toolkit_version": "...",
     "payload": {...}}

Weight arrays are stored as nested row-major lists; Python's float repr is
shortest-round-trip, so save/load is bit-exact. Files are written atomically
(temp file + rename).
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import __version__
from .baselines import ArModel, FfnnModel, LassoModel
from .dataset import NormalizationStats
from .errors import DataError
from .lstm import LstmWeights

FORMAT_TAG = "hlstm-v1"
MODEL_KINDS = ("lstm", "lasso", "lasso_p", "ar_p", "nn", "nn_p")


def _atomic_write_json(path: str, obj: dict):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def save_model(path: str, kind: str, payload: dict):
    if kind not in MODEL_KINDS:
        raise DataError(f"unknown model kind {kind!r}")
    _atomic_write_json(path, {
        "format": FORMAT_TAG,
        "kind": kind,
        "toolkit_version": __version__,
        "payload": payload,
    })


def load_model(path: str):
    """Returns (kind, payload); rejects files without the format tag."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise DataError(f"{path}: not found") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from exc
    if doc.get("format") != FORMAT_TAG:
        raise DataError(f"{path}: format tag {doc.get('format')!r} is not {FORMAT_TAG!r}")
    kind = doc.get("kind")
    if kind not in MODEL_KINDS:
        raise DataError(f"{path}: unknown model kind {kind!r}")
    return kind, payload_fields(doc, "model", "payload")[0]


def payload_fields(payload, what: str, *names):
    """The named fields of a container section, in order; a missing field or
    a section that is not a JSON object raises DataError naming it."""
    if not isinstance(payload, dict):
        raise DataError(f"{what} container section is not a JSON object")
    missing = [name for name in names if name not in payload]
    if missing:
        raise DataError(f"{what} container lacks field(s) {', '.join(missing)}")
    return [payload[name] for name in names]


def lstm_payload(w: LstmWeights, feature_names, stats: NormalizationStats | None,
                 config_echo: dict | None = None,
                 extra: dict | None = None) -> dict:
    payload = {
        "input_size": w.input_size,
        "hidden_size": w.hidden_size,
        "output_size": w.output_size,
        "weights": {name: arr.tolist() for name, arr in w.named_arrays()},
        "feature_names": list(feature_names),
        "normalization": None if stats is None else stats.to_dict(),
        "config": config_echo,
    }
    if extra:
        payload.update(extra)
    return payload


def lstm_from_payload(payload: dict):
    """Returns (weights, feature_names, stats or None). The weights must hold
    exactly the arrays of ``LstmWeights.ARRAY_FIELDS``."""
    n_in, n_hid, n_out, weights, names = payload_fields(
        payload, "lstm", "input_size", "hidden_size", "output_size", "weights",
        "feature_names")
    payload_fields(weights, "lstm weights", *LstmWeights.ARRAY_FIELDS)
    unknown = sorted(set(weights) - set(LstmWeights.ARRAY_FIELDS))
    if unknown:
        raise DataError(f"lstm container has unknown weight array(s) {', '.join(unknown)}")
    w = LstmWeights(**{name: np.asarray(weights[name], dtype=float)
                       for name in LstmWeights.ARRAY_FIELDS},
                    input_size=n_in, hidden_size=n_hid, output_size=n_out)
    w.validate()
    stats = payload.get("normalization")
    stats = None if stats is None else NormalizationStats.from_dict(stats)
    return w, list(names), stats


def lasso_payload(model: LassoModel, feature_names,
                  stats: NormalizationStats | None) -> dict:
    return {
        "beta0": model.beta0,
        "beta": model.beta.tolist(),
        "lambda": model.lam,
        "converged": model.converged,
        "feature_names": list(feature_names),
        "normalization": None if stats is None else stats.to_dict(),
    }


def lasso_from_payload(payload: dict) -> LassoModel:
    beta0, beta, lam, converged = payload_fields(
        payload, "lasso", "beta0", "beta", "lambda", "converged")
    return LassoModel(beta0=beta0, beta=np.asarray(beta, dtype=float), lam=lam,
                      converged=converged)


def ar_payload(model: ArModel, order_rmse: dict | None = None) -> dict:
    out = {"c": model.c, "alpha": model.alpha.tolist(), "gamma": model.gamma.tolist()}
    if order_rmse is not None:
        out["order_rmse"] = {str(k): v for k, v in order_rmse.items()}
    return out


def ar_from_payload(payload: dict) -> ArModel:
    c, alpha, gamma = payload_fields(payload, "ar_p", "c", "alpha", "gamma")
    return ArModel(c=c, alpha=np.asarray(alpha, dtype=float),
                   gamma=np.asarray(gamma, dtype=float))


def ffnn_payload(model: FfnnModel, feature_names,
                 stats: NormalizationStats | None) -> dict:
    return {
        "W1": model.W1.tolist(), "b1": model.b1.tolist(),
        "w2": model.w2.tolist(), "b2": model.b2,
        "hidden_size": model.hidden_size, "l2": model.l2,
        "degenerate": model.degenerate,
        "feature_names": list(feature_names),
        "normalization": None if stats is None else stats.to_dict(),
    }


def ffnn_from_payload(payload: dict) -> FfnnModel:
    W1, b1, w2, b2, hidden_size, l2, degenerate = payload_fields(
        payload, "nn", "W1", "b1", "w2", "b2", "hidden_size", "l2", "degenerate")
    return FfnnModel(W1=np.asarray(W1, dtype=float), b1=np.asarray(b1, dtype=float),
                     w2=np.asarray(w2, dtype=float), b2=b2,
                     hidden_size=hidden_size, l2=l2, degenerate=degenerate)


def per_pixel_payload(models: dict, encode, feature_names,
                      stats: NormalizationStats | None,
                      flags: dict | None = None) -> dict:
    payload = {
        "pixels": {pid: encode(m) for pid, m in models.items()},
        "feature_names": list(feature_names),
        "normalization": None if stats is None else stats.to_dict(),
    }
    if flags:
        payload["flags"] = flags
    return payload
