"""The model-kind table and the versioned model container.

``MODEL_KINDS`` is the one table of the six model kinds. An entry's
``fit(train_data, split, lstm_config, baselines, seed)`` returns a model
fitted on the training pixels' rows and ``predict(model, data, split)``
returns {"train": {pid: series}, "test": {...}};
``to_payload(model, feature_names, stats, config)`` and
``from_payload(payload, n_features)`` convert the model to and from its
container payload. ``point`` kinds fit and score each pixel on its own
series. Models are (weights, history) for lstm, {pixel id: model} for
lasso_p and nn_p, and {pixel id: (model, order, rmse_by_order)} for ar_p.

Container layout:

    {"format": "hlstm-v1", "kind": "<model kind>", "toolkit_version": "...",
     "payload": {...}}

An lstm payload's "weights" object holds the per-gate views of
``LstmWeights.theta`` by name (W_gx ... b_y; see ``LstmWeights.named_arrays``).
A payload may end with the fields of the resolved ``training.Features`` the
model was trained on; ``predict_container`` stacks the inputs by them.
Weight arrays are stored as nested row-major lists; Python's float repr is
shortest-round-trip, so save/load is bit-exact. Files are written atomically
(temp file + rename). A malformed payload (a missing field, an array of
the wrong shape or holding a NaN or infinity, a normalization std that is not
positive) raises DataError naming the field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import __version__
from .baselines import (
    ArModel,
    FfnnModel,
    LassoModel,
    ar_forecast_batch,
    fit_ffnn,
    fit_lasso,
    select_ar_orders,
)
from .dataset import NormalizationStats, apply_normalization, write_json_atomic
from .errors import DataError, ValidationError
from .lstm import LstmWeights, predict_sequence
from .training import Features, TrainingConfig, prepare_sequences, train_lstm

FORMAT_TAG = "hlstm-v1"
MIN_POINT_ROWS = 10  # observed training days a pixel needs for a point fit


def save_model(path: str, kind: str, payload: dict):
    if kind not in MODEL_KINDS:
        raise DataError(f"unknown model kind {kind!r}")
    write_json_atomic(path, {
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
    tag = doc.get("format") if isinstance(doc, dict) else None
    if tag != FORMAT_TAG:
        raise DataError(f"{path}: format tag {tag!r} is not {FORMAT_TAG!r}")
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


def _array(value, what: str, shape) -> np.ndarray:
    """A finite numeric field of the given shape; None in ``shape`` matches
    any length, and shape () is a number."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != len(shape) or any(
            n is not None and n != m for n, m in zip(shape, arr.shape)):
        raise DataError(f"container field {what!r} must be numeric with shape {shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"container field {what!r} holds a NaN or infinity")
    return arr


def _names(value, what: str) -> list:
    if not isinstance(value, list) or not all(isinstance(n, str) for n in value):
        raise DataError(f"container field {what!r} must be a list of strings")
    return list(value)


def _normalization(doc) -> NormalizationStats:
    """A container's normalization section: channel names, and one finite
    mean and one finite std > 0 per name."""
    names, mean, std, excluded = payload_fields(doc, "normalization", "names", "mean",
                                                "std", "excluded")
    names = _names(names, "normalization.names")
    std = _array(std, "normalization.std", (len(names),))
    if not np.all(std > 0):
        raise DataError("container field 'normalization.std' must be positive")
    return NormalizationStats(names=names, std=std,
                              mean=_array(mean, "normalization.mean", (len(names),)),
                              excluded=_names(excluded, "normalization.excluded"))


def lstm_payload(w: LstmWeights, feature_names, stats: NormalizationStats | None,
                 config_echo: dict | None = None) -> dict:
    return {
        "input_size": w.input_size,
        "hidden_size": w.hidden_size,
        "output_size": w.output_size,
        "weights": {name: arr.tolist() for name, arr in w.named_arrays()},
        "feature_names": list(feature_names),
        "normalization": None if stats is None else stats.to_dict(),
        "config": config_echo,
    }


def lstm_from_payload(payload: dict, n_features: int | None = None):
    """Returns (weights, feature_names, stats or None). The weights must hold
    exactly the per-gate arrays of ``LstmWeights.named_arrays``, each of its
    view's shape; each is copied into its view."""
    n_in, n_hid, n_out, weights, names = payload_fields(
        payload, "lstm", "input_size", "hidden_size", "output_size", "weights",
        "feature_names")
    if n_features is not None and n_in != n_features:
        raise DataError(f"container field 'input_size' is {n_in!r}, not the "
                        f"{n_features} of feature_names")
    if not all(isinstance(n, int) for n in (n_in, n_hid, n_out)):
        raise DataError("container fields input_size, hidden_size and output_size "
                        "must be integers")
    w = LstmWeights.zeros(n_in, n_hid, n_out)
    views = dict(w.named_arrays())
    payload_fields(weights, "lstm weights", *views)
    unknown = sorted(set(weights) - set(views))
    if unknown:
        raise DataError(f"lstm container has unknown weight array(s) {', '.join(unknown)}")
    for name, view in views.items():
        view[...] = _array(weights[name], name, view.shape)
    w.validate()
    stats = payload.get("normalization")
    return w, _names(names, "feature_names"), None if stats is None else _normalization(stats)


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


def lasso_from_payload(payload: dict, n_features: int | None = None) -> LassoModel:
    beta0, beta, lam, converged = payload_fields(
        payload, "lasso", "beta0", "beta", "lambda", "converged")
    return LassoModel(beta0=float(_array(beta0, "beta0", ())),
                      beta=_array(beta, "beta", (n_features,)), lam=lam,
                      converged=converged)


def ar_payload(model: ArModel, order_rmse: dict | None = None) -> dict:
    out = {"c": model.c, "alpha": model.alpha.tolist(), "gamma": model.gamma.tolist()}
    if order_rmse is not None:
        out["order_rmse"] = {str(k): v for k, v in order_rmse.items()}
    return out


def ar_from_payload(payload: dict, n_features: int | None = None) -> ArModel:
    c, alpha, gamma = payload_fields(payload, "ar_p", "c", "alpha", "gamma")
    return ArModel(c=float(_array(c, "c", ())), alpha=_array(alpha, "alpha", (None,)),
                   gamma=_array(gamma, "gamma", (n_features,)))


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


def ffnn_from_payload(payload: dict, n_features: int | None = None) -> FfnnModel:
    W1, b1, w2, b2, hidden_size, l2, degenerate = payload_fields(
        payload, "nn", "W1", "b1", "w2", "b2", "hidden_size", "l2", "degenerate")
    W1 = _array(W1, "W1", (None, n_features))
    return FfnnModel(W1=W1, b1=_array(b1, "b1", W1.shape[:1]),
                     w2=_array(w2, "w2", W1.shape[:1]), b2=float(_array(b2, "b2", ())),
                     hidden_size=hidden_size, l2=l2, degenerate=degenerate)


def _ar_warmup(theta, mask, p_max):
    obs = theta[mask]
    if obs.size == 0:
        raise ValidationError("no observations for AR warmup")
    return obs[obs.size - p_max:] if obs.size >= p_max else np.full(p_max, obs.mean())


def _ar_in_sample(model, theta, mask, X_exog):
    """One-step-ahead predictions inside the training window; lags come from
    observations (training-stage formulation), gaps fall back to the mean."""
    p = model.p
    obs_mean = theta[mask].mean()
    # lagged[p + t] is the lag input at time t; times before the window and
    # unobserved times read the mean
    lagged = np.concatenate([np.full(p, obs_mean), np.where(mask, theta, obs_mean)])
    out = model.c + (X_exog @ model.gamma if model.r else np.zeros(theta.size))
    for i in range(1, p + 1):
        out = out + model.alpha[i - 1] * lagged[p - i:p - i + theta.size]
    return out


def _phases(data, split, series, only=None):
    """{"train": {pid: series(pid, k, t0, t1)}, "test": {...}} over the
    split's pixels (those in ``only``, when given) and windows; k is the
    pixel's row in ``data``."""
    idx = {pid: k for k, pid in enumerate(data.pixel_ids)}
    return {phase: {pid: series(pid, idx[pid], *window) for pid in pixel_ids
                    if only is None or pid in only}
            for phase, pixel_ids, window in (
                ("train", split.train_pixels, split.train_window),
                ("test", split.test_pixels, split.test_window))}


def _fit_lstm(train_data, split, lstm_config, baselines, seed, checkpoint=None):
    return train_lstm(train_data, lstm_config or TrainingConfig(),
                      window=split.train_window, checkpoint=checkpoint)


def _predict_lstm(model, data, split):
    # One dropout-free pass over the full series; slice out each phase.
    Y = predict_sequence(model[0], data.inputs)[..., 0]
    return _phases(data, split, lambda pid, k, t0, t1: Y[k, t0:t1])


def _rows(fit_rows, point=False):
    """fit and predict of a kind whose model maps each day's feature row to a
    value with ``model.predict``: one model over the observed rows of all
    training pixels or, for a point kind, one per training pixel with
    MIN_POINT_ROWS of them."""
    def fit(train_data, split, lstm_config, baselines, seed):
        t0, t1 = split.train_window
        rows = {}
        for k, pid in enumerate(train_data.pixel_ids):
            m = train_data.mask[k, t0:t1]
            if m.sum() >= (MIN_POINT_ROWS if point else 1):
                rows[pid] = (train_data.inputs[k, t0:t1][m], train_data.targets[k, t0:t1][m])
        if not rows:
            raise ValidationError("no pixel had enough observed training rows to fit")
        if not point:
            return fit_rows(*map(np.concatenate, zip(*rows.values())), baselines, seed)
        return {pid: fit_rows(X, y, baselines, seed) for pid, (X, y) in rows.items()}

    def predict(model, data, split):
        if point:
            return _phases(data, split, lambda pid, k, t0, t1: model[pid].predict(
                data.inputs[k, t0:t1]), only=model)
        return _phases(data, split, lambda pid, k, t0, t1: model.predict(data.inputs[k, t0:t1]))
    return fit, predict


def _fit_ar(train_data, split, lstm_config, baselines, seed):
    """Per-pixel AR with exogenous inputs, the order swept on the test
    window per the source protocol (optimistic; flagged)."""
    (t0, t1), (e0, e1) = split.train_window, split.test_window
    ks = np.flatnonzero(train_data.mask[:, t0:t1].sum(axis=1) >= MIN_POINT_ROWS)
    pids = [train_data.pixel_ids[k] for k in ks]
    mask = train_data.mask[ks, t0:t1]
    theta = np.where(mask, train_data.targets[ks, t0:t1], 0.0)
    warm = np.array([_ar_warmup(th, m, baselines.ar_max_order)
                     for th, m in zip(theta, mask)])
    swept = select_ar_orders(theta, mask, train_data.inputs[ks, t0:t1],
                             train_data.targets[ks, e0:e1], train_data.mask[ks, e0:e1],
                             train_data.inputs[ks, e0:e1], warm,
                             p_max=baselines.ar_max_order, labels=pids)
    models = {pid: res for pid, res in zip(pids, swept)
              if not isinstance(res, ValidationError)}
    if not models:
        raise ValidationError("no pixel could support an AR fit")
    return models


def _predict_ar(models, data, split):
    """In-sample one-step predictions over the train window, and one
    closed-loop forecast over the test window from the last observations."""
    (t0, t1), (e0, e1) = split.train_window, split.test_window
    idx = {pid: k for k, pid in enumerate(data.pixel_ids)}
    pids = [pid for pid in split.train_pixels if pid in models]
    ks = [idx[pid] for pid in pids]
    ar = [models[pid][0] for pid in pids]
    mask = data.mask[ks, t0:t1]
    theta = np.where(mask, data.targets[ks, t0:t1], 0.0)
    p_warm = max([m.p for m in ar] + [1])
    warm = np.array([_ar_warmup(th, m, p_warm) for th, m in zip(theta, mask)])
    test = ar_forecast_batch(ar, data.inputs[ks, e0:e1], warm.reshape(-1, p_warm))
    return {"train": {pid: _ar_in_sample(m, th, mk, x) for pid, m, th, mk, x
                      in zip(pids, ar, theta, mask, data.inputs[ks, t0:t1])},
            "test": dict(zip(pids, test))}


def _per_pixel(encode, decode):
    """to_payload and from_payload of a point kind, from those of one
    pixel's model."""
    def to_payload(models, feature_names, stats, config):
        return {"pixels": {pid: encode(m, feature_names, None, config)
                           for pid, m in models.items()},
                "feature_names": list(feature_names),
                "normalization": None if stats is None else stats.to_dict()}

    def from_payload(payload, n_features):
        (pixels,) = payload_fields(payload, "per-pixel", "pixels")
        if not isinstance(pixels, dict):
            raise DataError("container field 'pixels' must be a JSON object")
        return {pid: decode(doc, n_features) for pid, doc in pixels.items()}
    return to_payload, from_payload


@dataclass(frozen=True)
class ModelKind:
    fit: Callable
    predict: Callable
    to_payload: Callable
    from_payload: Callable
    point: bool = False
    flags: dict = field(default_factory=dict)   # report flags


def _fit_lasso(X, y, b, seed):
    return fit_lasso(X, y, lam=b.lasso_lambda)


def _fit_nn(point: bool):
    return lambda X, y, b, seed: fit_ffnn(
        X, y, hidden_size=b.ffnn_hidden_point if point else b.ffnn_hidden,
        l2=b.ffnn_l2, seed=seed, max_epochs=b.ffnn_epochs)


def _ar_from_doc(doc, n_features):
    model = ar_from_payload(doc, n_features)
    return model, model.p, doc.get("order_rmse")


# payload converters of one lasso and one nn model
_LASSO_DOC = (lambda model, names, stats, config: lasso_payload(model, names, stats),
              lasso_from_payload)
_NN_DOC = (lambda model, names, stats, config: ffnn_payload(model, names, stats),
           ffnn_from_payload)

MODEL_KINDS = {
    "lstm": ModelKind(_fit_lstm, _predict_lstm,
                      lambda model, names, stats, config: lstm_payload(
                          model[0], names, stats, (config or TrainingConfig()).to_dict()),
                      lambda payload, n: (lstm_from_payload(payload, n)[0], [])),
    "lasso": ModelKind(*_rows(_fit_lasso), *_LASSO_DOC),
    "lasso_p": ModelKind(*_rows(_fit_lasso, point=True), *_per_pixel(*_LASSO_DOC), point=True),
    "ar_p": ModelKind(_fit_ar, _predict_ar, *_per_pixel(
                          lambda triple, names, stats, config: {
                              **ar_payload(triple[0], triple[2]), "order": triple[1]},
                          _ar_from_doc),
                      point=True, flags={"optimistic_order_selection": True,
                                         "exogenous_inputs_normalized": True}),
    "nn": ModelKind(*_rows(_fit_nn(False)), *_NN_DOC),
    "nn_p": ModelKind(*_rows(_fit_nn(True), point=True), *_per_pixel(*_NN_DOC), point=True),
}


def model_payload(kind: str, model, feature_names, stats: NormalizationStats | None,
                  config: TrainingConfig | None = None,
                  features: Features | None = None) -> dict:
    """The container payload of a fitted model, followed by the kind's flags
    and the fields of ``features``. An lstm echoes ``config``."""
    entry = MODEL_KINDS[kind]
    payload = entry.to_payload(model, feature_names, stats, config)
    if entry.flags:
        payload["flags"] = dict(entry.flags)
    return {**payload, **(features.to_dict() if features else {})}


def predict_container(kind: str, payload: dict, dataset, split) -> dict:
    """Predictions of a loaded container's model on ``dataset``, normalized
    with the container's statistics and given the features it was trained
    on."""
    names, stats = payload_fields(payload, kind, "feature_names", "normalization")
    names = _names(names, "feature_names")
    if stats is None:
        raise DataError("model container lacks normalization statistics")
    stats = _normalization(stats)
    try:
        features = Features.from_dict({f.name: payload[f.name] for f in fields(Features)
                                       if f.name in payload}, "model container")
    except ValidationError as exc:
        raise DataError(str(exc)) from None
    data = prepare_sequences(apply_normalization(dataset, stats), features)
    if data.feature_names != names:
        raise ValidationError(
            f"dataset features {data.feature_names} do not match the model's {names}")
    entry = MODEL_KINDS[kind]
    return entry.predict(entry.from_payload(payload, len(names)), data, split)
