"""The model-kind table and the versioned model container.

``MODEL_KINDS`` is the one table of the six model kinds. An entry's
``fit(train_data, split, lstm_config, baselines, seed)`` returns a model
fitted on the training pixels' rows, ``predict(model, data, split)`` returns
{"train": {pid: series}, "test": {...}}, and ``payload`` is the section of
its container payload: ``payload.of(model, feature_names, stats, config)``
holds a model, ``section.model()`` gives it back. ``point`` kinds fit and
score each pixel on its own series. Models are (weights, history) for lstm
and {pixel id: model} for lasso_p, nn_p and ar_p. A baseline model is its own
section: a lasso or nn payload is the model followed by :class:`Inputs`.

A container, ``{"format": "hlstm-v1", "kind": ..., "toolkit_version": ...,
"payload": {...}}``, is read and written only as ``config.Config`` sections,
whose fields and ``validate()`` are its schema (README "Model containers").
Python's float repr is shortest-round-trip, so save/load is bit-exact.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field
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
from .config import Config, Matrix, Vector, optional
from .dataset import NormalizationStats, apply_normalization, write_json_atomic
from .errors import DataError, ValidationError
from .lstm import LstmWeights, predict_sequence
from .training import Features, TrainingConfig, prepare_sequences, train_lstm

FORMAT_TAG = "hlstm-v1"
MIN_POINT_ROWS = 10  # observed training days a pixel needs for a point fit


@dataclass
class Envelope(Config):
    """A container file; ``load_model`` checks the format tag first."""

    format: str
    kind: str
    toolkit_version: str
    payload: dict

    def validate(self):
        if self.kind not in MODEL_KINDS:
            raise ValidationError(f"unknown model kind {self.kind!r}")
        return self


def save_model(path: str, kind: str, payload: dict):
    try:
        envelope = Envelope(FORMAT_TAG, kind, __version__, payload).validate()
    except ValidationError as exc:
        raise DataError(str(exc)) from None
    write_json_atomic(path, envelope.to_dict())


def load_model(path: str):
    """Returns (kind, payload); every error names ``path``."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        tag = doc.get("format") if isinstance(doc, dict) else None
        if tag != FORMAT_TAG:
            raise DataError(f"format tag {tag!r} is not {FORMAT_TAG!r}")
        envelope = Envelope.from_dict(doc, "model container")
    except FileNotFoundError as exc:
        raise DataError(f"{path}: not found") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from exc
    except (DataError, ValidationError) as exc:
        raise DataError(f"{path}: {exc}") from None
    return envelope.kind, envelope.payload


def _check_inputs(section, n: int, where: str = ""):
    """``section``, checked to have ``n`` entries on its INPUTS array's last axis."""
    got = getattr(section, section.INPUTS).shape[-1]
    if got != n:
        raise ValidationError(f"{where}field {section.INPUTS!r} has {got} input columns, "
                              f"not the {n} of 'feature_names'")
    return section


# The lstm "weights" object: one field per per-gate view of LstmWeights.
LstmGates = dataclasses.make_dataclass(
    "LstmGates", [(name, Matrix if len(shape) == 2 else Vector)
                  for name, shape in LstmWeights.gate_shapes(1, 1, 1)],
    bases=(Config,), namespace={"__module__": __name__})


@dataclass
class LstmPayload(Config):
    input_size: int
    hidden_size: int
    output_size: int
    weights: LstmGates
    feature_names: list[str]
    normalization: NormalizationStats | None
    config: TrainingConfig | None
    include_lsm: bool | None = optional()
    include_attributes: bool = optional()

    @classmethod
    def of(cls, model, feature_names, stats, config):
        w = model[0]
        return cls(w.input_size, w.hidden_size, w.output_size,
                   LstmGates(**dict(w.named_arrays())), list(feature_names), stats, config)

    def validate(self):
        if self.input_size != len(self.feature_names):
            raise ValidationError(f"field 'input_size' is {self.input_size}, not the "
                                  f"{len(self.feature_names)} of 'feature_names'")
        for name, shape in LstmWeights.gate_shapes(self.input_size, self.hidden_size,
                                                   self.output_size):
            if getattr(self.weights, name).shape != shape:
                raise ValidationError(f"weights field {name!r} has shape "
                                      f"{getattr(self.weights, name).shape}, not {shape}")
        return self

    def model(self):
        """(weights, []), each per-gate array copied into its view of theta."""
        w = LstmWeights(self.input_size, self.hidden_size, self.output_size)
        for name, view in w.named_arrays():
            view[...] = getattr(self.weights, name)
        return w, []


def lstm_payload(w: LstmWeights, feature_names, stats: NormalizationStats | None,
                 config: dict | None = None) -> dict:
    """The lstm payload of ``w``, echoing the TrainingConfig dict ``config``."""
    return LstmPayload.of((w, []), feature_names, stats, None if config is None else
                          TrainingConfig.from_dict(config, "config")).to_dict()


@dataclass
class Inputs:
    """A lasso or nn payload's fields after the model's; a lasso_p or nn_p
    pixel repeats its container's ``feature_names`` and has no statistics."""

    feature_names: list[str]
    normalization: NormalizationStats | None
    include_lsm: bool | None = optional()
    include_attributes: bool = optional()

    @classmethod
    def of(cls, model, feature_names, stats, config):
        return cls(**{**vars(model), "feature_names": list(feature_names), "normalization": stats})

    def validate(self):
        return _check_inputs(super().validate(), len(self.feature_names))

    def model(self):
        return self


@dataclass
class LassoPayload(Inputs, LassoModel):
    """The lasso payload, and a lasso_p pixel."""


@dataclass
class NnPayload(Inputs, FfnnModel):
    """The nn payload, and an nn_p pixel."""


@dataclass
class PointPayload(Config):
    """lasso_p's payload, a lasso section per pixel id; the subclasses take
    another pixel section. Only ar_p sets ``flags``."""

    pixels: dict[str, LassoPayload]
    feature_names: list[str]
    normalization: NormalizationStats | None
    flags: dict[str, bool] = optional()
    include_lsm: bool | None = optional()
    include_attributes: bool = optional()

    @classmethod
    def of(cls, models, feature_names, stats, config):
        pixel = typing.get_args(typing.get_type_hints(cls)["pixels"])[1]
        if issubclass(pixel, Inputs):   # an ar_p pixel is the model itself
            models = {pid: pixel.of(m, feature_names, None, config) for pid, m in models.items()}
        return cls(dict(models), list(feature_names), stats)

    def validate(self):
        for pid, doc in self.pixels.items():
            where = f"pixels[{pid!r}] "
            for name, want in (("feature_names", self.feature_names), ("normalization", None)):
                if getattr(doc, name, want) != want:   # an ar_p pixel has neither
                    raise ValidationError(f"{where}field {name!r} must be {json.dumps(want)}")
            for name in ("include_lsm", "include_attributes"):
                if getattr(doc, name, None) is not None:
                    raise ValidationError(f"{where}field {name!r} belongs to the container only")
            _check_inputs(doc, len(self.feature_names), where)
        return self

    def model(self):
        return self.pixels


@dataclass
class NnPixels(PointPayload):
    pixels: dict[str, NnPayload]


@dataclass
class ArPixels(PointPayload):
    pixels: dict[str, ArModel]


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
    models = {pid: res[0] for pid, res in zip(pids, swept)
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
    ar = [models[pid] for pid in pids]
    mask = data.mask[ks, t0:t1]
    theta = np.where(mask, data.targets[ks, t0:t1], 0.0)
    p_warm = max([m.p for m in ar] + [1])
    warm = np.array([_ar_warmup(th, m, p_warm) for th, m in zip(theta, mask)])
    test = ar_forecast_batch(ar, data.inputs[ks, e0:e1], warm.reshape(-1, p_warm))
    return {"train": {pid: _ar_in_sample(m, th, mk, x) for pid, m, th, mk, x
                      in zip(pids, ar, theta, mask, data.inputs[ks, t0:t1])},
            "test": dict(zip(pids, test))}



@dataclass(frozen=True)
class ModelKind:
    fit: Callable
    predict: Callable
    payload: type   # the payload section
    point: bool = False
    flags: dict = field(default_factory=dict)   # report flags


def _fit_lasso(X, y, b, seed):
    return fit_lasso(X, y, lam=b.lasso_lambda)


def _fit_nn(point: bool):
    return lambda X, y, b, seed: fit_ffnn(
        X, y, hidden_size=b.ffnn_hidden_point if point else b.ffnn_hidden,
        l2=b.ffnn_l2, seed=seed, max_epochs=b.ffnn_epochs)



MODEL_KINDS = {
    "lstm": ModelKind(_fit_lstm, _predict_lstm, LstmPayload),
    "lasso": ModelKind(*_rows(_fit_lasso), LassoPayload),
    "lasso_p": ModelKind(*_rows(_fit_lasso, point=True), PointPayload, point=True),
    "ar_p": ModelKind(_fit_ar, _predict_ar, ArPixels, point=True,
                      flags={"optimistic_order_selection": True,
                             "exogenous_inputs_normalized": True}),
    "nn": ModelKind(*_rows(_fit_nn(False)), NnPayload),
    "nn_p": ModelKind(*_rows(_fit_nn(True), point=True), NnPixels, point=True),
}


def model_payload(kind: str, model, feature_names, stats: NormalizationStats | None,
                  config: TrainingConfig | None = None,
                  features: Features | None = None) -> dict:
    """The container payload of a fitted model, followed by the kind's flags
    and the fields of ``features``. An lstm echoes ``config``."""
    entry = MODEL_KINDS[kind]
    section = entry.payload.of(model, feature_names, stats, config)
    if entry.flags:
        section.flags = dict(entry.flags)
    if features:
        section = dataclasses.replace(section, **features.to_dict())
    return section.to_dict()


def predict_container(kind: str, payload: dict, dataset, split) -> dict:
    """Predictions of a loaded container's model on ``dataset``, normalized
    with the container's statistics and given the features it was trained
    on (an absent ``include_attributes`` reads as True)."""
    entry = MODEL_KINDS[kind]
    section = entry.payload.from_dict(payload, "model container")
    if section.normalization is None:
        raise DataError("model container lacks normalization statistics")
    data = prepare_sequences(apply_normalization(dataset, section.normalization), Features(
        section.include_lsm, section.include_attributes is not False))
    if data.feature_names != section.feature_names:
        raise ValidationError(f"dataset features {data.feature_names} do not match the "
                              f"model's {section.feature_names}")
    return entry.predict(section.model(), data, split)
