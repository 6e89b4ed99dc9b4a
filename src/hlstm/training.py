"""Model inputs (:func:`prepare_sequences` alone lays out their channels, as
a :class:`Features` value selects), masked sequence loss, mini-batch
sampling over pixels, optimizers, and the LSTM training loop.

The loss for one instance over an unrolled window of length rho is

    L = (1/rho) * sum_t 1_obs(t) * (y_t - y*_t)^2

and a batch's loss is the mean over its instances. Only observed steps carry
gradient; unobserved steps contribute exactly zero.

One "epoch" here is one mini-batch update; history rows and the checkpoint
cadence count in that unit. The loop is the single writer to the weights;
batch members are evaluated together and reduced in fixed instance order, so
a (config, seed) pair fully determines the trained weights.

Precision is split as in master-weight mixed-precision training: each epoch
the forward pass and BPTT run on a float32 copy of the weights, and the
gradient is widened to float64 before the clip. The weights, the Adam
moments, the clip, checkpoints and every prediction stay float64.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .config import Config
from .dataset import GridDataset
from .errors import DegenerateBatchError, NumericError, ValidationError
from .lstm import (
    DropoutSpec,
    LstmWeights,
    bptt_gradients,
    forward_sequence,
    init_weights,
    make_rng,
    sample_dropout_masks,
)

OPTIMIZERS = ("sgd", "adaptive_moments")
LOSS_DIVISORS = ("rho", "observed")


@dataclass
class TrainingConfig(Config):
    hidden_size: int = 64
    unroll_length: int = 365
    batch_size: int = 100
    epochs: int = 500
    learning_rate: float = 0.001
    dropout: DropoutSpec = field(default_factory=lambda: DropoutSpec("recurrent_constant", 0.5))
    seed: int = 0
    optimizer: str = "adaptive_moments"
    gradient_clip_norm: float = 5.0
    # Eq-style divisor: window length ("rho") or per-instance observation
    # count ("observed"); the former is the paper-faithful default.
    loss_divisor: str = "rho"
    checkpoint_every: int = 50

    def validate(self):
        ints = ("hidden_size", "unroll_length", "batch_size", "epochs",
                "checkpoint_every")
        for name in ints:
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be positive")
        if self.learning_rate <= 0 or self.gradient_clip_norm <= 0:
            raise ValidationError("learning_rate and gradient_clip_norm must be positive")
        if self.optimizer not in OPTIMIZERS:
            raise ValidationError(f"optimizer must be one of {OPTIMIZERS}")
        if self.loss_divisor not in LOSS_DIVISORS:
            raise ValidationError(f"loss_divisor must be one of {LOSS_DIVISORS}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        self.dropout.validate()
        return self


@dataclass
class Features(Config):
    """Which inputs the models see: the "features" section of a train config,
    echoed in every model container. ``include_lsm`` None means "when the
    dataset has an lsm channel"; :func:`prepare_sequences` resolves it."""

    include_lsm: bool | None = None
    include_attributes: bool = True


@dataclass
class SequenceData:
    """Model-ready stacked arrays for a set of pixels sharing one date axis."""

    pixel_ids: list[str]
    inputs: np.ndarray    # (n_pixels, T, n_features)
    targets: np.ndarray   # (n_pixels, T), NaN where unobserved
    mask: np.ndarray      # (n_pixels, T) bool
    feature_names: list[str]
    features: Features = field(default_factory=Features)  # as prepare_sequences resolved it

    @property
    def n_pixels(self) -> int:
        return len(self.pixel_ids)

    @property
    def n_days(self) -> int:
        return self.inputs.shape[1]

    def subset(self, pixel_ids) -> "SequenceData":
        index = {pid: k for k, pid in enumerate(self.pixel_ids)}
        try:
            rows = [index[pid] for pid in pixel_ids]
        except KeyError as exc:
            raise ValidationError(f"unknown pixel id {exc.args[0]!r}") from exc
        sel = np.asarray(rows, dtype=int)
        return replace(self, pixel_ids=list(pixel_ids), inputs=self.inputs[sel],
                       targets=self.targets[sel], mask=self.mask[sel])


def prepare_sequences(dataset: GridDataset, features: Features | None = None,
                      **flags) -> SequenceData:
    """Stack the dataset's pixels into one (pixels, days, features) array:
    the forcings, then lsm, then the attributes along time, as ``features``
    (default ``Features()``; keywords such as ``include_lsm=False`` override
    its fields) selects."""
    features = replace(features or Features(), **flags)
    lsm = dataset.has_lsm if features.include_lsm is None else features.include_lsm
    if lsm and not dataset.has_lsm:
        raise ValidationError("dataset has no lsm channel")
    features = replace(features, include_lsm=lsm)
    nf = len(dataset.forcing_names)
    names = (dataset.forcing_names + ["lsm"] * lsm
             + dataset.attribute_names * features.include_attributes)
    inputs = np.empty((len(dataset.pixels), dataset.n_days, len(names)))
    for k, px in enumerate(dataset.pixels):
        inputs[k, :, :nf] = px.forcing
        if lsm:
            inputs[k, :, nf] = px.lsm
        if features.include_attributes:
            inputs[k, :, nf + lsm:] = px.attributes
    return SequenceData(pixel_ids=[px.pixel_id for px in dataset.pixels], inputs=inputs,
                        targets=np.array([px.target for px in dataset.pixels]),
                        mask=np.array([px.mask for px in dataset.pixels]),
                        feature_names=names, features=features)


@dataclass
class Batch:
    inputs: np.ndarray    # (batch, rho, n_features)
    targets: np.ndarray   # (batch, rho)
    mask: np.ndarray      # (batch, rho) float 0/1
    pixel_ids: list[str]
    starts: np.ndarray


def masked_loss(Y: np.ndarray, targets: np.ndarray, mask: np.ndarray,
                divisor: str = "rho"):
    """Observation-masked mean squared error and its gradient in Y.

    Y is (batch, rho, 1), targets and mask (batch, rho); the batch loss
    averages the per-instance losses, and the gradient is shaped like Y.
    Raises DegenerateBatchError when no step anywhere in the batch is observed.
    """
    Y = np.asarray(Y, dtype=float)
    targets = np.asarray(targets, dtype=float)
    mask = np.asarray(mask)
    if targets.ndim != 2 or Y.shape != targets.shape + (1,) or mask.shape != targets.shape:
        raise ValidationError(
            f"shape mismatch Y {Y.shape}, targets {targets.shape}, mask {mask.shape}")
    maskf = mask.astype(float)
    if not maskf.any():
        raise DegenerateBatchError("batch has no observed target steps")

    n_batch, rho = targets.shape
    diff = np.where(mask.astype(bool), Y[..., 0] - targets, 0.0)
    if divisor == "rho":
        denom = np.full(n_batch, float(rho))
    elif divisor == "observed":
        denom = np.maximum(maskf.sum(axis=1), 1.0)
    else:
        raise ValidationError(f"unknown loss divisor {divisor!r}")

    loss = float(((diff * diff).sum(axis=1) / denom).mean())
    return loss, (2.0 * diff / denom[:, None] / n_batch)[..., None]


def sample_batch(data: SequenceData, config: TrainingConfig, rng,
                 window: tuple[int, int] | None = None) -> Batch:
    """Uniformly sample batch_size pixels with replacement, each contributing
    a contiguous window of unroll_length days with a uniform start offset."""
    rng = make_rng(rng)
    if data.n_pixels < 1:
        raise ValidationError("no pixels to sample from")
    t0, t1 = window if window is not None else (0, data.n_days)
    span = t1 - t0
    rho = config.unroll_length
    if rho > span:
        raise ValidationError(
            f"unroll_length {rho} exceeds the {span}-day sampling window")
    pix = rng.integers(0, data.n_pixels, size=config.batch_size)
    starts = t0 + rng.integers(0, span - rho + 1, size=config.batch_size)
    windows = pix[:, None], starts[:, None] + np.arange(rho)
    inputs, targets, mask = data.inputs[windows], data.targets[windows], data.mask[windows]
    return Batch(inputs=inputs, targets=np.where(mask, targets, 0.0),
                 mask=mask.astype(float), pixel_ids=[data.pixel_ids[p] for p in pix],
                 starts=starts)


def clip_gradients(grads: LstmWeights, max_norm: float) -> float:
    """Scale the gradients in place so their global norm is at most
    max_norm; returns the pre-clip norm. A norm that is not finite raises
    NumericError before anything is scaled, naming the first array that
    holds a NaN or inf."""
    norm = float(np.sqrt(grads.theta @ grads.theta))
    if not math.isfinite(norm):
        bad = next((name for name, arr in grads.named_arrays()
                    if not np.all(np.isfinite(arr))), None)
        raise NumericError(
            f"non-finite gradient norm {norm}"
            + (f"; first non-finite array {bad}" if bad else ""))
    if norm > max_norm:
        grads.theta *= max_norm / norm
    return norm


class AdamState:
    """First and second moment estimates, laid out like ``theta``, and the step count."""

    def __init__(self, theta: np.ndarray):
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)
        self.t = 0


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState,
              lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8):
    """One adaptive-moment update, in place, of the flat parameter vector
    ``theta`` and of ``state``'s moments, from the flat gradient ``grad``."""
    state.t += 1
    c1, c2 = 1.0 - beta1 ** state.t, 1.0 - beta2 ** state.t
    state.m *= beta1
    state.m += (1 - beta1) * grad
    state.v *= beta2
    state.v += (1 - beta2) * grad * grad
    theta -= lr * (state.m / c1) / (np.sqrt(state.v / c2) + eps)


def sgd_step(theta: np.ndarray, grad: np.ndarray, lr: float):
    theta -= lr * grad


def train_lstm(data: SequenceData, config: TrainingConfig,
               window: tuple[int, int] | None = None, checkpoint=None):
    """Run the full training loop; returns (weights, history).

    ``window`` restricts sampling to [t0, t1) on the time axis. History rows
    are dicts of epoch, loss, the gradient norm before clipping, whether it
    was clipped, and cumulative wall seconds. When given,
    ``checkpoint(epoch, weights)`` is called every ``checkpoint_every``
    epochs.
    """
    config.validate()
    n_features = data.inputs.shape[2]
    if len(data.feature_names) != n_features:
        raise ValidationError("feature name list does not match input width")

    w = init_weights(n_features, config.hidden_size, 1, seed=config.seed)
    batch_rng = make_rng([config.seed, 1])
    dropout_rng = make_rng([config.seed, 2])
    adam = AdamState(w.theta) if config.optimizer == "adaptive_moments" else None

    history = []
    started = time.perf_counter()
    cache = None

    for epoch in range(1, config.epochs + 1):
        batch = None
        for _ in range(20):  # degenerate batches are resampled
            candidate = sample_batch(data, config, batch_rng, window=window)
            if candidate.mask.any():
                batch = candidate
                break
        if batch is None:
            raise DegenerateBatchError(
                "20 consecutive batches carried no observed targets")

        masks = sample_dropout_masks(
            config.dropout, n_features, config.hidden_size,
            config.unroll_length, dropout_rng, batch=config.batch_size)
        # The float32 compute copy of the float64 master weights.
        w32 = w.astype(np.float32)
        # Each epoch overwrites the previous one's input, gate and cell-state
        # buffers: two caches would double the peak, and a fresh 47 MB cache
        # (batch 100, hidden 64) took 200-700 page faults, up to 13 ms a pass.
        Y, cache = forward_sequence(w32, batch.inputs, masks=masks, reuse=cache)
        loss, dY = masked_loss(Y, batch.targets, batch.mask,
                               divisor=config.loss_divisor)
        if not np.isfinite(loss):
            raise NumericError(
                f"non-finite loss at epoch {epoch}; batch pixels "
                f"{batch.pixel_ids[:5]}{'...' if len(batch.pixel_ids) > 5 else ''}")
        # The cache holds its float32 copy of the inputs; BPTT needs no batch.
        del batch, candidate
        grads = bptt_gradients(w32, cache, dY).astype(float)
        grad_norm = clip_gradients(grads, config.gradient_clip_norm)
        if adam is not None:
            adam_step(w.theta, grads.theta, adam, config.learning_rate)
        else:
            sgd_step(w.theta, grads.theta, config.learning_rate)

        history.append({"epoch": epoch, "loss": loss, "grad_norm": grad_norm,
                        "clipped": grad_norm > config.gradient_clip_norm,
                        "seconds": time.perf_counter() - started})
        if checkpoint is not None and epoch % config.checkpoint_every == 0:
            checkpoint(epoch, w)

    return w, history


def write_history_csv(history, path: str):
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "grad_norm", "clipped", "seconds"])
        for row in history:
            writer.writerow([row["epoch"], format(row["loss"], ".17g"),
                             format(row["grad_norm"], ".17g"), int(row["clipped"]),
                             format(row["seconds"], ".3f")])
