"""Classical comparison methods: lasso regression, AR with exogenous inputs,
and a one-hidden-layer feedforward network.

Each fit is a pure function of its inputs (plus a seed for the network), so
point-by-point fits across pixels can run independently. All three operate on
per-time-step feature rows; only the AR model carries state between steps.
Each rejects a NaN or inf in what it reads, naming the argument. The lasso
sweeps in Gram form, on d x d products formed once per fit.

The AR path has one closed-loop recursion, :func:`_lockstep`, which steps
every pixel of one order together; :func:`ar_forecast` is its one-pixel case.
The order sweep :func:`select_ar_orders` runs it once per order over all
pixels still in the sweep and returns each pixel's chosen model, whose
``order_rmse`` is its record of every order; :func:`select_ar_order` is its
one-pixel case.

The network keeps its parameters in one flat float64 vector, as the LSTM
does, steps it with the LSTM's optimizer, :func:`hlstm.training.adam_step`,
and like the LSTM computes its passes on a float32 copy.

A fitted model is also its container section (README "Model containers"),
``INPUTS`` naming its array with one entry per input column on the last axis.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import AnyFloat, Config, Matrix, Vector, diagnostic, optional
from .errors import ValidationError
from .lstm import make_rng
from .training import AdamState, adam_step

LASSO_LAMBDA_DEFAULT = 0.002   # tuned regularization weight for the linear model
FFNN_L2_DEFAULT = 0.002        # tuned L2 weight for the feedforward net
FFNN_HIDDEN_CONUS = 100        # shared-model hidden size
FFNN_HIDDEN_POINT = 30         # point-by-point hidden size
AR_MAX_ORDER = 5
FFNN_EPOCHS_DEFAULT = 400      # epoch cap of the experiment and CLI fits


@dataclass(frozen=True)
class BaselineSettings(Config):
    """The baselines' settings, named as in the "baselines" section of a
    training config."""

    lasso_lambda: float = LASSO_LAMBDA_DEFAULT
    ffnn_hidden: int = FFNN_HIDDEN_CONUS
    ffnn_hidden_point: int = FFNN_HIDDEN_POINT
    ffnn_l2: float = FFNN_L2_DEFAULT
    ffnn_epochs: int = FFNN_EPOCHS_DEFAULT
    ar_max_order: int = AR_MAX_ORDER

    def validate(self):
        for name, value in asdict(self).items():
            low = 0 if name in ("lasso_lambda", "ffnn_l2", "ar_max_order") else 1
            high = AR_MAX_ORDER if name == "ar_max_order" else float("inf")
            if not low <= value <= high:
                raise ValidationError(f"baselines.{name} must lie in [{low}, {high}], "
                                      f"got {value!r}")
        return self


@dataclass
class LassoModel(Config):
    beta0: float
    beta: Vector
    lam: float = field(metadata={"key": "lambda"})
    converged: bool
    n_sweeps: int = diagnostic(0)
    INPUTS = "beta"

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape[1] != self.beta.size:
            raise ValidationError(
                f"X has {X.shape[1]} columns, model expects {self.beta.size}")
        return self.beta0 + X @ self.beta


def _kkt_violation(c: np.ndarray, beta: np.ndarray, lam: float) -> float:
    """Largest violation of the lasso optimality conditions of the centered
    problem, given the residual correlations c = Xc.T @ resid / N:
    |c_j - lam*sign(b_j)| where b_j != 0, max(0, |c_j| - lam) where b_j == 0."""
    return float(np.max(np.where(beta != 0.0, np.abs(c - lam * np.sign(beta)),
                                 np.maximum(np.abs(c) - lam, 0.0)), initial=0.0))


def _check_finite(**arrays):
    """Raise ValidationError naming the first argument that holds a NaN or inf."""
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise ValidationError(f"NaN or inf in {name}")


def fit_lasso(X: np.ndarray, y: np.ndarray, lam: float,
              tol: float = 1e-10, max_sweeps: int = 10_000) -> LassoModel:
    """Minimize (1/2N)*sum((y - b0 - x.b)^2) + lam*l1(b) by cyclic coordinate
    descent with soft thresholding. The intercept is unpenalized.

    In Gram form (Friedman, Hastie & Tibshirani 2010), each coordinate update
    moves the residual correlations c = Xc.T @ resid / N by one column of
    G = Xc.T @ Xc / N, so a sweep costs O(d^2), not O(N*d).

    Converged when the largest KKT violation of the centered problem (see
    :func:`_kkt_violation`), on c recomputed from the true residual, drops
    below ``tol``: ``tol`` is in units of (1/N)*Xc_j.r. A small coefficient
    step alone certifies nothing when columns are correlated; it only gates
    the check, which runs after a sweep whose largest step is also below
    ``tol``. On unit-scale inputs the default makes the fit at lam=0 agree
    with ordinary least squares to 1e-8. The bound is absolute: a target far
    from unit scale needs a proportionally larger ``tol``, or rounding keeps
    the violation above it. Hitting ``max_sweeps`` first sets
    ``converged=False`` on the returned model instead of raising.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
        raise ValidationError(f"incompatible shapes X {X.shape}, y {y.shape}")
    N, d = X.shape
    if N < 2:
        raise ValidationError("need at least 2 samples")
    if lam < 0:
        raise ValidationError("lambda must be >= 0")
    _check_finite(X=X, y=y)

    x_mean, y_mean = X.mean(axis=0), y.mean()
    Xc, yc = X - x_mean, y - y_mean
    G = Xc.T @ Xc / N   # symmetric: row j is column j
    c = Xc.T @ yc / N
    beta, converged, sweep = np.zeros(d), False, 0
    for sweep in range(1, max_sweeps + 1):
        max_delta = 0.0
        for j in range(d):
            if G[j, j] == 0.0:
                continue
            old = beta[j]
            z = c[j] + G[j, j] * old   # partial residual correlation with coordinate j
            new = (z - lam if z > lam else z + lam if z < -lam else 0.0) / G[j, j]
            if new != old:
                c -= G[j] * (new - old)
                beta[j] = new
                max_delta = max(max_delta, abs(new - old))
        if max_delta < tol:
            c = Xc.T @ (yc - Xc @ beta) / N   # drops the updates' rounding drift
            if converged := _kkt_violation(c, beta, lam) < tol:
                break
    return LassoModel(beta0=float(y_mean - x_mean @ beta), beta=beta, lam=lam,
                      converged=converged, n_sweeps=sweep)


@dataclass
class ArModel(Config):
    """theta_t = c + sum_i alpha_i * theta_{t-i} + sum_k gamma_k * x_{k,t}"""

    c: float
    alpha: Vector
    gamma: Vector
    order_rmse: dict[str, AnyFloat] = optional(kw_only=True)   # set by the order sweep
    order: int   # p
    n_rows: int = diagnostic(0)
    INPUTS = "gamma"

    def validate(self):
        if self.order != self.alpha.size:
            raise ValidationError(f"field 'order' is {self.order}, not the "
                                  f"{self.alpha.size} lags of 'alpha'")
        return self

    @property
    def p(self) -> int:
        return self.alpha.size

    @property
    def r(self) -> int:
        return self.gamma.size


def _design_rows(mask: np.ndarray, p: int) -> np.ndarray:
    """Ascending times t >= p whose target and p lags are all observed."""
    if mask.size <= p:
        return np.zeros(0, dtype=np.intp)
    observed = sliding_window_view(mask, p + 1).all(axis=1)  # mask[t-p..t]
    return np.flatnonzero(observed) + p


def fit_ar(theta: np.ndarray, mask: np.ndarray, X_exog: np.ndarray | None,
           p: int, label: str = "") -> ArModel:
    """Least-squares AR(p) fit with exogenous inputs on the observed rows.

    A row at time t enters the fit only when the target and all p lags are
    observed; gaps are dropped, never interpolated. ``label`` names the pixel
    in error messages.
    """
    if not (0 <= p <= AR_MAX_ORDER):
        raise ValidationError(f"AR order must be in 0..{AR_MAX_ORDER}, got {p}")
    theta = np.asarray(theta, dtype=float)
    mask = np.asarray(mask).astype(bool)
    X_exog = np.zeros((theta.size, 0)) if X_exog is None else np.asarray(X_exog, dtype=float)
    _check_finite(theta=theta[mask], X_exog=X_exog)
    r = X_exog.shape[1]

    rows = _design_rows(mask, p)
    need = p + r + 2
    if rows.size < need:
        raise ValidationError(
            f"AR(p={p}) under-determined{_for_pixel(label)}: {rows.size} usable "
            f"rows, need {need}")
    A = np.empty((rows.size, 1 + p + r))
    A[:, 0] = 1.0
    A[:, 1:1 + p] = theta[rows[:, None] - np.arange(1, p + 1)]
    A[:, 1 + p:] = X_exog[rows]
    coef, *_ = np.linalg.lstsq(A, theta[rows], rcond=None)
    return ArModel(c=float(coef[0]), alpha=coef[1:1 + p], gamma=coef[1 + p:], order=p,
                   n_rows=int(rows.size))


def _for_pixel(label: str) -> str:
    return f" for pixel {label}" if label else ""


def _lockstep(models: list[ArModel], X_exog: np.ndarray,
              warmups: np.ndarray) -> np.ndarray:
    """The closed-loop recursion, all pixels of one order stepping together.

    X_exog is (n_pixels, T, r); warmups is (n_pixels, >= max p) with the
    newest value last. Returns (n_pixels, T).
    """
    n, T = X_exog.shape[:2]
    out = np.empty((n, T))
    for p in sorted({m.p for m in models}):
        idx = np.array([k for k, m in enumerate(models) if m.p == p])
        c = np.array([models[k].c for k in idx])
        # alpha[i - 1] holds every pixel's lag-i coefficient
        alpha = np.array([models[k].alpha for k in idx]).reshape(idx.size, p).T.copy()
        gamma = np.array([models[k].gamma for k in idx])
        exo = np.einsum("ntr,nr->nt", X_exog[idx], gamma) if gamma.size else np.zeros((idx.size, T))
        exo = np.ascontiguousarray(exo.T)
        # buf[p + t] holds step t; the first p rows are the warmup, oldest first
        buf = np.empty((p + T, idx.size))
        buf[:p] = warmups[idx, warmups.shape[1] - p:].T
        for t in range(T):
            val = c + exo[t]
            for i in range(1, p + 1):
                val = val + alpha[i - 1] * buf[p + t - i]
            buf[p + t] = val
        out[idx] = buf[p:].T
    return out


def ar_forecast(model: ArModel, X_exog: np.ndarray | None,
                warmup: np.ndarray, horizon: int | None = None) -> np.ndarray:
    """Closed-loop recursion over the forecast window.

    ``warmup`` holds the last p target values before the window; inside the
    window predictions feed back as the lag inputs and observations are never
    consulted. With no exogenous inputs pass ``horizon`` for the window
    length. One pixel of :func:`ar_forecast_batch`.
    """
    warmup = np.asarray(warmup, dtype=float)
    if X_exog is None:
        if model.r:
            raise ValidationError("model has exogenous terms but no inputs given")
        if horizon is None:
            raise ValidationError("horizon required when there are no exogenous inputs")
        X_exog = np.zeros((horizon, 0))
    X_exog = np.asarray(X_exog, dtype=float)
    _check_forecast_inputs([model], X_exog[None], warmup[None])
    return _lockstep([model], X_exog[None], warmup[None])[0]


def ar_forecast_batch(models: list[ArModel], X_exog: np.ndarray,
                      warmups: np.ndarray) -> np.ndarray:
    """Run many per-pixel closed-loop recursions in lockstep, grouped by
    order.

    X_exog is (n_pixels, T, r); warmups is (n_pixels, >= max p), newest value
    last. Returns (n_pixels, T); row k is ``ar_forecast(models[k], X_exog[k],
    warmups[k])``.
    """
    X_exog = np.asarray(X_exog, dtype=float)
    warmups = np.asarray(warmups, dtype=float)
    _check_forecast_inputs(models, X_exog, warmups)
    return _lockstep(models, X_exog, warmups)


def _check_forecast_inputs(models, X_exog, warmups):
    if X_exog.ndim != 3 or X_exog.shape[0] != len(models):
        raise ValidationError(
            f"X_exog shape {X_exog.shape} is not ({len(models)}, T, r)")
    widths = {m.r for m in models}
    if widths - {X_exog.shape[2]}:
        raise ValidationError(
            f"X_exog has {X_exog.shape[2]} columns, models expect {sorted(widths)}")
    p_max = max((m.p for m in models), default=0)
    if warmups.ndim != 2 or warmups.shape[0] != len(models) or warmups.shape[1] < p_max:
        raise ValidationError(
            f"warmup shape {warmups.shape} supplies fewer than p={p_max} values "
            f"for {len(models)} pixel(s)")


def select_ar_order(theta_fit, mask_fit, X_fit, theta_eval, mask_eval, X_eval,
                    warmup, p_max: int = AR_MAX_ORDER, label: str = ""):
    """One pixel of :func:`select_ar_orders`: returns (model, best_p,
    rmse_by_p), read off the model's ``order`` and ``order_rmse``, or raises
    the pixel's ValidationError."""
    (model,) = select_ar_orders([theta_fit], [mask_fit], [X_fit], [theta_eval],
                                [mask_eval], [X_eval], [warmup], p_max, [label])
    if isinstance(model, ValidationError):
        raise model
    return model, model.order, {int(p): v for p, v in model.order_rmse.items()}


def select_ar_orders(theta_fit, mask_fit, X_fit, theta_eval, mask_eval, X_eval,
                     warmups, p_max: int = AR_MAX_ORDER, labels=None) -> list:
    """Sweep orders 0..p_max for many pixels in lockstep and keep, per pixel,
    the order with the smallest forecast error over the evaluation window
    (closed loop, scored at observed steps).

    Argument k of each sequence belongs to pixel k: ``theta_fit``,
    ``mask_fit`` and ``X_fit`` are indexed per pixel and passed to
    :func:`fit_ar`; ``theta_eval`` and ``mask_eval`` are (n_pixels, T),
    ``X_eval`` is (n_pixels, T, r) and ``warmups`` (n_pixels, >= p_max).
    Only observed targets are read, so unobserved ones may hold anything.

    At each p the sweep fits every pixel still in it, one :func:`fit_ar`
    call per pixel, then runs one :func:`ar_forecast_batch` over the fitted
    pixels and scores them. A pixel stops at its first rejected order: a
    higher order keeps a subset of its rows and needs more of them, so it
    would be rejected too. The smallest order within 2% relative of the best
    wins, since closed-loop errors of over-parameterized orders differ only
    by estimation noise. Choosing the order on the evaluation series itself
    is optimistic; reports carry a flag for it.

    Returns one entry per pixel: the :class:`ArModel` at the chosen order,
    whose ``order_rmse`` records every order's score (inf from the first
    rejected one, and for an order whose forecast overflows), or the pixel's
    ValidationError.
    """
    n = len(theta_fit)
    labels = labels or [""] * n
    theta_eval = np.asarray(theta_eval, dtype=float)
    mask_eval = np.asarray(mask_eval).astype(bool)
    X_eval = np.asarray(X_eval, dtype=float)
    warmups = np.asarray(warmups, dtype=float)
    rmse_by_p = [{} for _ in range(n)]
    models = [{} for _ in range(n)]
    results = [None] * n
    active = []
    for k in range(n):
        if mask_eval[k].any():
            active.append(k)
        else:
            results[k] = ValidationError(
                f"no observed steps to score AR orders on{_for_pixel(labels[k])}")
    for p in range(p_max + 1):
        fitted = []
        for k in active:
            try:
                models[k][p] = fit_ar(theta_fit[k], mask_fit[k], X_fit[k], p,
                                      label=labels[k])
            except ValidationError:
                rmse_by_p[k].update((q, float("inf")) for q in range(p, p_max + 1))
                continue
            fitted.append(k)
        if not fitted:
            break
        with np.errstate(over="ignore", invalid="ignore"):   # an explosive order scores inf
            pred = ar_forecast_batch([models[k][p] for k in fitted], X_eval[fitted],
                                     warmups[fitted])
            for row, k in zip(pred, fitted):
                seen = mask_eval[k]
                err = row[seen] - theta_eval[k][seen]
                rmse = float(np.sqrt(np.mean(err * err)))
                rmse_by_p[k][p] = rmse if np.isfinite(rmse) else float("inf")
        active = fitted
    for k in range(n):
        if results[k] is not None:
            continue
        if not models[k]:
            results[k] = ValidationError(
                f"no AR order in 0..{p_max} could be fitted{_for_pixel(labels[k])}")
            continue
        floor = min(rmse_by_p[k].values())
        best_p = min(p for p in models[k] if rmse_by_p[k][p] <= floor * 1.02)
        results[k] = models[k][best_p]
        results[k].order_rmse = {str(p): v for p, v in rmse_by_p[k].items()}
    return results


@dataclass
class FfnnModel(Config):
    """One tan-sigmoid hidden layer with a linear scalar output."""

    W1: Matrix
    b1: Vector
    w2: Vector
    b2: float
    hidden_size: int
    l2: float
    degenerate: bool
    epochs_run: int = diagnostic(0)
    val_rmse: float = diagnostic(float("nan"))
    INPUTS = "W1"

    def validate(self):
        for name, rows in (("W1", len(self.W1)), ("b1", self.b1.size), ("w2", self.w2.size)):
            if rows != self.hidden_size:
                raise ValidationError(f"field {name!r} has {rows} rows, not the "
                                      f"{self.hidden_size} of 'hidden_size'")
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """w2 . tansig(W1 x + b1) + b2 per row; stateless across rows."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.W1.shape[1]:
            raise ValidationError(
                f"X shape {X.shape} does not match model input size {self.W1.shape[1]}")
        return np.tanh(X @ self.W1.T + self.b1) @ self.w2 + self.b2


def fit_ffnn(X: np.ndarray, y: np.ndarray, hidden_size: int,
             l2: float = FFNN_L2_DEFAULT, seed=0, val_fraction: float = 0.2,
             learning_rate: float = 0.01,
             max_epochs: int = 1000, patience: int = 20) -> FfnnModel:
    """Full-batch adaptive-moment training (one :func:`adam_step` per epoch)
    with L2 weight penalty and early stopping.

    A seeded shuffle carves off ``val_fraction`` of the rows; training stops
    after ``patience`` epochs without validation improvement and the best
    weights seen are restored.

    As in :func:`hlstm.training.train_lstm`, the parameters, Adam moments and
    model are float64, the passes run on a float32 copy of the parameters in
    buffers allocated once, and the gradient is widened for L2 and Adam.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.size:
        raise ValidationError(f"incompatible shapes X {X.shape}, y {y.shape}")
    N, d = X.shape
    if N < 10:
        raise ValidationError("need at least 10 samples")
    if hidden_size < 1:
        raise ValidationError("hidden_size must be >= 1")
    _check_finite(X=X, y=y)

    if np.ptp(y) == 0.0:
        # constant target: nothing for the hidden layer to do
        return FfnnModel(W1=np.zeros((hidden_size, d)), b1=np.zeros(hidden_size),
                         w2=np.zeros(hidden_size), b2=float(y[0]),
                         hidden_size=hidden_size, l2=l2, degenerate=True)

    # Train against a standardized target so the step size is scale-free;
    # the scale folds back into the output layer afterwards.
    y_mu, y_sd = float(y.mean()), float(y.std())
    ys = (y - y_mu) / y_sd

    rng = make_rng(seed)
    order = rng.permutation(N)
    n_val = max(1, int(round(val_fraction * N)))
    f32 = np.float32
    XT = X[order].T.astype(f32, order="C")   # feature-major: a row per input
    (Xv, Xt), (yv, yt) = np.split(XT, [n_val], axis=1), np.split(ys[order].astype(f32), [n_val])

    # W1, b1, w2 and b2 are views of one flat theta, and their gradients
    # views of one flat buffer, so that an epoch is one shared Adam step.
    sizes = np.cumsum([hidden_size * d, hidden_size, hidden_size])

    def views(flat):
        W1, b1, w2, b2 = np.split(flat, sizes)
        return W1.reshape(hidden_size, d), b1, w2, b2

    theta, grad = np.zeros(sizes[-1] + 1), np.empty(sizes[-1] + 1)
    (W1, b1, w2, b2), (dW1, _, dw2, _) = views(theta), views(grad)
    bound = 1.0 / np.sqrt(max(d, 1))
    W1[...] = rng.uniform(-bound, bound, size=W1.shape)
    w2[...] = rng.uniform(-1.0 / np.sqrt(hidden_size), 1.0 / np.sqrt(hidden_size),
                          size=hidden_size)
    b2[...] = ys[order[n_val:]].mean()

    # float32 theta, gradient and pass buffers, the latter (hidden, rows) as in the LSTM
    theta32, grad32 = theta.astype(f32), np.empty(theta.size, f32)
    (W1f, b1f, w2f, b2f), (dW1f, db1f, dw2f, db2f) = views(theta32), views(grad32)
    Hh, dH, Hv = (np.empty((hidden_size, x.shape[1]), f32) for x in (Xt, Xt, Xv))
    dpred, ev = np.empty(len(yt), f32), np.empty(n_val, f32)

    def residual(X, y, H, out):   # H = tanh(W1 @ X + b1), out = w2 @ H + b2 - y
        np.tanh(np.add(np.matmul(W1f, X, out=H), b1f[:, None], out=H), out=H)
        np.subtract(np.add(np.matmul(w2f, H, out=out), b2f, out=out), y, out=out)

    adam = AdamState(theta)
    decay = 2.0 * l2 / (W1.size + w2.size)   # of the mean-squared-weight penalty
    best_mse, best, since_best, epoch = np.inf, theta.copy(), 0, 0
    for epoch in range(1, max_epochs + 1):
        residual(Xt, yt, Hh, dpred)
        dpred *= 2.0 / len(yt)                     # d(mse)/dpred
        np.matmul(Hh, dpred, out=dw2f)
        db2f[0] = dpred.sum()
        np.subtract(1.0, np.multiply(Hh, Hh, out=dH), out=dH)
        dH *= w2f[:, None]
        dH *= dpred                                # (1 - Hh^2) * w2 * dpred
        np.matmul(dH, Xt.T, out=dW1f)
        np.sum(dH, axis=1, out=db1f)
        np.copyto(grad, grad32)
        dW1 += decay * W1
        dw2 += decay * w2
        adam_step(theta, grad, adam, learning_rate)

        np.copyto(theta32, theta)   # for the validation and the next epoch
        residual(Xv, yv, Hv, ev)
        val_mse = float(np.mean(np.square(ev, out=ev)))
        since_best += 1
        if val_mse < best_mse - 1e-12:
            best_mse, since_best = val_mse, 0
            np.copyto(best, theta)
        elif since_best >= patience:
            break

    W1, b1, w2, b2 = views(best)
    return FfnnModel(W1=W1, b1=b1, w2=w2 * y_sd, b2=float(b2[0] * y_sd + y_mu),
                     hidden_size=hidden_size, l2=l2, degenerate=False, epochs_run=epoch,
                     val_rmse=float(np.sqrt(best_mse)) * y_sd)
