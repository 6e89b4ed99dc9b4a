"""Classical comparison methods: lasso regression, AR with exogenous inputs,
and a one-hidden-layer feedforward network.

Each fit is a pure function of its inputs (plus a seed for the network), so
point-by-point fits across pixels can run independently. All three operate on
per-time-step feature rows; only the AR model carries state between steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .lstm import make_rng

LASSO_LAMBDA_DEFAULT = 0.002   # tuned regularization weight for the linear model
FFNN_L2_DEFAULT = 0.002        # tuned L2 weight for the feedforward net
FFNN_HIDDEN_CONUS = 100        # shared-model hidden size
FFNN_HIDDEN_POINT = 30         # point-by-point hidden size
AR_MAX_ORDER = 5


@dataclass
class LassoModel:
    beta0: float
    beta: np.ndarray
    lam: float
    converged: bool = True
    n_sweeps: int = 0

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape[1] != self.beta.size:
            raise ValidationError(
                f"X has {X.shape[1]} columns, model expects {self.beta.size}")
        return self.beta0 + X @ self.beta


def _soft_threshold(z: float, lam: float) -> float:
    if z > lam:
        return z - lam
    if z < -lam:
        return z + lam
    return 0.0


def _kkt_violation(Xc: np.ndarray, resid: np.ndarray, beta: np.ndarray,
                   lam: float) -> float:
    """Largest violation of the lasso optimality conditions of the centered
    problem, with c = Xc.T @ resid / N: |c_j - lam*sign(b_j)| where b_j != 0,
    max(0, |c_j| - lam) where b_j == 0."""
    c = Xc.T @ resid / Xc.shape[0]
    v = np.where(beta != 0.0, np.abs(c - lam * np.sign(beta)),
                 np.maximum(np.abs(c) - lam, 0.0))
    return float(np.max(v, initial=0.0))


def fit_lasso(X: np.ndarray, y: np.ndarray, lam: float,
              tol: float = 1e-10, max_sweeps: int = 10_000) -> LassoModel:
    """Minimize (1/2N)*sum((y - b0 - x.b)^2) + lam*l1(b) by cyclic coordinate
    descent with soft thresholding. The intercept is unpenalized.

    Converged when the largest KKT violation of the centered problem (see
    :func:`_kkt_violation`) drops below ``tol``, so ``tol`` is in units of
    (1/N)*Xc_j.r, the residual correlation of a centered column. A small
    coefficient step alone certifies nothing when columns are correlated;
    it only gates the check, which runs after a sweep whose largest step is
    also below ``tol``. On unit-scale inputs the default makes the fit at
    lam=0 agree with ordinary least squares to 1e-8. The bound is absolute:
    a target far from unit scale needs a proportionally larger ``tol``, or
    rounding keeps the violation above it. Hitting ``max_sweeps`` first sets
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
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValidationError("NaN or inf in lasso inputs")

    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    yc = y - y_mean
    col_sq = (Xc * Xc).sum(axis=0) / N

    beta = np.zeros(d)
    resid = yc.copy()
    converged = False
    sweep = 0
    for sweep in range(1, max_sweeps + 1):
        max_delta = 0.0
        for j in range(d):
            if col_sq[j] == 0.0:
                continue
            old = beta[j]
            # partial residual correlation with coordinate j
            z = (Xc[:, j] @ resid) / N + col_sq[j] * old
            new = _soft_threshold(z, lam) / col_sq[j]
            if new != old:
                resid -= Xc[:, j] * (new - old)
                beta[j] = new
                max_delta = max(max_delta, abs(new - old))
        if max_delta < tol and _kkt_violation(Xc, resid, beta, lam) < tol:
            converged = True
            break

    beta0 = y_mean - x_mean @ beta
    return LassoModel(beta0=float(beta0), beta=beta, lam=lam,
                      converged=converged, n_sweeps=sweep)


@dataclass
class ArModel:
    """theta_t = c + sum_i alpha_i * theta_{t-i} + sum_k gamma_k * x_{k,t}"""

    c: float
    alpha: np.ndarray
    gamma: np.ndarray
    n_rows: int = 0

    @property
    def p(self) -> int:
        return self.alpha.size

    @property
    def r(self) -> int:
        return self.gamma.size


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
    T = theta.size
    if X_exog is None:
        X_exog = np.zeros((T, 0))
    X_exog = np.asarray(X_exog, dtype=float)
    r = X_exog.shape[1]

    rows = []
    targets = []
    for t in range(p, T):
        if not mask[t]:
            continue
        if p and not mask[t - p:t].all():
            continue
        lags = [theta[t - i] for i in range(1, p + 1)]
        rows.append(np.concatenate([[1.0], lags, X_exog[t]]))
        targets.append(theta[t])
    need = p + r + 2
    if len(rows) < need:
        where = f" for pixel {label}" if label else ""
        raise ValidationError(
            f"AR(p={p}) under-determined{where}: {len(rows)} usable rows, need {need}")
    A = np.asarray(rows)
    b = np.asarray(targets)
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    return ArModel(c=float(coef[0]), alpha=coef[1:1 + p], gamma=coef[1 + p:],
                   n_rows=len(rows))


def ar_forecast(model: ArModel, X_exog: np.ndarray | None,
                warmup: np.ndarray, horizon: int | None = None) -> np.ndarray:
    """Closed-loop recursion over the forecast window.

    ``warmup`` holds the last p target values before the window; inside the
    window predictions feed back as the lag inputs and observations are never
    consulted. With no exogenous inputs pass ``horizon`` for the window
    length.
    """
    p = model.p
    warmup = np.asarray(warmup, dtype=float)
    if warmup.size < p:
        raise ValidationError(f"warmup supplies {warmup.size} values, need p={p}")
    if X_exog is None:
        if model.r:
            raise ValidationError("model has exogenous terms but no inputs given")
        if horizon is None:
            raise ValidationError("horizon required when there are no exogenous inputs")
        T = horizon
    else:
        X_exog = np.asarray(X_exog, dtype=float)
        T = X_exog.shape[0]
        if X_exog.shape[1] != model.r:
            raise ValidationError(
                f"X_exog has {X_exog.shape[1]} columns, model expects {model.r}")

    hist = list(warmup[-p:]) if p else []
    out = np.empty(T)
    for t in range(T):
        val = model.c + (X_exog[t] @ model.gamma if model.r else 0.0)
        for i in range(1, p + 1):
            val += model.alpha[i - 1] * hist[-i]
        out[t] = val
        if p:
            hist.append(val)
    return out


def select_ar_order(theta_fit, mask_fit, X_fit, theta_eval, mask_eval, X_eval,
                    warmup, p_max: int = AR_MAX_ORDER, label: str = ""):
    """Sweep orders 0..p_max and keep the one with the smallest forecast error
    over the evaluation window (closed loop, scored at observed steps).

    Returns (model, best_p, rmse_by_p); orders that cannot be fitted are
    recorded as inf. The sweep stops at the first order ``fit_ar`` rejects:
    a higher order keeps a subset of its rows and needs more of them, so it
    would be rejected too. Ties are broken toward parsimony: the smallest
    order within 2% relative of the minimum wins, since closed-loop errors
    of over-parameterized orders differ only by estimation noise. Note this
    protocol picks the order on the evaluation series itself, which is
    optimistic; reports carry a flag for it.
    """
    mask_eval = np.asarray(mask_eval).astype(bool)
    theta_eval = np.asarray(theta_eval, dtype=float)
    if not mask_eval.any():
        raise ValidationError(f"no observed steps to score AR orders on{' for pixel ' + label if label else ''}")
    horizon = theta_eval.size
    rmse_by_p = {}
    models = {}
    for p in range(p_max + 1):
        try:
            model = fit_ar(theta_fit, mask_fit, X_fit, p, label=label)
        except ValidationError:
            rmse_by_p.update((q, float("inf")) for q in range(p, p_max + 1))
            break
        pred = ar_forecast(model, X_eval, warmup, horizon=horizon)
        err = pred[mask_eval] - theta_eval[mask_eval]
        rmse_by_p[p] = float(np.sqrt(np.mean(err * err)))
        models[p] = model
    if not models:
        where = f" for pixel {label}" if label else ""
        raise ValidationError(f"no AR order in 0..{p_max} could be fitted{where}")
    floor = min(rmse_by_p.values())
    best_p = min(p for p in models if rmse_by_p[p] <= floor * 1.02)
    return models[best_p], best_p, rmse_by_p


def ar_forecast_batch(models: list[ArModel], X_exog: np.ndarray,
                      warmups: np.ndarray) -> np.ndarray:
    """Run many per-pixel recursions in lockstep, grouped by order.

    X_exog is (n_pixels, T, r); warmups is (n_pixels, max_p). Returns
    (n_pixels, T). Equivalent to calling :func:`ar_forecast` per pixel.
    """
    n = len(models)
    T = X_exog.shape[1]
    out = np.empty((n, T))
    orders = sorted({m.p for m in models})
    for p in orders:
        idx = np.array([k for k, m in enumerate(models) if m.p == p])
        c = np.array([models[k].c for k in idx])
        alpha = np.array([models[k].alpha for k in idx]) if p else np.zeros((idx.size, 0))
        gamma = np.array([models[k].gamma for k in idx])
        exo = np.einsum("ntr,nr->nt", X_exog[idx], gamma) if gamma.size else np.zeros((idx.size, T))
        hist = [warmups[idx, -i] for i in range(p, 0, -1)]  # oldest first
        block = np.empty((idx.size, T))
        for t in range(T):
            val = c + exo[:, t]
            for i in range(1, p + 1):
                val = val + alpha[:, i - 1] * hist[-i]
            block[:, t] = val
            if p:
                hist.append(val)
        out[idx] = block
    return out


@dataclass
class FfnnModel:
    """One tan-sigmoid hidden layer with a linear scalar output."""

    W1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float
    hidden_size: int
    l2: float
    degenerate: bool = False
    epochs_run: int = 0
    val_rmse: float = float("nan")


def ffnn_predict(model: FfnnModel, X: np.ndarray) -> np.ndarray:
    """w2 . tansig(W1 x + b1) + b2 per row; stateless across rows."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.W1.shape[1]:
        raise ValidationError(
            f"X shape {X.shape} does not match model input size {model.W1.shape[1]}")
    return np.tanh(X @ model.W1.T + model.b1) @ model.w2 + model.b2


def fit_ffnn(X: np.ndarray, y: np.ndarray, hidden_size: int,
             l2: float = FFNN_L2_DEFAULT, seed=0, val_fraction: float = 0.2,
             learning_rate: float = 0.01,
             max_epochs: int = 1000, patience: int = 20) -> FfnnModel:
    """Full-batch adaptive-moment training with L2 weight penalty and early
    stopping.

    A seeded shuffle carves off ``val_fraction`` of the rows; training stops
    after ``patience`` epochs without validation improvement and the best
    weights seen are restored.
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
    val_idx, tr_idx = order[:n_val], order[n_val:]
    Xt, yt = X[tr_idx], ys[tr_idx]
    Xv, yv = X[val_idx], ys[val_idx]
    n_tr = Xt.shape[0]

    bound = 1.0 / np.sqrt(max(d, 1))
    W1 = rng.uniform(-bound, bound, size=(hidden_size, d))
    b1 = np.zeros(hidden_size)
    w2 = rng.uniform(-1.0 / np.sqrt(hidden_size), 1.0 / np.sqrt(hidden_size), size=hidden_size)
    b2 = float(yt.mean())

    params = [W1, b1, w2, np.array([b2])]
    m_acc = [np.zeros_like(p) for p in params]
    v_acc = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    n_weights = W1.size + w2.size
    best = (np.inf, W1.copy(), b1.copy(), w2.copy(), b2, 0)
    since_best = 0
    epoch = 0
    for epoch in range(1, max_epochs + 1):
        W1, b1, w2 = params[0], params[1], params[2]
        b2 = params[3][0]
        A = Xt @ W1.T + b1
        Hh = np.tanh(A)
        pred = Hh @ w2 + b2
        err = pred - yt
        # d(mse)/dpred, plus mean-squared-weight penalty on W1 and w2
        dpred = (2.0 / n_tr) * err
        dw2 = Hh.T @ dpred + (2.0 * l2 / n_weights) * w2
        db2 = dpred.sum()
        dH = np.outer(dpred, w2) * (1.0 - Hh * Hh)
        dW1 = dH.T @ Xt + (2.0 * l2 / n_weights) * W1
        db1 = dH.sum(axis=0)

        grads = [dW1, db1, dw2, np.array([db2])]
        corr1 = 1.0 - beta1 ** epoch
        corr2 = 1.0 - beta2 ** epoch
        for k in range(4):
            m_acc[k] = beta1 * m_acc[k] + (1 - beta1) * grads[k]
            v_acc[k] = beta2 * v_acc[k] + (1 - beta2) * grads[k] * grads[k]
            step = learning_rate * (m_acc[k] / corr1) / (np.sqrt(v_acc[k] / corr2) + eps)
            params[k] = params[k] - step
        W1, b1, w2 = params[0], params[1], params[2]
        b2 = params[3][0]

        val_pred = np.tanh(Xv @ W1.T + b1) @ w2 + b2
        val_mse = float(np.mean((val_pred - yv) ** 2))
        if val_mse < best[0] - 1e-12:
            best = (val_mse, W1.copy(), b1.copy(), w2.copy(), b2, epoch)
            since_best = 0
        else:
            since_best += 1
            if since_best >= patience:
                break

    val_mse_best, W1, b1, w2, b2, _ = best
    return FfnnModel(W1=W1, b1=b1, w2=w2 * y_sd, b2=float(b2 * y_sd + y_mu),
                     hidden_size=hidden_size, l2=l2, epochs_run=epoch,
                     val_rmse=float(np.sqrt(val_mse_best)) * y_sd)
