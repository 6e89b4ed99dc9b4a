"""Independent reference implementations used to pin expected test values.

Everything here is deliberately scalar / brute force and shares no code with
the package under test.
"""

import csv
import math
from types import SimpleNamespace

import numpy as np


def scalar_sigmoid(z):
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def scalar_lstm_sequence(w, X, h0=None, s0=None, x_masks=None, h_mask=None, g_masks=None):
    """Straight-line scalar evaluation of the cell equations over a sequence.

    w is an LstmWeights-like object whose named_arrays() yields the per-gate
    arrays (W_gx ... b_y); X is (rho, input).
    Masks, when given, are plain lists/arrays of the same shapes the package
    uses. Returns the (rho, output) outputs as a list of lists.
    """
    H, F, O = w.hidden_size, w.input_size, w.output_size
    w = SimpleNamespace(**dict(w.named_arrays()))
    h = list(h0) if h0 is not None else [0.0] * H
    s = list(s0) if s0 is not None else [0.0] * H
    ys = []
    for t in range(len(X)):
        x = [float(v) for v in X[t]]
        if x_masks is not None:
            x = [x[k] * x_masks[t][k] for k in range(F)]
        hd = list(h)
        if h_mask is not None:
            hd = [h[j] * h_mask[j] for j in range(H)]
        g = [0.0] * H
        i = [0.0] * H
        f = [0.0] * H
        o = [0.0] * H
        for j in range(H):
            a_g = w.b_g[j]
            a_i = w.b_i[j]
            a_f = w.b_f[j]
            a_o = w.b_o[j]
            for k in range(F):
                a_g += w.W_gx[j][k] * x[k]
                a_i += w.W_ix[j][k] * x[k]
                a_f += w.W_fx[j][k] * x[k]
                a_o += w.W_ox[j][k] * x[k]
            for k in range(H):
                a_g += w.W_gh[j][k] * hd[k]
                a_i += w.W_ih[j][k] * hd[k]
                a_f += w.W_fh[j][k] * hd[k]
                a_o += w.W_oh[j][k] * hd[k]
            g[j] = math.tanh(a_g)
            i[j] = scalar_sigmoid(a_i)
            f[j] = scalar_sigmoid(a_f)
            o[j] = scalar_sigmoid(a_o)
        s_new = [0.0] * H
        h_new = [0.0] * H
        for j in range(H):
            gj = g[j] * (g_masks[t][j] if g_masks is not None else 1.0)
            s_new[j] = gj * i[j] + s[j] * f[j]
            h_new[j] = math.tanh(s_new[j]) * o[j]
        s, h = s_new, h_new
        y = []
        for m in range(O):
            acc = w.b_y[m]
            for j in range(H):
                acc += w.W_hy[m][j] * h[j]
            y.append(acc)
        ys.append(y)
    return ys


def central_difference_gradients(loss_fn, weights, step=1e-5):
    """Central finite differences of loss_fn over every entry of every array.

    weights is an LstmWeights-like container with named_arrays(); loss_fn takes
    the container and returns a scalar. Returns {name: gradient array}.
    """
    grads = {}
    for name, arr in weights.named_arrays():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            up = loss_fn(weights)
            flat[idx] = orig - step
            down = loss_fn(weights)
            flat[idx] = orig
            gflat[idx] = (up - down) / (2.0 * step)
        grads[name] = g
    return grads


def max_relative_gradient_error(analytic, numeric, tiny=1e-7):
    """Worst relative disagreement; entries where both sides are below ``tiny``
    are compared absolutely (relative error is meaningless there)."""
    worst = 0.0
    for name, num in numeric.items():
        ana = analytic[name]
        for a, n in zip(np.ravel(ana), np.ravel(num)):
            scale = max(abs(a), abs(n))
            if scale < tiny:
                continue
            worst = max(worst, abs(a - n) / scale)
    return worst


def rebinding_adam_step(theta, grad, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The adaptive-moment step with each moment formed as a new array and
    rebound to ``state``; ``theta`` is updated in place."""
    state.t += 1
    c1 = 1.0 - beta1 ** state.t
    c2 = 1.0 - beta2 ** state.t
    m = state.m = beta1 * state.m + (1 - beta1) * grad
    v = state.v = beta2 * state.v + (1 - beta2) * grad * grad
    theta -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def ols_fit(X, y):
    """Normal-equation least squares with intercept; returns (beta0, beta)."""
    N = X.shape[0]
    A = np.column_stack([np.ones(N), X])
    coef = np.linalg.solve(A.T @ A, A.T @ y)
    return coef[0], coef[1:]


def residual_lasso_fit(X, y, lam, tol=1e-10, max_sweeps=10_000):
    """Cyclic coordinate descent for the lasso ``fit_lasso`` documents, in
    residual form: each coordinate update takes a dot with the full residual
    and moves it by one column. Same stop rule: after a sweep whose largest
    step is below ``tol``, the largest KKT violation must be below ``tol``.
    Returns (beta0, beta, converged, n_sweeps)."""
    N, d = X.shape
    x_mean, y_mean = X.mean(axis=0), y.mean()
    Xc, resid = X - x_mean, y - y_mean
    col_sq = (Xc * Xc).sum(axis=0) / N
    beta = np.zeros(d)
    converged, sweep = False, 0
    for sweep in range(1, max_sweeps + 1):
        max_delta = 0.0
        for j in range(d):
            if col_sq[j] == 0.0:
                continue
            old = beta[j]
            z = (Xc[:, j] @ resid) / N + col_sq[j] * old
            new = math.copysign(max(abs(z) - lam, 0.0), z) / col_sq[j]
            if new != old:
                resid -= Xc[:, j] * (new - old)
                beta[j] = new
                max_delta = max(max_delta, abs(new - old))
        if max_delta < tol:
            c = Xc.T @ resid / N
            kkt = np.where(beta != 0.0, np.abs(c - lam * np.sign(beta)),
                           np.maximum(np.abs(c) - lam, 0.0))
            if kkt.max() < tol:
                converged = True
                break
    return y_mean - x_mean @ beta, beta, converged, sweep


def pearson_r_brute(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    am, bm = a - a.mean(), b - b.mean()
    denom = math.sqrt((am * am).sum() * (bm * bm).sum())
    return float((am * bm).sum() / denom)


def loop_ar_design(theta, mask, X_exog, p):
    """Row-by-row AR(p) design: for each t >= p whose target and p lags are
    all observed, the row [1, theta_{t-1}, ..., theta_{t-p}, x_t] and the
    target theta_t. Returns (A, b)."""
    rows, targets = [], []
    for t in range(p, len(theta)):
        if not mask[t] or not all(mask[t - i] for i in range(1, p + 1)):
            continue
        rows.append(np.concatenate([[1.0], [theta[t - i] for i in range(1, p + 1)],
                                    X_exog[t]]))
        targets.append(theta[t])
    return np.asarray(rows), np.asarray(targets)


def scalar_ar_forecast(c, alpha, gamma, X_exog, warmup, horizon):
    """Closed-loop AR recursion one step and one term at a time: predictions
    feed back as lags; warmup holds the values before the window, newest
    last."""
    hist = [float(v) for v in warmup[len(warmup) - len(alpha):]]
    out = []
    for t in range(horizon):
        val = c
        for k in range(len(gamma)):
            val += gamma[k] * X_exog[t][k]
        for i in range(1, len(alpha) + 1):
            val += alpha[i - 1] * hist[-i]
        out.append(val)
        hist.append(val)
    return out


def scalar_ar_in_sample(c, alpha, gamma, theta, mask, X_exog):
    """One-step-ahead AR predictions with lags read from observations; a lag
    that is unobserved or before the series reads the observed mean."""
    observed = [theta[t] for t in range(len(theta)) if mask[t]]
    mean = sum(observed) / len(observed)
    out = []
    for t in range(len(theta)):
        val = c
        for k in range(len(gamma)):
            val += gamma[k] * X_exog[t][k]
        for i in range(1, len(alpha) + 1):
            val += alpha[i - 1] * (theta[t - i] if t - i >= 0 and mask[t - i] else mean)
        out.append(val)
    return out


def scalar_bucket(precip, et_demand, porosity, residual, infiltration,
                  drainage_coef, drainage_exp, depth_mm, theta0=None):
    """Daily bucket water balance one pixel and one day at a time, with the
    drainage power taken by Python's ``**``."""
    theta = np.empty(len(precip))
    x = 0.5 * (residual + porosity) if theta0 is None else theta0
    for t in range(len(precip)):
        theta[t] = x
        flux = infiltration * precip[t] - et_demand[t] * x \
            - drainage_coef * x ** drainage_exp
        x = min(max(x + flux / depth_mm, residual), porosity)
    return theta


def loop_save_series(path, dates, forcing_names, forcing, target, mask,
                     lsm=None, truth=None):
    """One pixel CSV written a cell at a time through ``csv.writer``:
    header date,target[,lsm][,truth],<forcings>, 17 significant digits,
    an empty target cell where unobserved."""
    fmt = lambda x: format(float(x), ".17g")  # noqa: E731
    header = ["date", "target"]
    if lsm is not None:
        header.append("lsm")
    if truth is not None:
        header.append("truth")
    header.extend(forcing_names)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, day in enumerate(dates):
            row = [day.isoformat(), fmt(target[t]) if mask[t] else ""]
            if lsm is not None:
                row.append(fmt(lsm[t]))
            if truth is not None:
                row.append(fmt(truth[t]))
            row.extend(fmt(v) for v in forcing[t])
            writer.writerow(row)


def four_array_ffnn_fit(X, y, hidden_size, l2, seed, val_fraction=0.2,
                        learning_rate=0.01, max_epochs=1000, patience=20):
    """Full-batch fit of the one-hidden-layer tansig net with an Adam loop of
    its own over the four parameter arrays W1, b1, w2 and b2, each with its
    own moment arrays; the seeded split, initialization, L2 penalty and
    early stop are those ``fit_ffnn`` documents. The parameters and moments
    are float64; each pass computes on a float32 copy of them, feature-major
    (hidden, rows), allocating as it goes, and its gradients are widened to
    float64 before the L2 term. Returns a dict of W1, b1, w2 (rescaled), b2,
    epochs_run, val_rmse and degenerate."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    N, d = X.shape
    if np.ptp(y) == 0.0:
        return dict(W1=np.zeros((hidden_size, d)), b1=np.zeros(hidden_size),
                    w2=np.zeros(hidden_size), b2=float(y[0]), epochs_run=0,
                    val_rmse=float("nan"), degenerate=True)
    y_mu, y_sd = float(y.mean()), float(y.std())
    ys = (y - y_mu) / y_sd
    rng = np.random.default_rng(seed)
    order = rng.permutation(N)
    n_val = max(1, int(round(val_fraction * N)))
    val_idx, tr_idx = order[:n_val], order[n_val:]
    f32 = np.float32
    XT = X[order].T.astype(f32, order="C")   # feature-major: (input, rows)
    XtT, yt = XT[:, n_val:], ys[tr_idx].astype(f32)
    XvT, yv = XT[:, :n_val], ys[val_idx].astype(f32)
    n_tr = yt.size

    bound = 1.0 / np.sqrt(max(d, 1))
    W1 = rng.uniform(-bound, bound, size=(hidden_size, d))
    b1 = np.zeros(hidden_size)
    w2 = rng.uniform(-1.0 / np.sqrt(hidden_size), 1.0 / np.sqrt(hidden_size), size=hidden_size)
    b2 = float(ys[tr_idx].mean())

    params = [W1, b1, w2, np.array([b2])]
    m_acc = [np.zeros_like(p) for p in params]
    v_acc = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    n_weights = W1.size + w2.size
    best = (np.inf, W1.copy(), b1.copy(), w2.copy(), b2)
    since_best = 0
    epoch = 0
    for epoch in range(1, max_epochs + 1):
        W1, b1, w2, b2 = (p.astype(f32) for p in params)
        Hh = np.tanh(W1 @ XtT + b1[:, None])      # (hidden, rows)
        err = w2 @ Hh + b2 - yt
        dpred = (2.0 / n_tr) * err
        dH = (1.0 - Hh * Hh) * w2[:, None] * dpred
        grads = [(dH @ XtT.T).astype(float) + (2.0 * l2 / n_weights) * params[0],
                 dH.sum(axis=1).astype(float),
                 (Hh @ dpred).astype(float) + (2.0 * l2 / n_weights) * params[2],
                 np.array([dpred.sum()], dtype=float)]
        corr1 = 1.0 - beta1 ** epoch
        corr2 = 1.0 - beta2 ** epoch
        for k in range(4):
            m_acc[k] = beta1 * m_acc[k] + (1 - beta1) * grads[k]
            v_acc[k] = beta2 * v_acc[k] + (1 - beta2) * grads[k] * grads[k]
            step = learning_rate * (m_acc[k] / corr1) / (np.sqrt(v_acc[k] / corr2) + eps)
            params[k] = params[k] - step
        W1, b1, w2, b2 = (p.astype(f32) for p in params)
        val_mse = float(np.mean((w2 @ np.tanh(W1 @ XvT + b1[:, None]) + b2 - yv) ** 2))
        if val_mse < best[0] - 1e-12:
            best = (val_mse, params[0].copy(), params[1].copy(), params[2].copy(),
                    params[3][0])
            since_best = 0
        else:
            since_best += 1
            if since_best >= patience:
                break
    val_mse, W1, b1, w2, b2 = best
    return dict(W1=W1, b1=b1, w2=w2 * y_sd, b2=float(b2 * y_sd + y_mu), epochs_run=epoch,
                val_rmse=float(np.sqrt(val_mse)) * y_sd, degenerate=False)
