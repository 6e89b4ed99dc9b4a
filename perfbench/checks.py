"""Reference computations the benchmark checks hlstm's outputs against.

Nothing here calls into hlstm: each function re-derives a result from its
definition (the LSTM cell equations, least squares, the lasso optimality
conditions, the on-disk CSV layout) with plain numpy and the standard
library.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def lstm_reference(weights: dict, X: np.ndarray) -> np.ndarray:
    """Outputs of an LSTM with zero initial state over X (T, n_in).

    ``weights`` holds the per-gate arrays by their ``hlstm-v1`` container
    names (W_gx, W_gh, b_g for the candidate node, likewise i, f, o for the
    input, forget and output gates, and the readout W_hy, b_y). One gate at
    a time, one step at a time.
    """
    w = {name: np.asarray(value, dtype=float) for name, value in weights.items()}
    h = np.zeros(w["W_gh"].shape[0])
    s = np.zeros_like(h)
    out = []
    for x in np.asarray(X, dtype=float):
        g = np.tanh(w["W_gx"] @ x + w["W_gh"] @ h + w["b_g"])
        i = _sigmoid(w["W_ix"] @ x + w["W_ih"] @ h + w["b_i"])
        f = _sigmoid(w["W_fx"] @ x + w["W_fh"] @ h + w["b_f"])
        o = _sigmoid(w["W_ox"] @ x + w["W_oh"] @ h + w["b_o"])
        s = g * i + s * f
        h = np.tanh(s) * o
        out.append(w["W_hy"] @ h + w["b_y"])
    return np.asarray(out)[:, 0]


def rmse(pred, truth) -> float:
    d = np.asarray(pred, dtype=float) - np.asarray(truth, dtype=float)
    return float(math.sqrt(np.mean(d * d)))


def climatology(days: np.ndarray, values: np.ndarray, out_days: np.ndarray,
                harmonics: int = 2, period: float = 365.0) -> np.ndarray:
    """Least-squares mean seasonal cycle (mean plus ``harmonics`` annual
    harmonics) fitted to ``values`` observed on ``days``, evaluated on
    ``out_days``."""
    def design(d):
        d = np.asarray(d, dtype=float)
        cols = [np.ones_like(d)]
        for k in range(1, harmonics + 1):
            cols += [np.sin(2 * np.pi * k * d / period), np.cos(2 * np.pi * k * d / period)]
        return np.column_stack(cols)

    coef, *_ = np.linalg.lstsq(design(days), values, rcond=None)
    return design(out_days) @ coef


def ar_reference(theta: np.ndarray, mask: np.ndarray, X: np.ndarray, p: int) -> np.ndarray:
    """[c, alpha_1..alpha_p, gamma...] by least squares over the rows whose
    target and p lags are all observed: theta_t ~ c + sum alpha_i theta_{t-i}
    + gamma . x_t."""
    rows, targets = [], []
    for t in range(p, theta.size):
        if mask[t - p:t + 1].all():
            rows.append(np.concatenate([[1.0], theta[t - p:t][::-1], X[t]]))
            targets.append(theta[t])
    coef, *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(targets), rcond=None)
    return coef


def lasso_kkt_violation(X: np.ndarray, y: np.ndarray, beta0: float,
                        beta: np.ndarray, lam: float) -> float:
    """Largest violation of the optimality conditions of
    (1/2N)|y - b0 - X b|^2 + lam |b|_1 with an unpenalized intercept:
    the residual has zero mean, and c_j = X_j.r/N equals lam*sign(b_j) where
    b_j != 0 and lies in [-lam, lam] where b_j == 0."""
    r = y - beta0 - X @ beta
    c = X.T @ r / y.size
    viol = np.where(beta != 0, np.abs(c - lam * np.sign(beta)),
                    np.maximum(np.abs(c) - lam, 0.0))
    return float(max(abs(r.mean()), viol.max(initial=0.0)))


def read_dataset_csv(data_dir: str) -> tuple[dict, dict]:
    """(manifest, {pixel id: {column: array}}) read with the csv module; an
    empty target cell reads as NaN."""
    with open(os.path.join(data_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    series = {}
    for entry in manifest["pixels"]:
        with open(os.path.join(data_dir, entry["series_file"]), newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            cols = list(zip(*reader))
        series[entry["id"]] = {
            name: (np.asarray(col) if name == "date" else
                   np.array([float(v) if v else math.nan for v in col]))
            for name, col in zip(header, cols)}
    return manifest, series


def read_csv_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def comparison_mismatches(comparison: list[dict], per_pixel: list[dict]) -> list[str]:
    """Rows of comparison.csv whose medians differ from the medians of the
    per-pixel rows of metrics_per_pixel.csv."""
    bad = []
    for row in comparison:
        sel = [r for r in per_pixel
               if r["model"] == row["model"] and r["split_phase"] == row["phase"]]
        for metric in ("bias", "rmse", "r"):
            values = [float(r[metric]) for r in sel if r[metric] != ""]
            cell = row["median_" + metric]
            if not values:
                if cell != "":
                    bad.append(f"{row['model']}/{row['phase']} {metric}: {cell} with no rows")
                continue
            if cell == "" or not math.isclose(float(cell), float(np.median(values)),
                                              rel_tol=1e-12, abs_tol=1e-15):
                bad.append(f"{row['model']}/{row['phase']} median {metric} {cell!r} "
                           f"!= {np.median(values)!r} from {len(values)} pixels")
    return bad
