"""The benchmark's three workloads and their output checks.

Each workload has a ``setup(seed)`` that makes its inputs, a ``round`` that
makes the timed top-level calls (the operations), and a ``check`` that tests
a round's outputs outside the timed part. Later rounds repeat the first one
with the same inputs, so their outputs must equal the first round's exactly.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import filecmp
import io
import json
import math
import os
import time
import traceback

import numpy as np

from hlstm import cli, dataset, experiments, lstm, modelio, synthetic, training

import checks

SIGMA = 0.04   # white observation noise of every workload's target
# The benchmark's seed varies the data; the LSTM's own seed (initial weights,
# batch and dropout draws) stays at the package default. Drawing it from the
# benchmark's seed as well widened the spread of the held-out RMSE over five
# seeds from 2.6% to 8% of its median on `train` and from 4.9% to 11% on
# `cli`, too wide for the metric to bound an accuracy regression.
TRAIN_SEED = 0


def _median(values):
    return float(np.median(np.asarray(values, dtype=float)))


class Round:
    """Outputs, timings and failures of one round of operations.

    An operation fails when it raises or when its output check fails; once
    one has raised, the rest of the round cannot run and fail with it.
    """

    def __init__(self):
        self.failed = {}
        self.times = {}
        self.wall = None

    def run(self, op, fn):
        if self.failed:
            self.failed[op] = "not run: an earlier operation failed"
            return None
        start = time.perf_counter()
        try:
            return fn()
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failed[op] = traceback.format_exc(limit=3)
            return None
        finally:
            self.times[op] = time.perf_counter() - start

    def fail(self, op, why):
        self.failed.setdefault(op, why)


# ---------------------------------------------------------------------------
# train: LSTM training at the paper's settings, then a whole-record prediction


class TrainWorkload:
    """Train on a 1-in-4 pixel subsample over the last two years, predict
    every pixel over the whole record, score the untrained pixels."""

    name = "train"
    ops = ("train", "predict", "score")
    oracle_pixels = 3
    oracle_days = 30

    def __init__(self, rows=16, cols=16, years=4, epochs=40, hidden=64,
                 batch=100, unroll=365):
        self.rows, self.cols, self.years = rows, cols, years
        self.epochs, self.hidden, self.batch, self.unroll = epochs, hidden, batch, unroll

    def setup(self, seed, workdir):
        cfg = synthetic.SyntheticConfig(
            rows=self.rows, cols=self.cols, years=self.years, revisit_days=3,
            noise_kind="white", noise_param=SIGMA, seed=seed)
        return synthetic.generate_synthetic(cfg)

    def round(self, ds, workdir) -> Round:
        rnd = Round()
        trained = [px.row % 2 == 0 and px.col % 2 == 0 for px in ds.pixels]
        train_ids = [px.pixel_id for px, t in zip(ds.pixels, trained) if t]
        held = [k for k, t in enumerate(trained) if not t]
        window = (ds.n_days - 730, ds.n_days)

        def train():
            norm_ds, _ = dataset.normalize(ds, train_ids)
            data = training.prepare_sequences(norm_ds, include_lsm=False)
            config = training.TrainingConfig(
                hidden_size=self.hidden, batch_size=self.batch,
                unroll_length=self.unroll, epochs=self.epochs,
                learning_rate=0.01,
                dropout=lstm.DropoutSpec("recurrent_constant", 0.5), seed=TRAIN_SEED)
            w, history = training.train_lstm(data.subset(train_ids), config, window=window)
            return data, w, history

        def predict():
            return lstm.predict_sequence(w, data.inputs)[..., 0]

        def score():
            ones = np.ones(ds.n_days, dtype=bool)
            return [experiments.compute_metrics(Y[k], ds.pixels[k].truth, ones)[1]
                    for k in held]

        data, w, history = rnd.run("train", train) or (None, None, None)
        Y = rnd.run("predict", predict)
        scores = rnd.run("score", score)
        rnd.out = {"weights": w, "history": history, "Y": Y, "scores": scores,
                   "held": held, "window": window, "inputs": None if data is None else data.inputs}
        rnd.rmse = None if scores is None else _median(scores)
        return rnd

    def check(self, ds, rnd: Round, first: Round | None):
        out = rnd.out
        if first is not None:
            if not _same_lstm(out["weights"], first.out["weights"]):
                rnd.fail("train", "weights differ from the first round's")
            if not np.array_equal(out["Y"], first.out["Y"]):
                rnd.fail("predict", "predictions differ from the first round's")
            if out["scores"] != first.out["scores"]:
                rnd.fail("score", "scores differ from the first round's")
            return
        history = out["history"]
        if not history[-1]["loss"] < history[0]["loss"]:
            rnd.fail("train", f"final loss {history[-1]['loss']} not below first "
                              f"{history[0]['loss']}")
        weights = modelio.lstm_payload(out["weights"], [], None)["weights"]
        step = max(1, len(ds.pixels) // self.oracle_pixels)
        for k in range(0, len(ds.pixels), step)[:self.oracle_pixels]:
            ref = checks.lstm_reference(weights, out["inputs"][k, :self.oracle_days])
            gap = float(np.max(np.abs(ref - out["Y"][k, :self.oracle_days])))
            if not gap <= 1e-9:
                rnd.fail("predict", f"pixel {k}: prediction differs from the "
                                    f"reference LSTM by {gap:.3g}")
        t0, t1 = out["window"]
        days = np.arange(ds.n_days)
        clim, mine = [], []
        for k, prog in zip(out["held"], out["scores"]):
            px = ds.pixels[k]
            mine.append(checks.rmse(out["Y"][k], px.truth))
            if not math.isclose(prog, mine[-1], rel_tol=1e-12):
                rnd.fail("score", f"pixel {px.pixel_id}: rmse {prog} != {mine[-1]}")
            obs = px.mask[t0:t1]
            fit = checks.climatology(days[t0:t1][obs], px.target[t0:t1][obs], days)
            clim.append(checks.rmse(fit, px.truth))
        med, med_clim = _median(mine), _median(clim)
        if not (med < SIGMA and med < med_clim):
            rnd.fail("score", f"held-out median rmse {med:.4f} not below noise "
                              f"{SIGMA} and climatology {med_clim:.4f}")
        rnd.reference = {"climatology_rmse": med_clim}


def _same_lstm(a, b) -> bool:
    return all(np.array_equal(x, y) for (_, x), (_, y) in
               zip(a.named_arrays(), b.named_arrays()))


# ---------------------------------------------------------------------------
# hindcast: experiments.run_hindcast_experiment on criterion 4's kind of data


class HindcastWorkload:
    """LSTM and per-pixel AR order sweep trained on the last two years of a
    daily-revisit record and scored on the four years before against truth."""

    name = "hindcast"
    ops = ("hindcast",)
    ar_pixels = 3

    def __init__(self, rows=16, cols=16, years=6, epochs=60, hidden=48, batch=64):
        self.rows, self.cols, self.years = rows, cols, years
        self.epochs, self.hidden, self.batch = epochs, hidden, batch

    def setup(self, seed, workdir):
        cfg = synthetic.SyntheticConfig(
            rows=self.rows, cols=self.cols, years=self.years, revisit_days=1,
            noise_kind="white", noise_param=SIGMA, seed=seed)
        return synthetic.generate_synthetic(cfg)

    def round(self, ds, workdir) -> Round:
        rnd = Round()
        config = training.TrainingConfig(
            hidden_size=self.hidden, unroll_length=365, batch_size=self.batch,
            epochs=self.epochs, learning_rate=0.003,
            dropout=lstm.DropoutSpec("recurrent_constant", 0.3), seed=TRAIN_SEED)
        res = rnd.run("hindcast", lambda: experiments.run_hindcast_experiment(
            ds, train_days=730, lstm_config=config, out_dir=workdir))
        rnd.out = res
        rnd.rmse = None
        if res is not None:
            # per-pixel RMSE over the whole hindcast period from the
            # per-window RMSEs, weighting each window by its length
            length = {label: t1 - t0 for t0, t1, label in res.windows}
            sq, n = {}, {}
            for row in res.rmse_rows:
                if row["model"] == "lstm":
                    sq[row["pixel_id"]] = sq.get(row["pixel_id"], 0.0) + \
                        length[row["window"]] * row["rmse"] ** 2
                    n[row["pixel_id"]] = n.get(row["pixel_id"], 0) + length[row["window"]]
            rnd.rmse = _median([math.sqrt(sq[p] / n[p]) for p in sq])
        return rnd

    def check(self, ds, rnd: Round, first: Round | None):
        res = rnd.out
        if first is not None:
            same = (res.rmse_rows == first.out.rmse_rows and all(
                a.c == b.c and np.array_equal(a.alpha, b.alpha)
                and np.array_equal(a.gamma, b.gamma)
                for a, b in zip(res.models["ar_p"], first.out.models["ar_p"])))
            if not same:
                rnd.fail("hindcast", "results differ from the first round's")
            return
        lstm_med = res.summary["median_lstm_rmse"]
        ar_med = res.summary["median_ar_rmse"]
        if not lstm_med <= 1.25 * SIGMA:
            rnd.fail("hindcast", f"LSTM median {lstm_med:.4f} above 1.25 sigma")
        if not lstm_med < ar_med:
            rnd.fail("hindcast", f"LSTM median {lstm_med:.4f} not below AR {ar_med:.4f}")
        forcing = np.concatenate([px.forcing for px in ds.pixels])
        mean, std = forcing.mean(axis=0), forcing.std(axis=0)
        h_end = ds.n_days - 730
        step = max(1, len(ds.pixels) // self.ar_pixels)
        for k in range(0, len(ds.pixels), step)[:self.ar_pixels]:
            px, model = ds.pixels[k], res.models["ar_p"][k]
            X = (px.forcing[h_end:] - mean) / std
            theta = np.nan_to_num(px.target[h_end:])
            ref = checks.ar_reference(theta, px.mask[h_end:], X, model.p)
            got = np.concatenate([[model.c], model.alpha, model.gamma])
            if not np.allclose(got, ref, rtol=1e-8, atol=1e-10):
                rnd.fail("hindcast", f"pixel {px.pixel_id}: AR({model.p}) "
                                     f"coefficients {got} != least squares {ref}")
        rnd.reference = {"ar_median_rmse": ar_med}


# ---------------------------------------------------------------------------
# cli: the disk path a user takes, through hlstm.cli.main in process


class CliWorkload:
    """synth -> split -> train (lasso, lasso_p, nn_p, ar_p, lstm) -> evaluate
    against truth, every step a CLI command reading and writing files."""

    name = "cli"
    models = ("lasso", "lasso_p", "nn_p", "ar_p", "lstm")
    ops = ("synth", "split") + tuple("train_" + m for m in models) + ("evaluate",)

    def __init__(self, rows=8, cols=8, years=4, epochs=60, hidden=16, ffnn_epochs=200):
        self.rows, self.cols, self.years = rows, cols, years
        self.epochs, self.hidden, self.ffnn_epochs = epochs, hidden, ffnn_epochs

    def setup(self, seed, workdir):
        """Write the command configs; the last year is the test window."""
        os.makedirs(workdir, exist_ok=True)
        start = dt.date(2000, 1, 1)
        n_days = self.years * 365
        day = lambda k: (start + dt.timedelta(days=k)).isoformat()  # noqa: E731
        docs = {
            "synth.json": {"rows": self.rows, "cols": self.cols, "years": self.years,
                           "revisit_days": 3, "noise_kind": "white",
                           "noise_param": SIGMA, "include_lsm": True, "seed": seed},
            "split.json": {"kind": "temporal",
                           "train_window": [day(0), day(n_days - 366)],
                           "test_window": [day(n_days - 365), day(n_days - 1)]},
            "train.json": {"hidden_size": self.hidden, "unroll_length": 365,
                           "batch_size": 50, "epochs": self.epochs,
                           "learning_rate": 0.01, "seed": TRAIN_SEED,
                           "dropout": {"variant": "recurrent_constant", "rate": 0.3},
                           "baselines": {"ffnn_epochs": self.ffnn_epochs}},
        }
        paths = {}
        for name, doc in docs.items():
            paths[name] = os.path.join(workdir, name)
            with open(paths[name], "w") as fh:
                json.dump(doc, fh)
        return {"paths": paths, "synth": docs["synth.json"], "n_days": n_days}

    def round(self, inputs, workdir) -> Round:
        rnd = Round()
        p = inputs["paths"]
        d = lambda *parts: os.path.join(workdir, *parts)  # noqa: E731
        commands = [("synth", ["synth", "--config", p["synth.json"], "--out", d("data")]),
                    ("split", ["split", "--data", d("data"), "--config", p["split.json"],
                               "--out", d("split")])]
        for m in self.models:
            commands.append(("train_" + m, [
                "train", "--model", m, "--data", d("data"), "--split", d("split", "split.json"),
                "--config", p["train.json"], "--out", d("model_" + m)]))
        evaluate = ["evaluate", "--data", d("data"), "--split", d("split", "split.json"),
                    "--against", "truth", "--out", d("eval")]
        for m in self.models:
            evaluate += ["--model-file", d("model_" + m, "model.json")]
        commands.append(("evaluate", evaluate))

        rnd.stderr = {}
        for op, argv in commands:
            def command(argv=argv, op=op):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                rnd.stderr[op] = err.getvalue()
                if code != 0:
                    raise RuntimeError(f"hlstm {argv[0]} exited {code}: {err.getvalue()}")
            rnd.run(op, command)
        rnd.out = workdir
        rnd.rmse = None
        if "evaluate" not in rnd.failed:
            for row in checks.read_csv_rows(d("eval", "comparison.csv")):
                if row["model"] == "lstm" and row["phase"] == "test":
                    rnd.rmse = float(row["median_rmse"])
        return rnd

    def _compared_files(self, workdir):
        """Every output a repeated round must reproduce byte for byte; run
        manifests and training history carry wall times and are left out."""
        files = []
        for root, _, names in os.walk(workdir):
            for name in names:
                if name not in ("run_manifest.json", "history.csv"):
                    files.append(os.path.relpath(os.path.join(root, name), workdir))
        return sorted(files)

    def check(self, inputs, rnd: Round, first: Round | None):
        workdir = rnd.out
        if first is not None:
            mine, theirs = self._compared_files(workdir), self._compared_files(first.out)
            _, mismatch, errors = filecmp.cmpfiles(workdir, first.out, mine, shallow=False)
            if mine != theirs or mismatch or errors:
                rnd.fail("evaluate", f"outputs differ from the first round's: "
                                     f"{(mismatch + errors)[:5]}")
            return
        n_days = inputs["n_days"]
        self._check_dataset(inputs, rnd, os.path.join(workdir, "data"))
        if "synth" in rnd.failed:
            return  # the remaining checks read the dataset
        manifest, series = checks.read_dataset_csv(os.path.join(workdir, "data"))
        test0 = n_days - 365
        days = np.arange(n_days)
        clim = []
        for px in series.values():
            obs = ~np.isnan(px["target"][:test0])
            fit = checks.climatology(days[:test0][obs], px["target"][:test0][obs],
                                     days[test0:])
            clim.append(checks.rmse(fit, px["truth"][test0:]))
        med_clim = _median(clim)

        comparison = checks.read_csv_rows(os.path.join(workdir, "eval", "comparison.csv"))
        per_pixel = checks.read_csv_rows(os.path.join(workdir, "eval", "metrics_per_pixel.csv"))
        for why in checks.comparison_mismatches(comparison, per_pixel):
            rnd.fail("evaluate", why)
        for row in comparison:
            if row["phase"] == "test" and not (
                    row["median_rmse"] and float(row["median_rmse"]) < med_clim):
                rnd.fail("train_" + row["model"], f"test median rmse "
                         f"{row['median_rmse']!r} not below climatology {med_clim:.4f}")
        self._check_lasso(series, manifest, rnd, workdir, n_days)
        rnd.reference = {"climatology_rmse": med_clim}

    def _check_dataset(self, inputs, rnd, data_dir):
        """The CSVs read back with the csv module equal the generated arrays."""
        ds = synthetic.generate_synthetic(synthetic.SyntheticConfig.from_dict(inputs["synth"]))
        manifest, series = checks.read_dataset_csv(data_dir)
        entries = {e["id"]: e for e in manifest["pixels"]}
        for px in ds.pixels:
            got = series.get(px.pixel_id)
            if got is None or px.pixel_id not in entries:
                rnd.fail("synth", f"pixel {px.pixel_id} missing from the written dataset")
                continue
            expect = {"target": np.where(px.mask, px.target, np.nan), "lsm": px.lsm,
                      "truth": px.truth, **{name: px.forcing[:, j] for j, name
                                            in enumerate(ds.forcing_names)}}
            for col, want in expect.items():
                have = got.get(col)
                if have is None or have.shape != want.shape or not np.array_equal(
                        have, want, equal_nan=True):
                    rnd.fail("synth", f"pixel {px.pixel_id}: column {col} differs "
                                      f"from the generated series")
            if entries[px.pixel_id]["attributes"] != px.attributes.tolist():
                rnd.fail("synth", f"pixel {px.pixel_id}: attributes differ")

    def _check_lasso(self, series, manifest, rnd, workdir, n_days):
        """The shared lasso meets the lasso optimality conditions on its
        training rows: observed train-window days of every pixel."""
        with open(os.path.join(workdir, "model_lasso", "model.json")) as fh:
            payload = json.load(fh)["payload"]
        norm = payload["normalization"]
        mean = dict(zip(norm["names"], norm["mean"]))
        std = dict(zip(norm["names"], norm["std"]))
        t1 = n_days - 365
        X_parts, y_parts = [], []
        for entry in manifest["pixels"]:
            cols = series[entry["id"]]
            attrs = dict(zip(manifest["attribute_names"], entry["attributes"]))
            obs = ~np.isnan(cols["target"][:t1])
            feats = [np.full(t1, attrs[name]) if name in attrs else cols[name][:t1]
                     for name in payload["feature_names"]]
            X = np.column_stack([(f - mean[name]) / std[name]
                                 for f, name in zip(feats, payload["feature_names"])])
            X_parts.append(X[obs])
            y_parts.append(cols["target"][:t1][obs])
        X, y = np.concatenate(X_parts), np.concatenate(y_parts)
        viol = checks.lasso_kkt_violation(X, y, payload["beta0"],
                                          np.asarray(payload["beta"]), payload["lambda"])
        if not viol < 1e-8:
            rnd.fail("train_lasso", f"lasso KKT violation {viol:.3g} on its training rows")


WORKLOADS = {"train": TrainWorkload, "hindcast": HindcastWorkload, "cli": CliWorkload}

# Sizes small enough for the benchmark's own tests to run each workload and
# its checks in seconds.
TOY = {
    "train": dict(rows=8, cols=8, years=2, epochs=300, hidden=16, batch=32, unroll=180),
    "hindcast": dict(rows=2, cols=2, years=4, epochs=60, hidden=16, batch=32),
    "cli": dict(rows=3, cols=3, years=3, epochs=40, hidden=8, ffnn_epochs=50),
}
