"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see them live).

The heavyweight benchmarks (criteria 4-7) train real models and take a few
minutes; every run is seeded and reproducible.
"""

import json
import time

import numpy as np
import pytest

from hlstm.baselines import BaselineSettings, fit_ar, fit_lasso, select_ar_order
from hlstm.cli import main as cli_main
from hlstm.errors import ValidationError
from hlstm.experiments import (
    SplitSpec,
    build_metrics_report,
    compute_metrics,
    make_split,
    run_experiment,
    run_hindcast_experiment,
)
from hlstm.lstm import (
    DropoutSpec,
    LstmWeights,
    bptt_gradients,
    forward_sequence,
    sample_dropout_masks,
)
from hlstm.synthetic import SyntheticConfig, generate_synthetic
from hlstm.training import TrainingConfig

from oracles import central_difference_gradients, max_relative_gradient_error, ols_fit


def report(criterion: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def hindcast_lstm_config():
    return TrainingConfig(hidden_size=48, unroll_length=365, batch_size=64,
                          epochs=400, learning_rate=0.003,
                          dropout=DropoutSpec("recurrent_constant", 0.3),
                          seed=7)


class TestCriterion1GradientOracle:
    def test_bptt_matches_finite_differences(self):
        rng = np.random.default_rng(2024)
        t0 = time.perf_counter()
        worst = 0.0
        n_nets = 20
        for trial in range(n_nets):
            n_in = int(rng.integers(1, 5))
            n_hid = int(rng.integers(1, 5))
            rho = int(rng.integers(1, 9))
            variant = ["none", "non_recurrent", "recurrent_constant",
                       "memory_cell"][trial % 4]
            rate = 0.0 if variant == "none" else float(rng.uniform(0.1, 0.6))
            w = LstmWeights(n_in, n_hid, 1)
            for name, arr in w.named_arrays():
                arr[...] = rng.normal(0.0, 0.5, size=arr.shape)
            X = rng.normal(size=(1, rho, n_in))
            targets = rng.normal(size=(1, rho, 1))
            masks = sample_dropout_masks(DropoutSpec(variant, rate), n_in,
                                         n_hid, rho, seed=int(rng.integers(1e6)), batch=1)

            def loss_fn(weights):
                Y, _ = forward_sequence(weights, X, masks=masks)
                d = Y - targets
                return float((d * d).sum())

            Y, cache = forward_sequence(w, X, masks=masks)
            analytic = bptt_gradients(w, cache, 2.0 * (Y - targets))
            numeric = central_difference_gradients(loss_fn, w, step=1e-5)
            err = max_relative_gradient_error(
                dict(analytic.named_arrays()), numeric)
            worst = max(worst, err)
        elapsed = time.perf_counter() - t0
        report("1 gradient-oracle",
               worst < 1e-4 and elapsed < 10.0,
               f"{n_nets} nets, worst relative error {worst:.2e} "
               f"(< 1e-4), {elapsed:.1f}s (< 10s)")


class TestCriterion2LassoOracle:
    def test_kkt_and_ols_agreement(self):
        rng = np.random.default_rng(77)
        t0 = time.perf_counter()
        worst_kkt = 0.0
        worst_ols = 0.0
        for _ in range(50):
            N = int(rng.integers(20, 201))
            d = int(rng.integers(2, 21))
            X = rng.normal(size=(N, d)) * rng.uniform(0.5, 2.0, size=d)
            beta = rng.normal(size=d) * (rng.random(d) < 0.6)
            y = rng.normal() + X @ beta + rng.normal(0, 0.1, size=N)

            lam = float(rng.uniform(0.01, 0.2))
            model = fit_lasso(X, y, lam=lam)
            resid = y - model.predict(X)
            corr = (X - X.mean(axis=0)).T @ resid / N
            for j in range(d):
                if model.beta[j] != 0.0:
                    worst_kkt = max(worst_kkt, abs(abs(corr[j]) - lam))
                else:
                    worst_kkt = max(worst_kkt, max(0.0, abs(corr[j]) - lam))

            ols = fit_lasso(X, y, lam=0.0)
            b0, bb = ols_fit(X, y)
            worst_ols = max(worst_ols, abs(ols.beta0 - b0),
                            float(np.max(np.abs(ols.beta - bb))))
        elapsed = time.perf_counter() - t0
        report("2 lasso-oracle",
               worst_kkt < 1e-5 and worst_ols < 1e-8 and elapsed < 10.0,
               f"50 problems, worst KKT violation {worst_kkt:.2e} (< 1e-5), "
               f"worst OLS gap {worst_ols:.2e} (< 1e-8), {elapsed:.1f}s (< 10s)")


class TestCriterion3ArRecovery:
    def test_alpha_recovery_and_order_sweep(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(13)
        n = 1000
        theta = np.zeros(n)
        for t in range(1, n):
            theta[t] = 0.02 + 0.8 * theta[t - 1] + rng.normal(0, 0.05)
        mask = np.ones(n, dtype=bool)
        model = fit_ar(theta, mask, None, p=1)
        alpha_err = abs(model.alpha[0] - 0.8)

        # order sweep on an AR(1) process with an exogenous driver
        rng2 = np.random.default_rng(9)
        x = rng2.normal(size=n)
        theta2 = np.zeros(n)
        for t in range(1, n):
            theta2[t] = 0.02 + 0.8 * theta2[t - 1] + 0.3 * x[t] + rng2.normal(0, 0.05)
        X = x[:, None]
        _, best_p, rmse_by_p = select_ar_order(
            theta2[:700], mask[:700], X[:700], theta2[700:], mask[700:],
            X[700:], warmup=theta2[695:700], p_max=5)
        elapsed = time.perf_counter() - t0
        report("3 ar-recovery",
               alpha_err <= 0.02 and best_p == 1 and elapsed < 5.0,
               f"alpha error {alpha_err:.4f} (<= 0.02), sweep over p=0..5 "
               f"selected p={best_p} (want 1), {elapsed:.1f}s (< 5s)")


class TestCriterion4WhiteNoiseHindcast:
    def test_text_s2_replication_white_noise(self):
        t0 = time.perf_counter()
        sigma = 0.04
        cfg = SyntheticConfig(rows=16, cols=16, years=12, revisit_days=1,
                              noise_kind="white", noise_param=sigma, seed=42)
        ds = generate_synthetic(cfg)
        res = run_hindcast_experiment(ds, train_days=730,
                                      lstm_config=hindcast_lstm_config())
        s = res.summary
        med_lstm = s["median_lstm_rmse"]
        med_ar = s["median_ar_rmse"]
        e = s["earliest_window_median"]["lstm"]
        l = s["latest_window_median"]["lstm"]
        ratio = abs(e - l) / l
        elapsed = time.perf_counter() - t0
        ok_a = med_lstm <= 1.25 * sigma
        ok_b = ratio <= 0.10
        ok_c = med_lstm < med_ar
        report("4 white-noise-hindcast",
               ok_a and ok_b and ok_c and elapsed < 1800.0,
               f"(a) median LSTM RMSE {med_lstm:.4f} <= {1.25 * sigma:.3f}: {ok_a}; "
               f"(b) earliest/latest window gap {ratio:.3f} <= 0.10: {ok_b}; "
               f"(c) LSTM {med_lstm:.4f} < AR {med_ar:.4f}: {ok_c}; "
               f"{elapsed:.0f}s (< 1800s)")


class TestCriterion5RelativeNoiseHindcast:
    def test_text_s2_replication_relative_noise(self):
        t0 = time.perf_counter()
        cfg = SyntheticConfig(rows=16, cols=16, years=12, revisit_days=1,
                              noise_kind="relative", noise_param=0.07, seed=43)
        ds = generate_synthetic(cfg)
        res = run_hindcast_experiment(ds, train_days=730,
                                      lstm_config=hindcast_lstm_config())
        s = res.summary
        med_lstm = s["median_lstm_rmse"]
        med_ar = s["median_ar_rmse"]
        e = s["earliest_window_median"]["lstm"]
        l = s["latest_window_median"]["lstm"]
        ratio = abs(e - l) / l
        elapsed = time.perf_counter() - t0
        ok_b = ratio <= 0.10
        ok_c = med_lstm < med_ar
        report("5 relative-noise-hindcast",
               ok_b and ok_c,
               f"(b) earliest/latest window gap {ratio:.3f} <= 0.10: {ok_b}; "
               f"(c) LSTM {med_lstm:.4f} < AR {med_ar:.4f}: {ok_c}; "
               f"{elapsed:.0f}s")


class TestCriterion6RankingSanity:
    def test_temporal_generalization_ordering(self):
        t0 = time.perf_counter()
        cfg = SyntheticConfig(rows=8, cols=8, years=3, revisit_days=1,
                              bias_attr_scale=0.12, seed=21)
        ds = generate_synthetic(cfg)
        dates = ds.dates()
        spec = SplitSpec(kind="temporal",
                         train_window=(dates[0].isoformat(), dates[729].isoformat()),
                         test_window=(dates[730].isoformat(), dates[1094].isoformat()))
        lcfg = TrainingConfig(hidden_size=32, unroll_length=365, batch_size=32,
                              epochs=400, learning_rate=0.003,
                              dropout=DropoutSpec("recurrent_constant", 0.2),
                              seed=3)
        result = run_experiment(ds, spec, ["lstm", "nn", "lasso"],
                                lstm_config=lcfg, baselines=BaselineSettings(ffnn_epochs=600),
                                seed=5)
        med = {row["model"]: row["median_rmse"] for row in result.comparison
               if row["phase"] == "test"}
        elapsed = time.perf_counter() - t0
        ok = (not result.errors and med["lstm"] <= med["nn"] <= med["lasso"])
        report("6 ranking-sanity", ok,
               f"median test RMSE lstm {med.get('lstm', float('nan')):.4f} <= "
               f"nn {med.get('nn', float('nan')):.4f} <= "
               f"lr {med.get('lasso', float('nan')):.4f}; errors "
               f"{result.errors or 'none'}; {elapsed:.0f}s")


class TestCriterion7BiasedRegionProbe:
    @staticmethod
    def run_case(train_regions):
        cfg = SyntheticConfig(rows=12, cols=12, years=3, revisit_days=2,
                              include_lsm=True, lsm_bias_range=(-0.08, 0.08),
                              lsm_bias_from_attr=True, lsm_noise_std=0.01,
                              expose_bucket_attrs=False,
                              region_layout=(2, 2), seed=31)
        ds = generate_synthetic(cfg)
        spec = SplitSpec(kind="regional_holdout", train_regions=train_regions)
        lcfg = TrainingConfig(hidden_size=32, unroll_length=365, batch_size=32,
                              epochs=300, learning_rate=0.003,
                              dropout=DropoutSpec("recurrent_constant", 0.2),
                              seed=11)
        result = run_experiment(ds, spec, ["lstm"], lstm_config=lcfg)
        test_rep = [r for r in result.reports if r.phase == "test"][0]
        biases = [row["bias"] for row in test_rep.rows]
        iqr = float(np.percentile(biases, 75) - np.percentile(biases, 25))
        return iqr, result.bias_diagnostic

    def test_bias_box_widens_and_flag_fires(self):
        t0 = time.perf_counter()
        # full-coverage training regions (both bias signs) vs one-sided
        iqr_c1, diag_c1 = self.run_case(["R00", "R11"])
        iqr_c4, diag_c4 = self.run_case(["R10", "R11"])
        elapsed = time.perf_counter() - t0
        widen = iqr_c4 / max(iqr_c1, 1e-12)
        ok = (widen > 1.5
              and diag_c4["flag_biased_training"]
              and not diag_c1["flag_biased_training"])
        report("7 biased-region-probe", ok,
               f"test-bias IQR widens x{widen:.1f} (> 1.5); flag fired on "
               f"one-sided case: {diag_c4['flag_biased_training']} "
               f"(overlap {diag_c4['overlap_fraction']:.2f}), quiet on "
               f"full-coverage case: {not diag_c1['flag_biased_training']} "
               f"(overlap {diag_c1['overlap_fraction']:.2f}); {elapsed:.0f}s")


class TestCriterion8CliDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        t0 = time.perf_counter()
        synth = {"rows": 3, "cols": 3, "years": 2, "noise_kind": "white",
                 "noise_param": 0.04, "revisit_days": 2, "seed": 6}
        split = {"kind": "temporal",
                 "train_window": ["2000-01-01", "2000-12-30"],
                 "test_window": ["2000-12-31", "2001-12-30"]}
        train = {"hidden_size": 8, "unroll_length": 60, "batch_size": 8,
                 "epochs": 40, "learning_rate": 0.01,
                 "dropout": {"variant": "recurrent_constant", "rate": 0.3},
                 "seed": 2}
        (tmp_path / "synth.json").write_text(json.dumps(synth))
        (tmp_path / "split.json").write_text(json.dumps(split))
        (tmp_path / "train.json").write_text(json.dumps(train))

        def one_round(tag):
            data = tmp_path / f"data_{tag}"
            run = tmp_path / f"run_{tag}"
            ev = tmp_path / f"eval_{tag}"
            assert cli_main(["synth", "--config", str(tmp_path / "synth.json"),
                             "--out", str(data)]) == 0
            assert cli_main(["train", "--model", "lstm", "--data", str(data),
                             "--split", str(tmp_path / "split.json"),
                             "--config", str(tmp_path / "train.json"),
                             "--out", str(run)]) == 0
            assert cli_main(["evaluate", "--data", str(data),
                             "--split", str(tmp_path / "split.json"),
                             "--model-file", str(run / "model.json"),
                             "--out", str(ev)]) == 0
            return (
                (data / "px_0_0.csv").read_bytes(),
                (run / "model.json").read_bytes(),
                (ev / "summary.json").read_bytes(),
                (ev / "metrics_per_pixel.csv").read_bytes(),
            )

        a = one_round("a")
        b = one_round("b")
        names = ("dataset csv", "model container", "summary json", "metrics csv")
        mismatches = [n for n, x, y in zip(names, a, b) if x != y]
        elapsed = time.perf_counter() - t0
        report("8 cli-determinism", not mismatches,
               f"synth+train+evaluate repeated: byte-identical "
               f"{'all artifacts' if not mismatches else 'FAILED: ' + ', '.join(mismatches)}; "
               f"{elapsed:.0f}s")


class TestCriterion9PropertySuites:
    def test_metric_identities_and_split_disjointness(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(512)
        n_datasets = 100
        checked_metrics = 0
        for trial in range(n_datasets):
            rows = int(rng.integers(3, 7))
            cols = int(rng.integers(3, 7))
            cfg = SyntheticConfig(rows=rows, cols=cols, years=1,
                                  revisit_days=int(rng.integers(1, 4)),
                                  irregular_revisit=bool(rng.integers(0, 2)),
                                  noise_kind="white", noise_param=0.02,
                                  region_layout=None, seed=trial)
            ds = generate_synthetic(cfg)

            # metric identities on noisy pseudo-predictions
            for px in ds.pixels[: min(4, len(ds.pixels))]:
                if not px.mask.any():
                    continue
                pred = px.truth + rng.normal(0, 0.03, size=ds.n_days)
                bias, rmse, r = compute_metrics(pred, px.target, px.mask)
                assert rmse >= abs(bias) - 1e-12
                if not np.isnan(r):
                    assert -1.0 - 1e-12 <= r <= 1.0 + 1e-12
                    _, _, r2 = compute_metrics(1.7 * pred + 0.1, px.target, px.mask)
                    assert abs(r - r2) < 1e-9
                checked_metrics += 1

            # split disjointness at (pixel, day) granularity
            if trial % 2 == 0:
                spec = SplitSpec(kind="spatial_subsample",
                                 stride=int(rng.integers(2, 4)),
                                 offset=(int(rng.integers(0, 2)),
                                         int(rng.integers(0, 2))))
            else:
                dates = ds.dates()
                mid = ds.n_days // 2
                spec = SplitSpec(kind="temporal",
                                 train_window=(dates[0].isoformat(),
                                               dates[mid - 1].isoformat()),
                                 test_window=(dates[mid].isoformat(),
                                              dates[-1].isoformat()))
            split = make_split(ds, spec)
            train_cells = {(p, t) for p in split.train_pixels
                           for t in range(*split.train_window)}
            test_cells = {(p, t) for p in split.test_pixels
                          for t in range(*split.test_window)}
            assert not (train_cells & test_cells), trial

            # exclusion accounting on a metrics report
            preds = {px.pixel_id: np.full(ds.n_days, float(np.nanmean(px.truth)))
                     for px in ds.pixels}
            rep = build_metrics_report("lstm", "test", ds, preds,
                                       (0, ds.n_days),
                                       [px.pixel_id for px in ds.pixels], {})
            c = rep.counts
            assert c["evaluated"] + c["excluded_no_obs"] == c["total"], trial
        elapsed = time.perf_counter() - t0
        report("9 property-suites", elapsed < 30.0,
               f"{n_datasets} randomized datasets, {checked_metrics} metric "
               f"checks, split disjointness and exclusion accounting hold; "
               f"{elapsed:.1f}s (< 30s)")
