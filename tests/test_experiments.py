import json
import math
import warnings

import numpy as np
import pytest

from hlstm import experiments
from hlstm.baselines import ArModel, BaselineSettings
from hlstm.errors import ValidationError
from hlstm.experiments import (
    PERCENTILES,
    ExperimentResult,
    Split,
    SplitSpec,
    build_metrics_report,
    compute_metrics,
    make_split,
    run_experiment,
    run_hindcast_experiment,
    self_assessed_bias,
    training_bias_flag,
    write_experiment_reports,
)
from hlstm.lstm import DropoutSpec
from hlstm.cli import main
from hlstm.dataset import normalize, save_dataset
from hlstm.modelio import (
    MODEL_KINDS,
    _ar_in_sample,
    load_model,
    model_payload,
    predict_container,
    save_model,
)
from hlstm.synthetic import SyntheticConfig, generate_synthetic
from hlstm.training import Features, TrainingConfig, prepare_sequences

from oracles import pearson_r_brute, scalar_ar_in_sample, scalar_lstm_sequence


def grid_dataset(rows=8, cols=8, years=2, **kw):
    cfg = SyntheticConfig(rows=rows, cols=cols, years=years, seed=kw.pop("seed", 1), **kw)
    return generate_synthetic(cfg)


def window_dates(ds, start_day, end_day):
    dates = ds.dates()
    return (dates[start_day].isoformat(), dates[end_day].isoformat())


class TestMakeSplit:
    def test_spatial_stride_four_enumeration(self):
        ds = grid_dataset(8, 8, 1)
        split = make_split(ds, SplitSpec(kind="spatial_subsample", stride=4))
        train_coords = sorted(
            (px.row, px.col) for px in ds.pixels if px.pixel_id in set(split.train_pixels))
        assert train_coords == [(0, 0), (0, 4), (4, 0), (4, 4)]
        assert len(split.test_pixels) == 60  # 1/16 coverage

    def test_spatial_offset(self):
        ds = grid_dataset(8, 8, 1)
        split = make_split(ds, SplitSpec(kind="spatial_subsample", stride=4, offset=(1, 2)))
        coords = sorted(
            (px.row, px.col) for px in ds.pixels if px.pixel_id in set(split.train_pixels))
        assert coords == [(1, 2), (1, 6), (5, 2), (5, 6)]

    def test_temporal_disjoint_windows(self):
        ds = grid_dataset(4, 4, 2)
        spec = SplitSpec(kind="temporal",
                         train_window=window_dates(ds, 0, 364),
                         test_window=window_dates(ds, 365, 729))
        split = make_split(ds, spec)
        assert split.train_pixels == split.test_pixels
        tr, te = split.train_window, split.test_window
        assert tr[1] <= te[0] or te[1] <= tr[0]

    def test_temporal_overlap_rejected(self):
        ds = grid_dataset(4, 4, 2)
        spec = SplitSpec(kind="temporal",
                         train_window=window_dates(ds, 0, 400),
                         test_window=window_dates(ds, 365, 729))
        with pytest.raises(ValidationError):
            make_split(ds, spec)

    def test_materialized_split_rejects_overlapping_windows_on_shared_pixels(self):
        doc = {"train_pixels": ["px_0_0", "px_0_1"], "test_pixels": ["px_0_1"],
               "train_window": [0, 731], "test_window": [600, 1095],
               "spec": {"kind": "spatial_subsample"}}
        with pytest.raises(ValidationError, match="windows overlap"):
            Split.from_dict(doc)
        # disjoint pixels may share a window, as the spatial kinds do
        Split.from_dict({**doc, "test_pixels": ["px_1_0"]})
        Split.from_dict({**doc, "test_window": [731, 1095]})

    def test_regional_holdout(self):
        ds = grid_dataset(4, 4, 1, region_layout=(2, 2))
        split = make_split(ds, SplitSpec(kind="regional_holdout",
                                         train_regions=["R00", "R11"]))
        by_id = {px.pixel_id: px for px in ds.pixels}
        assert all(by_id[p].region in ("R00", "R11") for p in split.train_pixels)
        assert all(by_id[p].region in ("R01", "R10") for p in split.test_pixels)

    def test_unknown_region_rejected(self):
        ds = grid_dataset(4, 4, 1, region_layout=(2, 2))
        with pytest.raises(ValidationError):
            make_split(ds, SplitSpec(kind="regional_holdout", train_regions=["Z9"]))

    def test_split_disjointness_randomized(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            rows = int(rng.integers(4, 9))
            cols = int(rng.integers(4, 9))
            ds = grid_dataset(rows, cols, 1, seed=trial)
            kind = ["spatial_subsample", "temporal"][trial % 2]
            if kind == "temporal":
                spec = SplitSpec(kind="temporal",
                                 train_window=window_dates(ds, 0, 181),
                                 test_window=window_dates(ds, 182, 364))
            else:
                spec = SplitSpec(kind="spatial_subsample",
                                 stride=int(rng.integers(2, 4)),
                                 offset=(int(rng.integers(0, 2)), int(rng.integers(0, 2))))
            split = make_split(ds, spec)
            train_cells = {(p, t) for p in split.train_pixels
                           for t in range(*split.train_window)}
            test_cells = {(p, t) for p in split.test_pixels
                          for t in range(*split.test_window)}
            assert not (train_cells & test_cells), (trial, kind)


class TestComputeMetrics:
    def test_perfect_prediction(self):
        obs = np.array([0.1, 0.2, 0.3])
        bias, rmse, r = compute_metrics(obs, obs, np.ones(3))
        assert bias == 0.0 and rmse == 0.0
        assert r == pytest.approx(1.0)

    def test_constant_offset(self):
        obs = np.array([0.1, 0.2, 0.3, 0.25])
        pred = obs + 0.05
        bias, rmse, r = compute_metrics(pred, obs, np.ones(4))
        assert bias == pytest.approx(0.05, abs=1e-15)
        assert rmse == pytest.approx(0.05, abs=1e-15)
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelated_example(self):
        pred = np.array([0.1, 0.2, 0.3])
        obs = np.array([0.3, 0.2, 0.1])
        bias, rmse, r = compute_metrics(pred, obs, np.ones(3))
        assert bias == pytest.approx(0.0, abs=1e-15)
        assert rmse == pytest.approx(math.sqrt(0.08 / 3), abs=1e-12)
        assert r == pytest.approx(-1.0, abs=1e-12)
        assert r == pytest.approx(pearson_r_brute(pred, obs), abs=1e-12)

    def test_mask_respected(self):
        pred = np.array([0.1, 99.0, 0.3])
        obs = np.array([0.1, 0.2, 0.3])
        bias, rmse, _ = compute_metrics(pred, obs, [1, 0, 1])
        assert bias == 0.0 and rmse == 0.0

    def test_rmse_at_least_abs_bias_randomized(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            pred = rng.normal(size=30)
            obs = rng.normal(size=30)
            mask = rng.random(30) < 0.7
            if not mask.any():
                continue
            bias, rmse, _ = compute_metrics(pred, obs, mask)
            assert rmse >= abs(bias) - 1e-12

    def test_r_affine_invariance(self):
        rng = np.random.default_rng(5)
        pred = rng.normal(size=40)
        obs = rng.normal(size=40)
        _, _, r1 = compute_metrics(pred, obs, np.ones(40))
        _, _, r2 = compute_metrics(2.5 * pred + 0.3, obs, np.ones(40))
        assert r1 == pytest.approx(r2, abs=1e-12)

    def test_undefined_cases(self):
        with pytest.raises(ValidationError):
            compute_metrics(np.ones(3), np.ones(3), np.zeros(3))
        _, _, r = compute_metrics(np.array([0.1, 0.2]), np.array([0.3, 0.3]),
                                  np.ones(2))
        assert math.isnan(r)


class TestSelfAssessedBias:
    def make_ds(self):
        return grid_dataset(4, 4, 1, include_lsm=True, seed=3)

    def test_prediction_equal_lsm_gives_zero(self):
        ds = self.make_ds()
        preds = {px.pixel_id: px.lsm[:100].copy() for px in ds.pixels}
        sab = self_assessed_bias(preds, ds, (0, 100))
        assert all(abs(v) < 1e-15 for v in sab.values())

    def test_constant_offset_recovered(self):
        ds = self.make_ds()
        preds = {px.pixel_id: px.lsm[:100] + 0.02 for px in ds.pixels}
        sab = self_assessed_bias(preds, ds, (0, 100))
        assert all(abs(v - 0.02) < 1e-12 for v in sab.values())

    def test_flag_fires_on_disjoint_boxes(self):
        ds = self.make_ds()
        # training corrections sit near -0.05 (lsm runs high); a model that
        # self-assesses positive corrections on test never saw them in train
        sab = {f"t{k}": 0.04 + 0.001 * k for k in range(10)}
        by_id = list(ds.pixels)
        for px in by_id:
            px.lsm = px.truth + 0.05
        diag = training_bias_flag(sab, ds, [px.pixel_id for px in by_id], (0, ds.n_days))
        assert diag["flag_biased_training"]
        assert "biased training sample" in diag["message"]

    def test_flag_quiet_on_overlapping_boxes(self):
        ds = self.make_ds()
        train_bias = {}
        rng = np.random.default_rng(0)
        for px in ds.pixels:
            b = rng.uniform(-0.06, 0.06)
            px.lsm = px.truth + b
        sab = {px.pixel_id: rng.uniform(-0.06, 0.06) for px in ds.pixels}
        diag = training_bias_flag(sab, ds, [px.pixel_id for px in ds.pixels], (0, ds.n_days))
        assert not diag["flag_biased_training"]


def tiny_lstm_config(**kw):
    base = dict(hidden_size=8, unroll_length=60, batch_size=8, epochs=60,
                learning_rate=0.01, dropout=DropoutSpec("recurrent_constant", 0.2),
                seed=0)
    base.update(kw)
    return TrainingConfig(**base)


class TestRunExperiment:
    def test_lstm_temporal_gives_two_reports(self):
        ds = grid_dataset(4, 4, 2, revisit_days=2, seed=5)
        spec = SplitSpec(kind="temporal",
                         train_window=window_dates(ds, 0, 364),
                         test_window=window_dates(ds, 365, 729))
        result = run_experiment(ds, spec, ["lstm"], lstm_config=tiny_lstm_config())
        assert [r.phase for r in result.reports] == ["train", "test"]
        assert not result.errors
        counts = result.reports[1].counts
        assert counts["evaluated"] + counts["excluded_no_obs"] == counts["total"]

    def test_oracle_predictions_score_zero_rmse(self):
        ds = grid_dataset(4, 4, 1, revisit_days=2, seed=6)
        window = (0, ds.n_days)
        preds = {px.pixel_id: np.nan_to_num(px.target) for px in ds.pixels}
        rep = build_metrics_report("lstm", "test", ds, preds, window,
                                   [px.pixel_id for px in ds.pixels], {})
        assert all(row["rmse"] == 0.0 for row in rep.rows)

    def test_pixels_without_an_observation_or_a_model_are_excluded(self, tmp_path):
        ds = grid_dataset(3, 1, 1, revisit_days=2, seed=13)
        split = make_split(ds, SplitSpec(kind="temporal", train_window=window_dates(ds, 0, 99),
                                         test_window=window_dates(ds, 100, 199)))
        observed, blank, no_model = ds.pixels
        blank.mask[:100] = False
        blank.target[:100] = np.nan
        ids = [px.pixel_id for px in ds.pixels]
        preds = {px.pixel_id: px.truth[:100] for px in (observed, blank)}
        rep = build_metrics_report("ar_p", "train", ds, preds, (0, 100), ids, {})
        assert [row["pixel_id"] for row in rep.rows] == [observed.pixel_id]
        assert rep.counts["total"] == 3 and rep.counts["evaluated"] == 1
        assert rep.counts["excluded_no_obs"] == 2
        empty = build_metrics_report("ar_p", "test", ds, {}, (100, 200), ids, {})
        assert empty.rows == [] and empty.counts["excluded_no_obs"] == 3
        assert empty.percentiles == {m: {f"p{q}": None for q in PERCENTILES}
                                     for m in ("bias", "rmse", "r")}
        write_experiment_reports(ExperimentResult(split=split, reports=[rep, empty]),
                                 str(tmp_path))
        rows = (tmp_path / "comparison.csv").read_text().splitlines()
        assert rows[1].startswith("ar_p,train,") and "" not in rows[1].split(",")
        assert rows[2] == "ar_p,test,,,"

    def test_model_failure_isolated(self):
        # 60-day revisit leaves too few rows for any per-pixel AR fit; the
        # shared lasso must still complete
        ds = grid_dataset(4, 4, 2, revisit_days=60, seed=7)
        spec = SplitSpec(kind="temporal",
                         train_window=window_dates(ds, 0, 364),
                         test_window=window_dates(ds, 365, 729))
        result = run_experiment(ds, spec, ["lasso", "ar_p"])
        assert "ar_p" in result.errors
        assert {r.model_kind for r in result.reports} == {"lasso"}

    def test_ar_degrades_to_exogenous_only_on_gappy_data(self):
        # fixed 3-day revisit never yields consecutive observations, so lag
        # orders are unfittable and the sweep settles on p=0
        ds = grid_dataset(3, 3, 2, revisit_days=3, seed=7)
        spec = SplitSpec(kind="temporal",
                         train_window=window_dates(ds, 0, 364),
                         test_window=window_dates(ds, 365, 729))
        result = run_experiment(ds, spec, ["ar_p"])
        assert not result.errors
        assert all(model.order == 0 for model in result.models["ar_p"].values())

    def test_point_mode_isolation(self):
        ds = grid_dataset(3, 3, 2, revisit_days=1, seed=8)
        spec = SplitSpec(kind="temporal",
                         train_window=window_dates(ds, 0, 364),
                         test_window=window_dates(ds, 365, 729))
        r1 = run_experiment(ds, spec, ["lasso_p"])
        # poison one neighbour pixel's series and refit
        ds2 = grid_dataset(3, 3, 2, revisit_days=1, seed=8)
        victim = ds2.pixels[4]
        victim.target = np.where(victim.mask, 0.777, np.nan)
        r2 = run_experiment(ds2, spec, ["lasso_p"])
        keep = ds.pixels[0].pixel_id
        m1, m2 = r1.models["lasso_p"][keep], r2.models["lasso_p"][keep]
        assert m1.beta0 == m2.beta0
        assert np.array_equal(m1.beta, m2.beta)

    def test_point_models_rejected_on_spatial_split(self):
        ds = grid_dataset(4, 4, 1, seed=9)
        with pytest.raises(ValidationError):
            run_experiment(ds, SplitSpec(kind="spatial_subsample", stride=2),
                           ["nn_p"])

    def test_reports_written(self, tmp_path):
        ds = grid_dataset(4, 4, 2, revisit_days=2, seed=10)
        spec = SplitSpec(kind="temporal",
                         train_window=window_dates(ds, 0, 364),
                         test_window=window_dates(ds, 365, 729))
        run_experiment(ds, spec, ["lasso"], out_dir=str(tmp_path))
        assert (tmp_path / "metrics_per_pixel.csv").exists()
        assert (tmp_path / "comparison.csv").exists()
        assert (tmp_path / "summary.json").exists()


class TestContainerParity:
    """run_experiment's in-memory predictions equal, bit for bit, those of
    its models saved to containers, loaded and evaluated."""

    @pytest.mark.parametrize("synth,orders", [
        (dict(revisit_days=2, noise_param=0.04, include_lsm=True), None),
        # daily revisit lets ar_p select lag orders up to 5
        (dict(revisit_days=1, noise_param=0.01, include_lsm=False),
         [0, 0, 0, 1, 1, 1, 2, 3, 5]),
    ], ids=["two_day_revisit_lsm", "daily_no_lsm"])
    def test_every_kind_round_trips_bit_identically(self, tmp_path, synth, orders):
        ds = generate_synthetic(SyntheticConfig(rows=3, cols=3, years=2, seed=3,
                                                noise_kind="white", **synth))
        spec = SplitSpec(kind="temporal", train_window=window_dates(ds, 0, 364),
                         test_window=window_dates(ds, 365, 729))
        lcfg = tiny_lstm_config(hidden_size=6, unroll_length=40, batch_size=6, epochs=25)
        result = run_experiment(ds, spec, list(MODEL_KINDS), lstm_config=lcfg,
                                baselines=BaselineSettings(ffnn_epochs=40, ffnn_hidden=10,
                                                           ffnn_hidden_point=5),
                                out_dir=str(tmp_path / "experiment"))
        assert not result.errors
        if orders is not None:
            assert sorted(m.order for m in result.models["ar_p"].values()) == orders

        model_files = []
        for kind in MODEL_KINDS:
            path = str(tmp_path / f"{kind}.json")
            save_model(path, kind, model_payload(kind, result.models[kind],
                                                 result.feature_names, result.stats, lcfg))
            model_files += ["--model-file", path]
            got = predict_container(*load_model(path), ds, result.split)
            want = result.predictions[kind]
            assert {ph: list(p) for ph, p in got.items()} == \
                {ph: list(p) for ph, p in want.items()}, kind
            for phase, series in want.items():
                for pid, pred in series.items():
                    assert got[phase][pid].tobytes() == pred.tobytes(), (kind, phase, pid)

        # the CLI scores the loaded containers into the same report files
        save_dataset(ds, str(tmp_path / "data"))
        split_path = tmp_path / "split.json"
        split_path.write_text(json.dumps(spec.to_dict()))
        assert main(["evaluate", "--data", str(tmp_path / "data"), "--split", str(split_path),
                     "--out", str(tmp_path / "evaluate")] + model_files) == 0
        for name in ("metrics_per_pixel.csv", "comparison.csv"):
            assert (tmp_path / "evaluate" / name).read_bytes() == \
                (tmp_path / "experiment" / name).read_bytes(), name
        # and into the same bias diagnostic, present when the dataset has lsm
        evaluated, ran = (json.loads((tmp_path / d / "summary.json").read_text())
                          for d in ("evaluate", "experiment"))
        assert evaluated["bias_diagnostic"] == ran["bias_diagnostic"]
        assert (ran["bias_diagnostic"] is not None) == ds.has_lsm


class TestArInSample:
    @pytest.mark.parametrize("p,r", [(0, 2), (1, 2), (3, 2), (5, 1), (2, 0), (0, 0)])
    def test_matches_loop_oracle(self, p, r):
        rng = np.random.default_rng(60 + 7 * p + r)
        T = 200
        mask = rng.uniform(size=T) > 0.3
        mask[:3] = False   # lags at the start read the mean too
        theta = np.where(mask, rng.uniform(0.1, 0.4, size=T), 0.0)
        X = rng.normal(size=(T, r))
        model = ArModel(c=0.05, alpha=rng.uniform(-0.4, 0.6, size=p),
                        gamma=rng.normal(size=r), order=p)
        got = _ar_in_sample(model, theta, mask, X)
        expect = scalar_ar_in_sample(model.c, model.alpha, model.gamma, theta, mask, X)
        assert got.shape == (T,)
        assert np.max(np.abs(got - expect)) < 1e-12


class TestHindcast:
    def test_smoke_and_sentinel_independence(self):
        cfg = SyntheticConfig(rows=3, cols=3, years=5, revisit_days=1,
                              noise_kind="white", noise_param=0.04, seed=11)
        ds = generate_synthetic(cfg)
        lcfg = tiny_lstm_config(unroll_length=120, epochs=40)
        res = run_hindcast_experiment(ds, train_days=730, lstm_config=lcfg)
        assert res.summary["hindcast_days"] == ds.n_days - 730
        assert len(res.windows) == 2
        assert res.summary["median_lstm_rmse"] < 0.2

        # sentinel: corrupt observations inside the hindcast window; the
        # forecasts must not change (no observation injection)
        ds2 = generate_synthetic(cfg)
        for px in ds2.pixels:
            px.target[:730] = np.where(px.mask[:730], 0.42, np.nan)
        res2 = run_hindcast_experiment(ds2, train_days=730, lstm_config=lcfg)
        a = [r["rmse"] for r in res.rmse_rows if r["model"] == "ar_p"]
        b = [r["rmse"] for r in res2.rmse_rows if r["model"] == "ar_p"]
        assert a == b

    def test_an_explosive_ar_order_scores_inf_without_a_warning(self):
        # Some orders fitted on this record forecast the hindcast days into
        # overflow. The sweep scores them inf, never NaN, and warns of none.
        ds = generate_synthetic(SyntheticConfig(rows=8, cols=8, years=6, revisit_days=2,
                                                irregular_revisit=True, noise_kind="white",
                                                noise_param=0.04, seed=0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = run_hindcast_experiment(ds, train_days=730, lstm_config=tiny_lstm_config(
                unroll_length=30, epochs=1))
        assert [str(w.message) for w in caught] == []
        scores = [m.order_rmse for m in res.models["ar_p"]]
        assert not any(math.isnan(v) for s in scores for v in s.values())
        # pixel 23's AR(4) was fitted, and its closed-loop forecast overflows
        assert scores[23]["3"] < 1 and scores[23]["4"] == math.inf

    def test_window_rmse_equals_the_per_pixel_loop(self, monkeypatch):
        seen = []

        def recording(real):
            def wrapper(*args, **kwargs):
                seen.append(real(*args, **kwargs))
                return seen[-1]
            return wrapper

        for name in ("predict_sequence", "ar_forecast_batch"):
            monkeypatch.setattr(experiments, name, recording(getattr(experiments, name)))
        ds = grid_dataset(2, 2, 3, revisit_days=1, seed=14)
        res = run_hindcast_experiment(ds, train_days=730, window_days=300, ar_max_order=2,
                                      lstm_config=tiny_lstm_config(epochs=3))
        # One LSTM prediction over [opening year; hindcast days], then the AR forecast.
        lstm_pred, ar_pred = seen
        assert lstm_pred.shape == (4, 365 + 365, 1)
        want = []
        for t0, t1, label in res.windows:
            for m, pred in (("lstm", lstm_pred[:, 365:, 0]), ("ar_p", ar_pred)):
                for k, px in enumerate(ds.pixels):
                    err = pred[k, t0:t1] - px.truth[t0:t1]
                    want.append({"pixel_id": px.pixel_id, "model": m, "window": label,
                                 "rmse": float(np.sqrt(np.mean(err * err)))})
        assert res.windows == [(0, 300, "window_0"), (300, 365, "window_1")]
        assert res.rmse_rows == want
        for m in ("lstm", "ar_p"):
            rows = [r["rmse"] for r in want if r["model"] == m]
            assert res.summary["pooled_rmse"][m]["p50"] == np.percentile(rows, 50)
            assert res.summary["per_window_rmse"][m]["window_1"]["p90"] == \
                np.percentile(rows[4:], 90)

    def test_lstm_spins_up_over_the_opening_year_from_the_zero_state(self, monkeypatch):
        # The scored predictions are the scalar cell run from zero over the
        # opening year and then the hindcast days, with the first 365 dropped.
        seen = []
        real = experiments.predict_sequence
        monkeypatch.setattr(experiments, "predict_sequence",
                            lambda *args: seen.append(real(*args)) or seen[-1])
        ds = grid_dataset(1, 3, 3, revisit_days=1, seed=15)
        res = run_hindcast_experiment(ds, train_days=800, window_days=200, ar_max_order=1,
                                      lstm_config=tiny_lstm_config(hidden_size=4, epochs=2))
        norm_ds, _ = normalize(ds, [px.pixel_id for px in ds.pixels])
        X = prepare_sequences(norm_ds, Features(include_lsm=False, include_attributes=False)).inputs
        h_end = ds.n_days - 800
        rows = [r for r in res.rmse_rows if r["model"] == "lstm"]
        for k, px in enumerate(ds.pixels):
            expected = np.asarray(scalar_lstm_sequence(
                res.models["lstm"], np.concatenate((X[k, :365], X[k, :h_end]))))[365:, 0]
            assert np.max(np.abs(seen[0][k, 365:, 0] - expected)) < 1e-12, k
            for t0, t1, label in res.windows:
                err = expected[t0:t1] - px.truth[t0:t1]
                row, = (r for r in rows if (r["pixel_id"], r["window"]) == (px.pixel_id, label))
                assert abs(row["rmse"] - np.sqrt(np.mean(err * err))) < 1e-12, (k, label)

    def test_requires_truth(self):
        ds = grid_dataset(2, 2, 2, seed=12)
        for px in ds.pixels:
            px.truth = None
        with pytest.raises(ValidationError):
            run_hindcast_experiment(ds, train_days=365)
