import csv
import datetime as dt
import json
import os
import platform
import shutil

import numpy as np
import pytest

import golden

from hlstm import dataset as dataset_module
from hlstm.cli import main
from hlstm.dataset import SIDECAR, GridDataset, PixelSeries, load_dataset, save_dataset
from hlstm.synthetic import SyntheticConfig, generate_synthetic


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def synth_config(**kw):
    base = dict(rows=3, cols=3, years=2, noise_kind="white", noise_param=0.04,
                revisit_days=2, seed=3)
    base.update(kw)
    return base


def train_config(**kw):
    base = dict(hidden_size=6, unroll_length=40, batch_size=6, epochs=25,
                learning_rate=0.01,
                dropout={"variant": "recurrent_constant", "rate": 0.2}, seed=1)
    base.update(kw)
    return base


def each_pixel(payload, **fields):
    """Update every pixel section of a point kind's payload with ``fields``."""
    for pixel in payload["pixels"].values():
        pixel.update(fields)


def temporal_split():
    return {"kind": "temporal",
            "train_window": ["2000-01-01", "2000-12-30"],
            "test_window": ["2000-12-31", "2001-12-30"]}


@pytest.fixture()
def workspace(tmp_path):
    cfg = write_json(tmp_path / "synth.json", synth_config())
    data = tmp_path / "data"
    assert main(["synth", "--config", cfg, "--out", str(data)]) == 0
    split_cfg = write_json(tmp_path / "split.json", temporal_split())
    return tmp_path, str(data), split_cfg


class TestSynth:
    def test_writes_dataset_and_manifest(self, workspace):
        tmp, data, _ = workspace
        assert os.path.exists(os.path.join(data, "manifest.json"))
        assert os.path.exists(os.path.join(data, "run_manifest.json"))
        ds = load_dataset(data)
        assert len(ds.pixels) == 9 and ds.n_days == 730

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", synth_config(seed=1))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["synth", "--config", cfg, "--out", str(out_a), "--seed", "9"]) == 0
        assert main(["synth", "--config", cfg, "--out", str(out_b), "--seed", "9"]) == 0
        a = (out_a / "px_0_0.csv").read_bytes()
        b = (out_b / "px_0_0.csv").read_bytes()
        assert a == b
        manifest = json.loads((out_a / "run_manifest.json").read_text())
        assert manifest["seeds"]["seed"] == 9

    def test_manifest_records_the_given_argv(self, tmp_path):
        argv = ["synth", "--config", write_json(tmp_path / "c.json", synth_config()),
                "--out", str(tmp_path / "o"), "--seed", "4"]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "o" / "run_manifest.json").read_text())
        assert manifest["argv"] == argv

    def test_successful_manifest_records_status_and_exit_code(self, tmp_path):
        out = tmp_path / "o"
        assert main(["synth", "--config", write_json(tmp_path / "c.json", synth_config()),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "ok" and manifest["exit_code"] == 0
        assert "error" not in manifest

    def test_manifest_records_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "o"
        assert main(["synth", "--config", write_json(tmp_path / "c.json", synth_config()),
                     "--out", str(out)]) == 0
        env = json.loads((out / "run_manifest.json").read_text())["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert set(env["blas"]) == {"name", "version", "openblas configuration"}
        assert env["blas"]["name"]
        assert env["usable_cpus"] >= 1
        assert env["thread_variables"]["OPENBLAS_NUM_THREADS"] == "3"
        assert env["thread_variables"]["MKL_NUM_THREADS"] is None
        assert set(env["thread_variables"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}

    def test_bad_config_exits_one(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", synth_config(noise_kind="pink"))
        code = main(["synth", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestSplitCommand:
    def test_materializes_pixel_and_time_lists(self, workspace, tmp_path):
        _, data, split_cfg = workspace
        out = tmp_path / "splitout"
        assert main(["split", "--data", data, "--config", split_cfg,
                     "--out", str(out)]) == 0
        doc = json.loads((out / "split.json").read_text())
        assert doc["train_window"] == [0, 365]
        assert doc["test_window"] == [365, 730]
        assert len(doc["train_pixels"]) == 9


class TestTrainEvaluate:
    def train(self, tmp_path, data, split_cfg, model, out_name, cfg_extra=None):
        cfg = write_json(tmp_path / f"train_{out_name}.json",
                         {**train_config(), **(cfg_extra or {})})
        out = tmp_path / out_name
        code = main(["train", "--model", model, "--data", data,
                     "--split", split_cfg, "--config", cfg, "--out", str(out)])
        assert code == 0
        return out

    def test_train_lstm_outputs(self, workspace, tmp_path):
        tmp, data, split_cfg = workspace
        out = self.train(tmp_path, data, split_cfg, "lstm", "run1")
        assert (out / "model.json").exists()
        with open(out / "history.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["epoch", "loss", "grad_norm", "clipped", "seconds"]
        assert [int(r["epoch"]) for r in rows] == list(range(1, 26))
        assert all(float(r["grad_norm"]) > 0.0 and r["clipped"] in ("0", "1") for r in rows)
        assert (out / "run_manifest.json").exists()
        doc = json.loads((out / "model.json").read_text())
        assert doc["format"] == "hlstm-v1"
        assert doc["kind"] == "lstm"

    def test_seed_flag_writes_what_the_config_seed_writes(self, workspace, tmp_path):
        _, data, split_cfg = workspace
        flagged = tmp_path / "flagged"
        cfg = write_json(tmp_path / "seed1.json", train_config(seed=1, epochs=5))
        assert main(["train", "--model", "lstm", "--data", data, "--split", split_cfg,
                     "--config", cfg, "--seed", "7", "--out", str(flagged)]) == 0
        out = self.train(tmp_path, data, split_cfg, "lstm", "configured",
                         {"seed": 7, "epochs": 5})
        assert (flagged / "model.json").read_bytes() == (out / "model.json").read_bytes()
        manifest = json.loads((flagged / "run_manifest.json").read_text())
        assert manifest["seeds"] == {"seed": 7} and manifest["config"]["seed"] == 7

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        tmp, data, split_cfg = workspace
        out1 = self.train(tmp_path, data, split_cfg, "lstm", "runA")
        out2 = self.train(tmp_path, data, split_cfg, "lstm", "runB")
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()

    @pytest.mark.parametrize("model", ["lasso", "nn", "lasso_p", "ar_p"])
    def test_train_baselines(self, workspace, tmp_path, model):
        tmp, data, split_cfg = workspace
        extra = {"baselines": {"ffnn_epochs": 40, "ffnn_hidden": 10,
                               "ffnn_hidden_point": 5}}
        out = self.train(tmp_path, data, split_cfg, model, f"run_{model}", extra)
        doc = json.loads((out / "model.json").read_text())
        assert doc["kind"] == model

    def test_evaluate_reports(self, workspace, tmp_path):
        tmp, data, split_cfg = workspace
        run = self.train(tmp_path, data, split_cfg, "lstm", "rune")
        out = tmp_path / "eval"
        code = main(["evaluate", "--data", data, "--split", split_cfg,
                     "--model-file", str(run / "model.json"), "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        models = {row["model"] for row in summary["comparison"]}
        assert models == {"lstm"}
        assert (out / "metrics_per_pixel.csv").exists()

        # byte-identical reports on rerun
        out2 = tmp_path / "eval2"
        assert main(["evaluate", "--data", data, "--split", split_cfg,
                     "--model-file", str(run / "model.json"), "--out", str(out2)]) == 0
        assert (out / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
        assert (out / "metrics_per_pixel.csv").read_bytes() == \
            (out2 / "metrics_per_pixel.csv").read_bytes()

    def test_artifacts_do_not_depend_on_the_sidecar(self, workspace, tmp_path, monkeypatch):
        _, data, split_cfg = workspace
        bare = tmp_path / "bare"
        shutil.copytree(data, bare)
        os.remove(bare / SIDECAR)
        parsed = []
        parse = dataset_module._load_series
        monkeypatch.setattr(dataset_module, "_load_series",
                            lambda *args: parsed.append(args[0]) or parse(*args))
        cfg = write_json(tmp_path / "train.json", train_config())

        def chain(tag, data_dir):
            out = tmp_path / tag
            split = str(out / "split" / "split.json")
            assert main(["split", "--data", data_dir, "--config", split_cfg,
                         "--out", str(out / "split")]) == 0
            assert main(["train", "--model", "lstm", "--data", data_dir, "--split", split,
                         "--config", cfg, "--out", str(out / "run")]) == 0
            assert main(["evaluate", "--data", data_dir, "--split", split,
                         "--model-file", str(out / "run" / "model.json"),
                         "--out", str(out / "eval")]) == 0
            return {str(f.relative_to(out)): f.read_bytes() for f in out.rglob("*")
                    if f.is_file() and f.name not in ("run_manifest.json", "history.csv")}

        with_sidecar = chain("with", data)
        assert parsed == []
        without = chain("without", str(bare))
        assert len(parsed) == 3 * 9
        assert "run/model.json" in with_sidecar and "eval/summary.json" in with_sidecar
        assert with_sidecar == without

    def test_evaluate_against_truth(self, workspace, tmp_path):
        tmp, data, split_cfg = workspace
        run = self.train(tmp_path, data, split_cfg, "lasso", "runl")
        out = tmp_path / "evalt"
        code = main(["evaluate", "--data", data, "--split", split_cfg,
                     "--model-file", str(run / "model.json"),
                     "--against", "truth", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        counts = summary["reports"][0]["counts"]
        assert counts["evaluated"] == counts["total"]  # truth is dense


    def test_lstm_diagnostic_is_null_without_an_observed_train_day(self, tmp_path):
        synth = write_json(tmp_path / "synth.json", synth_config(include_lsm=True))
        data, blank = tmp_path / "data", tmp_path / "blank"
        assert main(["synth", "--config", synth, "--out", str(data)]) == 0
        split_cfg = write_json(tmp_path / "split.json", temporal_split())
        run = self.train(tmp_path, str(data), split_cfg, "lstm", "run", {"epochs": 5})
        ds = load_dataset(str(data))
        for px in ds.pixels:
            px.target[:365] = np.nan
            px.mask[:365] = False
        save_dataset(ds, str(blank))
        out = tmp_path / "eval"
        assert main(["evaluate", "--data", str(blank), "--split", split_cfg,
                     "--model-file", str(run / "model.json"), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["bias_diagnostic"] is None
        assert summary["reports"][0]["counts"]["evaluated"] == 0
        # with the observations back the diagnostic is there
        assert main(["evaluate", "--data", str(data), "--split", split_cfg,
                     "--model-file", str(run / "model.json"), "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["bias_diagnostic"]


class TestHindcastCommand:
    def test_end_to_end_and_determinism(self, tmp_path):
        cfg = write_json(tmp_path / "h.json", {
            "synthetic": synth_config(rows=2, cols=2, years=4, revisit_days=1, seed=5),
            "training": train_config(epochs=20, unroll_length=90),
            "train_years": 2,
            "window_days": 365,
        })
        out1 = tmp_path / "h1"
        out2 = tmp_path / "h2"
        assert main(["hindcast", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["hindcast", "--config", cfg, "--out", str(out2)]) == 0
        s1 = json.loads((out1 / "hindcast_summary.json").read_text())
        assert "median_lstm_rmse" in s1 and "median_ar_rmse" in s1
        assert (out1 / "hindcast_summary.json").read_bytes() == \
            (out2 / "hindcast_summary.json").read_bytes()
        assert (out1 / "hindcast_rmse.csv").read_bytes() == \
            (out2 / "hindcast_rmse.csv").read_bytes()
        assert (out1 / "model_lstm.json").read_bytes() == \
            (out2 / "model_lstm.json").read_bytes()

        # each pixel's saved order is the one the 2% rule picks from its
        # saved sweep scores
        pixels = json.loads((out1 / "model_ar_p.json").read_text())["payload"]["pixels"]
        assert len(pixels) == 4
        for pid, doc in pixels.items():
            rmse = {int(p): v for p, v in doc["order_rmse"].items()}
            assert sorted(rmse) == list(range(6))
            floor = min(rmse.values())
            assert doc["order"] == min(p for p in rmse if rmse[p] <= floor * 1.02), pid
            assert len(doc["alpha"]) == doc["order"]
        counts = s1["ar_order_counts"]
        assert counts == {str(p): sum(1 for d in pixels.values() if d["order"] == p)
                          for p in range(6)}


    def test_seed_and_data_flags(self, tmp_path):
        synth = synth_config(rows=2, cols=2, years=3, revisit_days=1, seed=5)
        doc = {"synthetic": synth, "training": train_config(epochs=3, unroll_length=60),
               "train_years": 2, "window_days": 365}
        flagged, configured, data = tmp_path / "flagged", tmp_path / "configured", tmp_path / "d"
        assert main(["hindcast", "--config", write_json(tmp_path / "h5.json", doc),
                     "--seed", "8", "--data", str(data), "--out", str(flagged)]) == 0
        doc["synthetic"] = {**synth, "seed": 8}
        assert main(["hindcast", "--config", write_json(tmp_path / "h8.json", doc),
                     "--out", str(configured)]) == 0
        for name in ("hindcast_rmse.csv", "hindcast_summary.json", "model_lstm.json",
                     "model_ar_p.json"):
            assert (flagged / name).read_bytes() == (configured / name).read_bytes(), name
        manifest = json.loads((flagged / "run_manifest.json").read_text())
        assert manifest["seeds"]["synthetic"] == 8
        assert manifest["config"]["synthetic"]["seed"] == 8
        want = generate_synthetic(SyntheticConfig(**doc["synthetic"]))
        got = load_dataset(str(data))
        assert [px.pixel_id for px in got.pixels] == [px.pixel_id for px in want.pixels]
        for a, b in zip(got.pixels, want.pixels):
            for name in ("forcing", "attributes", "target", "mask", "lsm", "truth"):
                x, y = getattr(a, name), getattr(b, name)
                assert (x is None and y is None) or (
                    x.dtype == y.dtype and x.shape == y.shape
                    and x.tobytes() == y.tobytes()), (a.pixel_id, name)


class TestCliErrors:
    def test_unknown_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", "x", "--wat"])
        assert exc.value.code == 1

    def test_negative_seed_flag_exits_one(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(tmp_path / "o"), "--seed", "-1"])
        assert exc.value.code == 1
        assert "--seed must be a non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["split", "--data", "d", "--config", "s.json"],
        ["evaluate", "--data", "d", "--split", "s.json", "--model-file", "m.json"],
    ], ids=["split", "evaluate"])
    def test_seed_flag_on_a_command_without_a_seed_exits_one(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "o"), "--seed", "5"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err

    @pytest.mark.parametrize("model,split", [
        ("lasso_p", {"kind": "spatial_subsample", "stride": 2}),
        ("nn_p", {"kind": "spatial_subsample", "stride": 2}),
        ("ar_p", {"kind": "regional_holdout", "train_regions": ["R00", "R01"]}),
    ])
    def test_point_model_on_pixel_split_exits_one(self, tmp_path, capsys,
                                                   model, split):
        # Per-pixel models are fit and scored on each pixel's own series, so
        # a split whose test pixels were never trained on is rejected.
        synth = write_json(tmp_path / "synth.json", {
            "rows": 4, "cols": 4, "years": 1, "revisit_days": 2, "seed": 3,
            "region_layout": [2, 2]})
        data = tmp_path / "data"
        assert main(["synth", "--config", synth, "--out", str(data)]) == 0
        out = tmp_path / "run"
        code = main(["train", "--model", model, "--data", str(data),
                     "--split", write_json(tmp_path / "split.json", split),
                     "--out", str(out)])
        assert code == 1
        assert "temporal split" in capsys.readouterr().err
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("argv", [["split", "--data", "d"], ["hindcast"]],
                             ids=["split", "hindcast"])
    def test_command_without_config_exits_one(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "o")])
        assert exc.value.code == 1
        assert f"{argv[0]} requires --config" in capsys.readouterr().err

    @pytest.mark.parametrize("k,named", [(0, 1), (2, 2)], ids=["first", "later"])
    def test_pixels_disagreeing_on_lsm_exit_one(self, workspace, tmp_path, capsys, k, named):
        # Every pixel CSV has the lsm column or none does; whichever pixel
        # differs from pixels[0] is named with the manifest.
        _, _, split_cfg = workspace
        ds = generate_synthetic(SyntheticConfig(**synth_config(include_lsm=True)))
        ds.pixels[k].lsm = None
        data = str(tmp_path / "mixed")
        save_dataset(ds, data)
        code = main(["train", "--model", "lasso", "--data", data, "--split", split_cfg,
                     "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert os.path.join(data, "manifest.json") in err and f"pixels[{named}]" in err

    def test_against_truth_without_truth_exits_one(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        save_dataset(golden.golden_dataset(), data)
        split = write_json(tmp_path / "split.json", golden.golden_split().to_dict())
        code = main(["evaluate", "--data", data, "--split", split, "--against", "truth",
                     "--model-file", golden.CONTAINER, "--out", str(tmp_path / "ev")])
        assert code == 1
        assert "truth" in capsys.readouterr().err

    def test_materialized_split_with_overlapping_windows_exits_one(self, workspace,
                                                                   tmp_path, capsys):
        _, data, split_cfg = workspace
        run = tmp_path / "run"
        assert main(["train", "--model", "ar_p", "--data", data,
                     "--split", split_cfg, "--out", str(run)]) == 0
        assert main(["split", "--data", data, "--config", split_cfg,
                     "--out", str(tmp_path / "s")]) == 0
        doc = json.loads((tmp_path / "s" / "split.json").read_text())
        leaky = write_json(tmp_path / "leaky.json",
                           {**doc, "train_window": [0, 400], "test_window": [300, 730]})
        for argv in (["train", "--model", "ar_p"],
                     ["evaluate", "--model-file", str(run / "model.json")]):
            code = main(argv + ["--data", data, "--split", leaky,
                                "--out", str(tmp_path / argv[0])])
            assert code == 1
            assert "windows overlap" in capsys.readouterr().err

    def test_point_model_evaluated_on_pixel_split_exits_one(self, workspace,
                                                            tmp_path, capsys):
        _, data, split_cfg = workspace
        run = tmp_path / "run"
        assert main(["train", "--model", "lasso_p", "--data", data,
                     "--split", split_cfg, "--out", str(run)]) == 0
        spatial = write_json(tmp_path / "spatial.json",
                             {"kind": "spatial_subsample", "stride": 2})
        code = main(["evaluate", "--data", data, "--split", spatial,
                     "--model-file", str(run / "model.json"),
                     "--out", str(tmp_path / "ev")])
        assert code == 1
        assert "temporal split" in capsys.readouterr().err

    def test_container_missing_field_exits_one(self, workspace, tmp_path, capsys):
        _, data, split_cfg = workspace
        run = tmp_path / "run"
        assert main(["train", "--model", "ar_p", "--data", data,
                     "--split", split_cfg, "--out", str(run)]) == 0
        doc = json.loads((run / "model.json").read_text())
        for pixel in doc["payload"]["pixels"].values():
            del pixel["gamma"]
        broken = write_json(tmp_path / "broken.json", doc)
        code = main(["evaluate", "--data", data, "--split", split_cfg,
                     "--model-file", broken, "--out", str(tmp_path / "ev")])
        assert code == 1
        err = capsys.readouterr().err
        assert "gamma" in err and f"{broken}: " in err

    def evaluate_edited(self, workspace, tmp_path, model, edit):
        """Train ``model``, apply ``edit`` to its payload, evaluate the result."""
        _, data, split_cfg = workspace
        run = tmp_path / "run"
        assert main(["train", "--model", model, "--data", data,
                     "--split", split_cfg, "--out", str(run)]) == 0
        doc = json.loads((run / "model.json").read_text())
        edit(doc["payload"])
        broken = write_json(tmp_path / "broken.json", doc)
        return main(["evaluate", "--data", data, "--split", split_cfg,
                     "--model-file", broken, "--out", str(tmp_path / "ev")])

    def error_names(self, capsys, tmp_path, needle):
        """Whether the error printed names ``needle`` and the edited container."""
        err = capsys.readouterr().err
        return needle in err and f"error: {tmp_path / 'broken.json'}: " in err

    def test_container_pixels_not_an_object_exits_one(self, workspace, tmp_path, capsys):
        code = self.evaluate_edited(workspace, tmp_path, "lasso_p", lambda payload: payload.update(
            pixels=list(payload["pixels"].values())))
        assert code == 1
        assert self.error_names(capsys, tmp_path, "'pixels'")

    @pytest.mark.parametrize("field,value", [("include_lsm", "no"),
                                             ("include_attributes", None)])
    def test_container_feature_flag_of_wrong_type_exits_one(self, workspace, tmp_path,
                                                             capsys, field, value):
        code = self.evaluate_edited(workspace, tmp_path, "lasso",
                                    lambda payload: payload.update({field: value}))
        assert code == 1
        assert self.error_names(capsys, tmp_path, f"model container field '{field}'")

    def test_container_ar_gamma_one_short_exits_one(self, workspace, tmp_path, capsys):
        def drop_last(payload):
            for pixel in payload["pixels"].values():
                pixel["gamma"] = pixel["gamma"][:-1]
        assert self.evaluate_edited(workspace, tmp_path, "ar_p", drop_last) == 1
        assert self.error_names(capsys, tmp_path, "'gamma'")

    def test_container_non_numeric_lasso_beta_exits_one(self, workspace, tmp_path, capsys):
        code = self.evaluate_edited(workspace, tmp_path, "lasso",
                                    lambda payload: payload.update(beta="abc"))
        assert code == 1
        assert self.error_names(capsys, tmp_path, "'beta'")

    @pytest.mark.parametrize("model,edit,field", [
        ("lasso", lambda payload: payload.update({"lambda": "abc"}), "lambda"),
        ("lasso", lambda payload: payload.update(converged="maybe"), "converged"),
        ("nn_p", lambda payload: each_pixel(payload, degenerate="yes"), "degenerate"),
        ("nn_p", lambda payload: each_pixel(payload, hidden_size=999), "hidden_size"),
        ("nn_p", lambda payload: each_pixel(payload, l2="x"), "l2"),
        ("ar_p", lambda payload: each_pixel(payload, order=4, alpha=[0.5]), "order"),
        ("ar_p", lambda payload: each_pixel(payload, order_rmse="junk"), "order_rmse"),
        ("ar_p", lambda payload: each_pixel(payload, order_rmse={"0": "junk"}), "order_rmse"),
        ("ar_p", lambda payload: payload.update(flags=7), "flags"),
    ], ids=["lasso_lambda_str", "lasso_converged_str", "nn_p_degenerate_str",
            "nn_p_hidden_size_not_W1_rows", "nn_p_l2_str", "ar_p_order_not_alpha_length",
            "ar_p_order_rmse_str", "ar_p_order_rmse_entry_str", "ar_p_flags_number"])
    def test_container_field_of_wrong_type_or_shape_exits_one(self, workspace, tmp_path,
                                                              capsys, model, edit, field):
        assert self.evaluate_edited(workspace, tmp_path, model, edit) == 1
        assert self.error_names(capsys, tmp_path, f"'{field}'")

    @pytest.mark.parametrize("field", ["feature_names", "normalization", "include_lsm",
                                       "include_attributes"])
    @pytest.mark.parametrize("model", ["lasso_p", "nn_p"])
    def test_container_pixel_unlike_its_container_exits_one(self, workspace, tmp_path, capsys,
                                                            model, field):
        # A pixel's feature_names are its container's, it has no statistics,
        # and only the container says which inputs the model reads: a pixel
        # holding include_* fails even with the container's own value.
        first = []

        def edit(payload):
            first.append(next(iter(payload["pixels"])))
            wrong = {"feature_names": payload["feature_names"][::-1],
                     "normalization": payload["normalization"]}
            each_pixel(payload, **{field: wrong.get(field, payload.get(field, True))})
        assert self.evaluate_edited(workspace, tmp_path, model, edit) == 1
        assert self.error_names(capsys, tmp_path, f"pixels[{first[0]!r}] field '{field}'")

    def test_container_unknown_top_level_key_exits_one(self, workspace, tmp_path, capsys):
        _, data, split_cfg = workspace
        run = tmp_path / "run"
        assert main(["train", "--model", "lasso", "--data", data,
                     "--split", split_cfg, "--out", str(run)]) == 0
        doc = json.loads((run / "model.json").read_text())
        doc["colour"] = "red"
        broken = write_json(tmp_path / "broken.json", doc)
        assert main(["evaluate", "--data", data, "--split", split_cfg,
                     "--model-file", broken, "--out", str(tmp_path / "ev")]) == 1
        assert self.error_names(capsys, tmp_path, "'colour'")

    def test_non_finite_csv_cell_exits_one(self, workspace, tmp_path, capsys):
        _, data, split_cfg = workspace
        path = os.path.join(data, "px_1_1.csv")
        with open(path) as fh:
            lines = fh.readlines()
        cells = lines[9].split(",")
        cells[-1] = "inf\r\n"
        lines[9] = ",".join(cells)
        with open(path, "w", newline="") as fh:
            fh.writelines(lines)
        code = main(["train", "--model", "lasso", "--data", data,
                     "--split", split_cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "px_1_1.csv:10: non-finite value 'inf'" in capsys.readouterr().err

    @pytest.mark.parametrize("field,edit", [
        ("test_pixels", lambda doc: doc["test_pixels"].append("px_9_9")),
        ("test_window", lambda doc: doc.pop("test_window")),
        ("test_window", lambda doc: doc.update(test_window=[365, 900])),
        ("train_window", lambda doc: doc.update(train_window=[300, 200])),
        ("spec", lambda doc: doc.update(spec=["temporal"])),
    ], ids=["unknown_pixel", "missing_key", "window_past_end", "window_reversed", "spec"])
    def test_bad_materialized_split_exits_one(self, workspace, tmp_path, capsys,
                                              field, edit):
        _, data, split_cfg = workspace
        assert main(["split", "--data", data, "--config", split_cfg,
                     "--out", str(tmp_path / "s")]) == 0
        doc = json.loads((tmp_path / "s" / "split.json").read_text())
        edit(doc)
        code = main(["train", "--model", "lasso", "--data", data,
                     "--split", write_json(tmp_path / "bad.json", doc),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"'{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("needle,edit", [
        ("'W_fh'", lambda payload: payload["weights"]["W_fh"][0].__setitem__(0, float("nan"))),
        ("normalization section field 'mean'",
         lambda payload: payload["normalization"]["mean"].__setitem__(0, float("nan"))),
        ("normalization section: fields 'mean' and 'std'",
         lambda payload: payload["normalization"]["std"].pop()),
        ("normalization section: field 'std'",
         lambda payload: payload["normalization"]["std"].__setitem__(0, 0.0)),
        ("field 'config'", lambda payload: payload.update(config="junk")),
        # checked before the weights of these sizes would be allocated
        ("weights field 'W_gx' has shape (4, 3), not (100000000, 3)",
         lambda payload: payload.update(hidden_size=10**8)),
        ("unknown field(s) ['colour']", lambda payload: payload.update(colour="red")),
        ("normalization section has unknown field(s) ['colour']",
         lambda payload: payload["normalization"].update(colour="red")),
        # a true among numbers must not load as 1.0
        ("field 'W_fh'", lambda payload: payload["weights"]["W_fh"][0].__setitem__(0, True)),
        ("normalization section field 'mean'",
         lambda payload: payload["normalization"]["mean"].__setitem__(0, True)),
    ], ids=["nan_weight", "nan_mean", "std_one_short", "zero_std", "config_str",
            "huge_hidden_size", "unknown_key", "normalization_unknown_key", "bool_weight",
            "bool_mean"])
    def test_malformed_lstm_container_exits_one(self, tmp_path, capsys, needle, edit):
        data = str(tmp_path / "data")
        save_dataset(golden.golden_dataset(), data)
        split = write_json(tmp_path / "split.json", golden.golden_split().to_dict())
        with open(golden.CONTAINER) as fh:
            doc = json.load(fh)
        edit(doc["payload"])
        code = main(["evaluate", "--data", data, "--split", split,
                     "--model-file", write_json(tmp_path / "bad.json", doc),
                     "--out", str(tmp_path / "ev")])
        assert code == 1
        err = capsys.readouterr().err
        assert needle in err and f"error: {tmp_path / 'bad.json'}: " in err

    def test_failed_run_still_writes_its_manifest(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        save_dataset(golden.golden_dataset(), data)
        split = write_json(tmp_path / "split.json", golden.golden_split().to_dict())
        with open(golden.CONTAINER) as fh:
            doc = json.load(fh)
        doc["payload"]["weights"]["W_fh"][0][0] = float("nan")
        out = tmp_path / "ev"
        code = main(["evaluate", "--data", data, "--split", split,
                     "--model-file", write_json(tmp_path / "bad.json", doc),
                     "--out", str(out)])
        assert code == 1
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "error" and manifest["exit_code"] == 1
        assert "'W_fh'" in manifest["error"]
        assert manifest["command"] == "evaluate"

    def test_missing_data_exits_one(self, tmp_path, capsys):
        split_cfg = write_json(tmp_path / "s.json", temporal_split())
        code = main(["train", "--model", "lstm", "--data", str(tmp_path / "nope"),
                     "--split", split_cfg, "--out", str(tmp_path / "o")])
        assert code == 1

    def test_malformed_manifest_entry_exits_one(self, workspace, tmp_path, capsys):
        _, data, split_cfg = workspace
        manifest_path = os.path.join(data, "manifest.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        manifest["pixels"][0]["attributes"] = "0.4,0.1"
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        code = main(["train", "--model", "lstm", "--data", data,
                     "--split", split_cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "pixels[0] section field 'attributes'" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,needle", [
        (lambda m: m["pixels"][0].update(region=7), "pixels[0] section field 'region'"),
        (lambda m: m.update(attribute_names=list(range(len(m["attribute_names"])))),
         "field 'attribute_names'"),
        (lambda m: m["pixels"][1].update(colour="red"),
         "pixels[1] section has unknown field(s) ['colour']"),
        (lambda m: m["pixels"][1].update(id=m["pixels"][0]["id"]),
         "duplicate pixel id 'px_0_0'"),
    ], ids=["int_region", "int_attribute_names", "unknown_pixel_key", "duplicate_id"])
    def test_malformed_manifest_exits_one(self, workspace, tmp_path, capsys, edit, needle):
        _, data, split_cfg = workspace
        manifest_path = os.path.join(data, "manifest.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        edit(manifest)
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        code = main(["split", "--data", data, "--config", split_cfg,
                     "--out", str(tmp_path / "s")])
        assert code == 1
        assert needle in capsys.readouterr().err

    def test_degenerate_training_data_exits_two(self, tmp_path, capsys):
        # a dataset with no observations at all loads fine but cannot train
        n_days = 120
        rng = np.random.default_rng(0)
        pixels = [PixelSeries(
            pixel_id=f"px_0_{c}", row=0, col=c,
            forcing=rng.normal(size=(n_days, 1)),
            attributes=np.array([0.5]),
            target=np.full(n_days, np.nan),
            mask=np.zeros(n_days, dtype=bool)) for c in range(2)]
        ds = GridDataset(rows=1, cols=2, start_date=dt.date(2000, 1, 1),
                         n_days=n_days, forcing_names=["precip"],
                         attribute_names=["a0"], pixels=pixels).validate()
        data = tmp_path / "empty"
        save_dataset(ds, str(data))
        split_cfg = write_json(tmp_path / "s.json", {
            "kind": "temporal",
            "train_window": ["2000-01-01", "2000-02-29"],
            "test_window": ["2000-03-01", "2000-04-29"]})
        cfg = write_json(tmp_path / "t.json", train_config(unroll_length=30, batch_size=2))
        code = main(["train", "--model", "lstm", "--data", str(data),
                     "--split", split_cfg, "--config", cfg,
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "failure" in capsys.readouterr().err


class TestConfigValidation:
    @pytest.mark.parametrize("section,needle", [
        ({"baselines": {"lasso_lamda": 5.0}}, "lasso_lamda"),
        ({"features": {"include_lms": False}}, "include_lms"),
        ({"baselines": [1, 2]}, "'baselines' must be a JSON object"),
        ({"baselines": {"ar_max_order": 9}}, "ar_max_order"),
    ], ids=["misspelt_baseline", "misspelt_feature", "section_not_object",
            "ar_order_out_of_range"])
    def test_bad_train_config_exits_one(self, workspace, tmp_path, capsys, section, needle):
        _, data, split_cfg = workspace
        cfg = write_json(tmp_path / "train.json", {**train_config(), **section})
        out = tmp_path / "run"
        code = main(["train", "--model", "ar_p", "--data", data, "--split", split_cfg,
                     "--config", cfg, "--out", str(out)])
        assert code == 1
        assert needle in capsys.readouterr().err
        assert not (out / "model.json").exists()

    def test_manifest_records_resolved_baselines(self, workspace, tmp_path):
        _, data, split_cfg = workspace
        cfg = write_json(tmp_path / "train.json",
                         {**train_config(), "baselines": {"lasso_lambda": 0.01}})
        out = tmp_path / "run"
        assert main(["train", "--model", "lasso", "--data", data, "--split", split_cfg,
                     "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["baselines"] == {
            "lasso_lambda": 0.01, "ffnn_hidden": 100, "ffnn_hidden_point": 30,
            "ffnn_l2": 0.002, "ffnn_epochs": 400, "ar_max_order": 5}
        doc = json.loads((out / "model.json").read_text())
        assert doc["payload"]["lambda"] == 0.01

    @pytest.mark.parametrize("doc,needle", [
        ({"synthetic": synth_config(), "train_yaers": 2}, "train_yaers"),
        ({"synthetic": [1, 2]}, "synthetic section must be a JSON object"),
        ({"synthetic": synth_config(), "ar_max_order": 6}, "ar_max_order"),
        ({"synthetic": synth_config(years=3), "window_days": 0}, "window_days"),
    ], ids=["misspelt_key", "section_not_object", "ar_order_out_of_range",
            "empty_window"])
    def test_bad_hindcast_config_exits_one(self, tmp_path, capsys, doc, needle):
        cfg = write_json(tmp_path / "h.json", {"training": train_config(epochs=2), **doc})
        code = main(["hindcast", "--config", cfg, "--out", str(tmp_path / "h")])
        assert code == 1
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize("command,edit,needle", [
        ("synth", {"seed": -1}, "seed must be >= 0"),
        ("train", {"seed": -1}, "seed must be >= 0"),
        ("hindcast", {"training": train_config(seed=-1)}, "seed must be >= 0"),
        ("synth", {"porosity": [0.5, 0.3]}, "'porosity' must be a [low, high] range"),
        ("synth", {"depth_mm": [300.0, 200.0]}, "'depth_mm' must be a [low, high] range"),
        ("synth", {"wet_day_prob": [1.5, 2.0]}, "'wet_day_prob' must lie in [0, 1]"),
        ("synth", {"wet_day_prob": [-0.1, 0.5]}, "'wet_day_prob' must lie in [0, 1]"),
    ], ids=["synth_seed", "train_seed", "hindcast_training_seed", "porosity_reversed",
            "depth_reversed", "wet_day_prob_above_one", "wet_day_prob_below_zero"])
    def test_out_of_range_value_exits_one(self, workspace, tmp_path, capsys, command, edit,
                                          needle):
        assert self.run_edited(workspace, tmp_path, command, edit) == 1
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize("command,edit,field", [
        ("train", {"hidden_size": "4"}, "hidden_size"),
        ("train", {"hidden_size": 4.5}, "hidden_size"),
        ("train", {"learning_rate": "0.01"}, "learning_rate"),
        ("train", {"epochs": True}, "epochs"),
        ("train", {"dropout": 0.5}, "dropout"),
        ("train", {"dropout": {"variant": "none", "rat": 0.3}}, "rat"),
        ("train", {"features": {"include_lsm": "no"}}, "include_lsm"),
        ("synth", {"rows": "3"}, "rows"),
        ("synth", {"porosity": 0.45}, "porosity"),
        ("synth", {"noise_param": "0.1"}, "noise_param"),
        ("synth", {"years": 1.5}, "years"),
        ("split", {"kind": "spatial_subsample", "stride": "2"}, "stride"),
        ("split", {"train_window": "2000-01-01"}, "train_window"),
        ("hindcast", {"train_years": "2"}, "train_years"),
        ("hindcast", {"train_years": 1.5}, "train_years"),
        ("hindcast", {"window_days": "300"}, "window_days"),
        ("hindcast", {"training": 5}, "training"),
    ], ids=["train_hidden_str", "train_hidden_float", "train_lr_str", "train_epochs_bool",
            "train_dropout_number", "train_dropout_misspelt", "train_include_lsm_str",
            "synth_rows_str", "synth_porosity_number", "synth_noise_str", "synth_years_float",
            "split_stride_str", "split_window_str", "hindcast_years_str",
            "hindcast_years_float", "hindcast_window_str", "hindcast_training_number"])
    def test_wrong_json_type_exits_one(self, workspace, tmp_path, capsys, command, edit,
                                       field):
        assert self.run_edited(workspace, tmp_path, command, edit) == 1
        assert f"'{field}'" in capsys.readouterr().err

    def run_edited(self, workspace, tmp_path, command, edit):
        """The exit code of ``command`` run on a valid config updated by ``edit``."""
        _, data, split_cfg = workspace
        docs = {
            "train": lambda: {**train_config(), **edit},
            "synth": lambda: synth_config(**edit),
            "split": lambda: {**temporal_split(), **edit},
            "hindcast": lambda: {"synthetic": synth_config(rows=2, cols=2, years=3),
                                 "training": train_config(epochs=2), **edit},
        }
        cfg = write_json(tmp_path / "bad.json", docs[command]())
        argv = {"train": ["train", "--model", "lasso", "--data", data, "--split", split_cfg],
                "split": ["split", "--data", data]}.get(command, [command])
        return main(argv + ["--config", cfg, "--out", str(tmp_path / "out")])
