"""Tests of the benchmark itself: each workload passes its checks at a toy
size, and each check fails on a deliberately corrupted output.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import copy
import csv
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import hlstm.cli  # noqa: E402
import hlstm.dataset  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def toy(name):
    return workloads.WORKLOADS[name](**workloads.TOY[name])


def one_round(name, workdir):
    wl = toy(name)
    inputs = wl.setup(SEED, os.path.join(workdir, "setup"))
    rnd = wl.round(inputs, os.path.join(workdir, "round-0"))
    return wl, inputs, rnd


def recheck(wl, inputs, rnd, first=None, **out):
    """Check a copy of ``rnd`` whose outputs are replaced by ``out``."""
    bad = copy.copy(rnd)
    bad.failed = {}
    if isinstance(rnd.out, dict):
        bad.out = {**rnd.out, **out}
    elif "value" in out:
        bad.out = out["value"]
    wl.check(inputs, bad, first)
    return bad.failed


@pytest.fixture(scope="module")
def train_run(tmp_path_factory):
    wl, ds, rnd = one_round("train", str(tmp_path_factory.mktemp("train")))
    assert not rnd.failed, rnd.failed
    return wl, ds, rnd


@pytest.fixture(scope="module")
def hindcast_run(tmp_path_factory):
    wl, ds, rnd = one_round("hindcast", str(tmp_path_factory.mktemp("hindcast")))
    assert not rnd.failed, rnd.failed
    return wl, ds, rnd


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    wl, inputs, rnd = one_round("cli", str(tmp_path_factory.mktemp("cli")))
    assert not rnd.failed, rnd.failed
    return wl, inputs, rnd


class TestTrain:
    def test_toy_round_passes_its_checks(self, train_run):
        wl, ds, rnd = train_run
        assert recheck(wl, ds, rnd) == {}
        assert recheck(wl, ds, rnd, first=rnd) == {}

    def test_perturbed_prediction_fails_the_reference_lstm(self, train_run):
        wl, ds, rnd = train_run
        Y = rnd.out["Y"].copy()
        Y[0, 3] += 1e-7
        assert "reference LSTM" in recheck(wl, ds, rnd, Y=Y).get("predict", "")

    def test_misreported_score_fails(self, train_run):
        wl, ds, rnd = train_run
        scores = list(rnd.out["scores"])
        scores[1] *= 1.001
        assert "rmse" in recheck(wl, ds, rnd, scores=scores).get("score", "")

    def test_poor_predictions_fail_the_climatology_bar(self, train_run):
        wl, ds, rnd = train_run
        Y = rnd.out["Y"] + 0.03
        scores = [float(np.sqrt(np.mean((Y[k] - ds.pixels[k].truth) ** 2)))
                  for k in rnd.out["held"]]
        failed = recheck(wl, ds, rnd, Y=Y, scores=scores)
        assert "climatology" in failed.get("score", "")

    def test_loss_that_did_not_fall_fails(self, train_run):
        wl, ds, rnd = train_run
        history = [dict(row) for row in rnd.out["history"]]
        history[-1]["loss"] = history[0]["loss"] * 2
        assert "final loss" in recheck(wl, ds, rnd, history=history).get("train", "")

    def test_repeated_round_must_match_the_first(self, train_run):
        wl, ds, rnd = train_run
        Y = rnd.out["Y"].copy()
        Y[-1, -1] = np.nextafter(Y[-1, -1], 1.0)
        assert "predict" in recheck(wl, ds, rnd, first=rnd, Y=Y)


class TestHindcast:
    def test_toy_round_passes_its_checks(self, hindcast_run):
        wl, ds, rnd = hindcast_run
        assert recheck(wl, ds, rnd) == {}
        assert recheck(wl, ds, rnd, first=rnd) == {}

    def _result(self, rnd, **summary):
        res = copy.deepcopy(rnd.out)
        res.summary.update(summary)
        return res

    def test_lstm_above_noise_bound_fails(self, hindcast_run):
        wl, ds, rnd = hindcast_run
        res = self._result(rnd, median_lstm_rmse=0.051, median_ar_rmse=0.06)
        assert "1.25 sigma" in recheck(wl, ds, rnd, value=res)["hindcast"]

    def test_lstm_not_below_ar_fails(self, hindcast_run):
        wl, ds, rnd = hindcast_run
        lstm = rnd.out.summary["median_lstm_rmse"]
        res = self._result(rnd, median_ar_rmse=lstm)
        assert "not below AR" in recheck(wl, ds, rnd, value=res)["hindcast"]

    def test_ar_coefficients_off_least_squares_fail(self, hindcast_run):
        wl, ds, rnd = hindcast_run
        res = self._result(rnd)
        res.models["ar_p"][0].c += 1e-6
        assert "least squares" in recheck(wl, ds, rnd, value=res)["hindcast"]

    def test_repeated_round_must_match_the_first(self, hindcast_run):
        wl, ds, rnd = hindcast_run
        res = self._result(rnd)
        res.rmse_rows[0]["rmse"] *= 1 + 1e-12
        assert "first round" in recheck(wl, ds, rnd, first=rnd, value=res)["hindcast"]


class TestCli:
    def _copy(self, rnd, tmp_path):
        dest = str(tmp_path / "round")
        shutil.copytree(rnd.out, dest)
        return dest

    def test_toy_round_passes_its_checks(self, cli_run):
        wl, inputs, rnd = cli_run
        assert recheck(wl, inputs, rnd) == {}
        assert rnd.rmse is not None

    def test_dropped_csv_row_fails_the_readback(self, cli_run, tmp_path):
        wl, inputs, rnd = cli_run
        out = self._copy(rnd, tmp_path)
        path = os.path.join(out, "data", "px_1_1.csv")
        with open(path) as fh:
            lines = fh.readlines()
        with open(path, "w") as fh:
            fh.writelines(lines[:10] + lines[11:])
        assert "px_1_1" in recheck(wl, inputs, rnd, value=out).get("synth", "")

    def test_comparison_median_off_the_per_pixel_rows_fails(self, cli_run, tmp_path):
        wl, inputs, rnd = cli_run
        out = self._copy(rnd, tmp_path)
        path = os.path.join(out, "eval", "metrics_per_pixel.csv")
        with open(path) as fh:
            lines = fh.readlines()
        with open(path, "w") as fh:
            fh.writelines(lines[:1] + lines[2:])
        assert "median" in recheck(wl, inputs, rnd, value=out).get("evaluate", "")

    def test_lasso_off_its_optimum_fails_kkt(self, cli_run, tmp_path):
        wl, inputs, rnd = cli_run
        out = self._copy(rnd, tmp_path)
        path = os.path.join(out, "model_lasso", "model.json")
        with open(path) as fh:
            doc = json.load(fh)
        doc["payload"]["beta"][0] += 1e-3
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert "KKT" in recheck(wl, inputs, rnd, value=out).get("train_lasso", "")

    def test_model_worse_than_climatology_fails(self, cli_run, tmp_path):
        wl, inputs, rnd = cli_run
        out = self._copy(rnd, tmp_path)
        path = os.path.join(out, "eval", "comparison.csv")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            if row["model"] == "nn_p" and row["phase"] == "test":
                row["median_rmse"] = "1"
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        failed = recheck(wl, inputs, rnd, value=out)
        assert "climatology" in failed.get("train_nn_p", "")

    def test_repeated_round_must_match_the_first(self, cli_run, tmp_path):
        wl, inputs, rnd = cli_run
        out = self._copy(rnd, tmp_path)
        with open(os.path.join(out, "model_ar_p", "model.json"), "a") as fh:
            fh.write(" ")
        assert "first round" in recheck(wl, inputs, rnd, first=rnd, value=out)["evaluate"]

    def test_nonzero_exit_fails_the_operation_and_the_rest_of_the_round(self, tmp_path):
        wl = toy("cli")
        inputs = wl.setup(SEED, str(tmp_path / "setup"))
        os.remove(inputs["paths"]["split.json"])
        rnd = wl.round(inputs, str(tmp_path / "round-0"))
        assert "exited 1" in rnd.failed["split"]
        assert sorted(rnd.failed) == sorted(wl.ops[1:])


class TestTracing:
    def test_self_times_account_for_the_round_and_originals_return(self, tmp_path):
        original = hlstm.dataset.load_dataset
        wl = toy("cli")
        inputs = wl.setup(SEED, str(tmp_path / "setup"))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert hlstm.cli.load_dataset is not original
            tracer.begin("round-0")
            rnd = wl.round(inputs, str(tmp_path / "round-0"))
            tracer.end()
        finally:
            tracer.uninstall()
        assert not rnd.failed
        assert hlstm.cli.load_dataset is original and hlstm.dataset.load_dataset is original
        start, end = tracer.run_walls["round-0"]
        per_round = tracer.per_run()["round-0"]
        total = sum(v for name, v in per_round.items() if name.endswith(".s"))
        assert total == pytest.approx(end - start, abs=1e-6)
        layers = tracer.layer_metrics()
        assert layers["dataset.load.calls"] == 7
        assert layers["baselines.fit_ar.calls"] > 0
        assert 0 <= layers["baselines.fit_ar.failed"] <= layers["baselines.fit_ar.calls"]
        fitted = layers["baselines.fit_ar.calls"] - layers["baselines.fit_ar.failed"]
        sweeps = wl.rows * wl.cols  # ar_p sweeps the orders once per pixel
        assert layers["baselines.ar_kept_per_fit"] == pytest.approx(sweeps / fitted)
        assert all(v >= 0 for v in layers.values())

    @pytest.mark.parametrize("raised, kept_per_fit", [(5, 1.0), (0, 1 / 6)])
    def test_ar_kept_per_fit_counts_only_fits_that_returned(self, raised, kept_per_fit):
        tracer = tracing.Tracer(functions=[])
        tracer.run_walls["round-0"] = (0.0, 7.0)
        tracer.spans = [["baselines.ar_sweep", 0.0, 7.0, -1, "round-0", False]]
        tracer.spans += [["baselines.fit_ar", k, k + 1.0, 0, "round-0", k < raised]
                         for k in range(6)]
        tracer.counts = [["_ar_sweeps", 1, "round-0"]]
        assert tracer.per_run()["round-0"]["baselines.ar_kept_per_fit"] == kept_per_fit

    def test_benchmark_json_lists_exactly_the_reported_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        layers = tracing.Tracer().layer_metrics()
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
            name: run.layer_unit(name) for name in layers}
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
        assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
