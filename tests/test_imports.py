"""The runtime uses only the standard library and numpy, and gives the
benchmark's tracer and checks what they read."""

import ast
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from hlstm import baselines, lstm, modelio
from hlstm.cli import main
from hlstm.experiments import run_hindcast_experiment
from hlstm.synthetic import SyntheticConfig, generate_synthetic
from hlstm.training import TrainingConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "hlstm"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "hlstm"}


def test_runtime_imports_only_stdlib_numpy_and_hlstm():
    seen, outside = set(), []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue   # relative imports stay inside hlstm
            seen.update(tops)
            outside += [f"{path.name}:{node.lineno} {top}" for top in tops
                        if top not in ALLOWED]
    assert "numpy" in seen and "json" in seen   # the walk reached the imports
    assert not outside, outside


def test_benchmark_tracer_finds_every_function_it_wraps(monkeypatch):
    # perfbench's tracer looks each (owner, attr) up by name when a traced run
    # starts, so deleting or renaming one breaks every `run.py --trace 1`.
    monkeypatch.syspath_prepend(str(SRC.parent.parent / "perfbench"))
    import tracing

    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in tracing.LAYER_FUNCTIONS
               if not callable(getattr(owner, attr, None))]
    assert len(tracing.LAYER_FUNCTIONS) > 20 and not missing, missing


def test_benchmark_tracer_reads_what_the_fits_return(monkeypatch):
    # The tracer counts lasso sweeps and network epochs off each fit's
    # result, so those diagnostics stay attributes of the fitted models.
    monkeypatch.syspath_prepend(str(SRC.parent.parent / "perfbench"))
    import tracing

    counters = {attr: counts for owner, attr, _, counts in tracing.LAYER_FUNCTIONS
                if owner is baselines}
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 3))
    y = X @ np.array([0.5, -0.2, 0.1]) + 0.1 * rng.normal(size=40)
    lasso = baselines.fit_lasso(X, y, lam=0.01)
    nn = baselines.fit_ffnn(X, y, hidden_size=3, max_epochs=5)
    assert counters["fit_lasso"]["baselines.lasso.sweeps"]((X, y), {"lam": 0.01}, lasso) \
        == lasso.n_sweeps >= 1
    assert counters["fit_ffnn"]["baselines.ffnn.epochs"]((X, y), {}, nn) == nn.epochs_run == 5


def test_benchmark_hindcast_check_reads_ar_models_in_pixel_order(monkeypatch):
    # The hindcast workload zips models["ar_p"] with the dataset's pixels and
    # refits each pixel's c, alpha and gamma at its order p by least squares.
    monkeypatch.syspath_prepend(str(SRC.parent.parent / "perfbench"))
    import checks

    ds = generate_synthetic(SyntheticConfig(rows=2, cols=2, years=3, seed=5))
    res = run_hindcast_experiment(ds, train_days=730, lstm_config=TrainingConfig(
        hidden_size=4, unroll_length=30, batch_size=4, epochs=2))
    ar = res.models["ar_p"]
    assert type(ar) is list and len(ar) == len(ds.pixels)
    assert all(type(model) is baselines.ArModel for model in ar)
    forcing = np.concatenate([px.forcing for px in ds.pixels])
    mean, std = forcing.mean(axis=0), forcing.std(axis=0)
    h_end = ds.n_days - 730
    for px, model in zip(ds.pixels, ar):
        ref = checks.ar_reference(np.nan_to_num(px.target[h_end:]), px.mask[h_end:],
                                  (px.forcing[h_end:] - mean) / std, model.p)
        got = np.concatenate([[model.c], model.alpha, model.gamma])
        assert np.allclose(got, ref, rtol=1e-8, atol=1e-10), px.pixel_id


def test_benchmark_hindcast_predicts_the_spin_up_and_the_hindcast_days(monkeypatch):
    # The tracer's lstm.predict.pixel_days sums pixels x days over a round's
    # predict_sequence calls, and the hindcast workload's prediction rate
    # divides it by their time: each pixel predicts a 365-day spin-up and the
    # h_end hindcast days, so that rate stays comparable across versions.
    monkeypatch.syspath_prepend(str(SRC.parent.parent / "perfbench"))
    import tracing

    ds = generate_synthetic(SyntheticConfig(rows=2, cols=3, years=3, seed=8))
    tracer = tracing.Tracer(tracing.STAGE_FUNCTIONS)
    tracer.install()
    try:
        tracer.begin("round-0")
        run_hindcast_experiment(ds, train_days=700, lstm_config=TrainingConfig(
            hidden_size=4, unroll_length=30, batch_size=4, epochs=2))
        tracer.end()
    finally:
        tracer.uninstall()
    assert tracer.per_run()["round-0"]["lstm.predict.pixel_days"] == 6 * (365 + ds.n_days - 700)


def test_benchmark_train_check_reads_the_batch_layout(monkeypatch):
    # The train workload predicts (pixels, days, 1) and compares each pixel's
    # series with a gate-by-gate LSTM over the container's per-gate weights.
    monkeypatch.syspath_prepend(str(SRC.parent.parent / "perfbench"))
    import checks

    rng = np.random.default_rng(6)
    w = lstm.init_weights(4, 5, 1, seed=7)
    X = rng.normal(size=(3, 40, 4))
    pred = lstm.predict_sequence(w, X)[..., 0]
    weights = modelio.lstm_payload(w, [], None)["weights"]
    for k in range(len(X)):
        assert np.max(np.abs(checks.lstm_reference(weights, X[k]) - pred[k])) <= 1e-9, k


def test_benchmark_cli_check_reads_one_report_pair_per_kind(monkeypatch, tmp_path, capsys):
    # The cli workload matches each comparison.csv row with the
    # metrics_per_pixel.csv rows of its model and phase, so evaluate writes
    # one report pair per kind and rejects a second container of a kind.
    monkeypatch.syspath_prepend(str(SRC.parent.parent / "perfbench"))
    import checks

    def path(name, doc=None):
        if doc is not None:
            (tmp_path / name).write_text(json.dumps(doc))
        return str(tmp_path / name)

    synth = path("synth.json", {"rows": 3, "cols": 3, "years": 2, "revisit_days": 2, "seed": 4})
    split = path("split.json", {"kind": "temporal", "train_window": ["2000-01-01", "2000-12-30"],
                                "test_window": ["2000-12-31", "2001-12-30"]})
    assert main(["synth", "--config", synth, "--out", path("data")]) == 0
    models = []
    for kind in ("lasso", "ar_p"):
        assert main(["train", "--model", kind, "--data", path("data"), "--split", split,
                     "--out", path(kind)]) == 0
        models += ["--model-file", path(f"{kind}/model.json")]
    evaluate = ["evaluate", "--data", path("data"), "--split", split, "--against", "truth"]
    assert main(evaluate + models + ["--out", path("eval")]) == 0
    comparison = checks.read_csv_rows(path("eval/comparison.csv"))
    per_pixel = checks.read_csv_rows(path("eval/metrics_per_pixel.csv"))
    assert [row["model"] for row in comparison] == ["lasso", "lasso", "ar_p", "ar_p"]
    assert checks.comparison_mismatches(comparison, per_pixel) == []

    shutil.copy(path("lasso/model.json"), path("lasso_again.json"))
    capsys.readouterr()
    code = main(evaluate + models + ["--model-file", path("lasso_again.json"),
                                     "--out", path("eval_twice")])
    assert code == 1
    assert path("lasso_again.json") in capsys.readouterr().err
