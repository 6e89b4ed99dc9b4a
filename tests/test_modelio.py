import json
import math

import numpy as np
import pytest

import golden

from hlstm.baselines import ArModel, BaselineSettings, FfnnModel, LassoModel
from hlstm.dataset import NormalizationStats
from hlstm.errors import DataError, ValidationError
from hlstm.experiments import SplitSpec, make_split, prepare_split
from hlstm.lstm import DropoutSpec, init_weights
from hlstm.modelio import (
    MODEL_KINDS,
    ArPixels,
    LassoPayload,
    LstmPayload,
    NnPayload,
    load_model,
    lstm_payload,
    model_payload,
    predict_container,
    save_model,
)
from hlstm.synthetic import SyntheticConfig, generate_synthetic
from hlstm.training import TrainingConfig


def stats_fixture():
    return NormalizationStats(names=["precip", "pet"],
                              mean=np.array([1.25, 3.5]),
                              std=np.array([0.7, 1.1]), excluded=[])


class TestContainer:
    def test_lstm_round_trip_bit_exact(self, tmp_path):
        w = init_weights(3, 5, 1, seed=11)
        path = str(tmp_path / "m.json")
        save_model(path, "lstm", lstm_payload(w, ["a", "b", "c"], stats_fixture(),
                                              {"epochs": 5}))
        kind, payload = load_model(path)
        assert kind == "lstm"
        section = LstmPayload.from_dict(payload)
        back, _ = section.model()
        for (n, arr), (_, arr2) in zip(w.named_arrays(), back.named_arrays()):
            assert arr.tobytes() == arr2.tobytes(), n
        assert section.feature_names == ["a", "b", "c"]
        assert np.array_equal(section.normalization.mean, stats_fixture().mean)

    def test_format_tag_enforced(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other-v9", "kind": "lstm", "payload": {}}')
        with pytest.raises(DataError, match="format"):
            load_model(str(path))

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(DataError):
            save_model(str(tmp_path / "x.json"), "tree", {})

    def test_lasso_round_trip(self, tmp_path):
        model = LassoModel(beta0=0.12, beta=np.array([0.5, -0.25, 0.0]),
                           lam=0.002, converged=True)
        path = str(tmp_path / "l.json")
        save_model(path, "lasso",
                   LassoPayload.of(model, ["x1", "x2", "x3"], None, None).to_dict())
        _, payload = load_model(path)
        back = LassoPayload.from_dict(payload).model()
        assert back.beta0 == model.beta0
        assert np.array_equal(back.beta, model.beta)

    def test_ar_round_trip(self, tmp_path):
        model = ArModel(c=0.01, alpha=np.array([0.8]), gamma=np.array([0.3, -0.1]), order=1,
                        order_rmse={"0": 0.5, "1": 0.1})
        path = str(tmp_path / "a.json")
        save_model(path, "ar_p", ArPixels.of({"px0": model}, ["x1", "x2"], None,
                                             None).to_dict())
        _, payload = load_model(path)
        back = ArPixels.from_dict(payload).model()["px0"]
        assert (back.order, back.order_rmse) == (1, {"0": 0.5, "1": 0.1})
        assert np.array_equal(back.alpha, model.alpha)
        assert np.array_equal(back.gamma, model.gamma)

    def test_ffnn_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        model = FfnnModel(W1=rng.normal(size=(4, 3)), b1=rng.normal(size=4),
                          w2=rng.normal(size=4), b2=0.3, hidden_size=4, l2=0.002,
                          degenerate=False)
        path = str(tmp_path / "n.json")
        save_model(path, "nn", NnPayload.of(model, ["x1", "x2", "x3"], stats_fixture(),
                                            None).to_dict())
        _, payload = load_model(path)
        back = NnPayload.from_dict(payload).model()
        assert back.W1.tobytes() == model.W1.tobytes()
        assert back.b2 == model.b2


class TestMalformedContainers:
    def lstm_doc(self):
        w = init_weights(3, 4, 1, seed=2)
        return lstm_payload(w, ["a", "b", "c"], stats_fixture())

    def test_lstm_missing_weight_array_rejected(self):
        payload = self.lstm_doc()
        del payload["weights"]["W_hy"]
        with pytest.raises(ValidationError, match="W_hy"):
            LstmPayload.from_dict(payload)

    def test_lstm_unknown_weight_key_rejected(self):
        payload = self.lstm_doc()
        payload["weights"]["hidden_size"] = 99
        with pytest.raises(ValidationError, match="hidden_size"):
            LstmPayload.from_dict(payload)

    def test_lasso_missing_field_named(self):
        model = LassoModel(beta0=0.1, beta=np.array([0.5]), lam=0.002, converged=True)
        payload = LassoPayload.of(model, ["x1"], None, None).to_dict()
        del payload["lambda"]
        with pytest.raises(ValidationError, match="lambda"):
            LassoPayload.from_dict(payload)

    def test_ar_missing_field_named(self):
        model = ArModel(c=0.0, alpha=np.array([0.5]), gamma=np.zeros(0), order=1)
        payload = ArPixels.of({"px0": model}, [], None, None).to_dict()
        del payload["pixels"]["px0"]["gamma"]
        with pytest.raises(ValidationError, match="gamma"):
            ArPixels.from_dict(payload)

    def test_ffnn_missing_field_named(self):
        model = FfnnModel(W1=np.zeros((2, 1)), b1=np.zeros(2), w2=np.zeros(2),
                          b2=0.0, hidden_size=2, l2=0.0, degenerate=False)
        payload = NnPayload.of(model, ["x1"], None, None).to_dict()
        del payload["degenerate"]
        with pytest.raises(ValidationError, match="degenerate"):
            NnPayload.from_dict(payload)


class TestGoldenContainer:
    """A pinned hlstm-v1 container and its predictions (see tests/golden.py)."""

    # The lstm's config is an echo of its training settings that prediction
    # never reads: null, or an echo missing keys, predicts the same bits.
    @pytest.mark.parametrize("config", [..., None, {}], ids=["as_written", "null", "empty"])
    def test_predictions_reproduced_bit_for_bit(self, config):
        kind, payload = load_model(golden.CONTAINER)
        if config is not ...:
            payload["config"] = config
        got = predict_container(kind, payload, golden.golden_dataset(), golden.golden_split())
        with open(golden.PREDICTIONS) as fh:
            expected = json.load(fh)
        assert {phase: set(series) for phase, series in got.items()} == {
            phase: set(series) for phase, series in expected.items()}
        for phase, series in expected.items():
            for pid, values in series.items():
                assert got[phase][pid].tobytes() == np.array(values).tobytes(), (phase, pid)

    def test_resave_gives_the_same_bytes(self, tmp_path):
        kind, payload = load_model(golden.CONTAINER)
        section = LstmPayload.from_dict(payload)
        path = tmp_path / "again.json"
        save_model(str(path), kind, lstm_payload(section.model()[0], section.feature_names,
                                                 section.normalization, payload["config"]))
        with open(golden.CONTAINER, "rb") as fh:
            assert path.read_bytes() == fh.read()


@pytest.fixture(scope="module")
def fitted():
    """(models by kind, the prepared data, its statistics, the lstm's config)."""
    ds = generate_synthetic(SyntheticConfig(rows=3, cols=3, years=2, noise_kind="white",
                                            noise_param=0.04, revisit_days=2, seed=3))
    split = make_split(ds, SplitSpec("temporal", ("2000-01-01", "2000-12-30"),
                                     ("2000-12-31", "2001-12-30")))
    data, train_data, stats = prepare_split(ds, split)
    config = TrainingConfig(hidden_size=6, unroll_length=40, batch_size=6, epochs=5,
                            learning_rate=0.01, dropout=DropoutSpec("recurrent_constant", 0.2))
    baselines = BaselineSettings(ffnn_epochs=40, ffnn_hidden=10, ffnn_hidden_point=5)
    models = {kind: entry.fit(train_data, split, config, baselines, 0)
              for kind, entry in MODEL_KINDS.items()}
    return models, data, stats, config


class TestResave:
    """Every kind's container, read into its payload section and written
    back, keeps its bytes, with and without the Features echo."""

    @pytest.mark.parametrize("echo", [True, False], ids=["echo", "no_echo"])
    @pytest.mark.parametrize("kind", list(MODEL_KINDS))
    def test_resave_gives_the_same_bytes(self, fitted, tmp_path, kind, echo):
        models, data, stats, config = fitted
        first, again = tmp_path / "first.json", tmp_path / "again.json"
        save_model(str(first), kind, model_payload(kind, models[kind], data.feature_names,
                                                   stats, config, data.features if echo else None))
        kind, payload = load_model(str(first))
        assert ("include_attributes" in payload) == echo
        save_model(str(again), kind, MODEL_KINDS[kind].payload.from_dict(payload).to_dict())
        assert again.read_bytes() == first.read_bytes()
        if kind == "ar_p":   # an order that could not be fitted
            assert any(math.isinf(rmse) for pixel in payload["pixels"].values()
                       for rmse in pixel["order_rmse"].values())


# The hlstm-v1 payload keys of each kind in order, at the top level and in the
# first pixel, as the CLI writes them; "?" marks a key that may be absent.
SCHEMA = {
    "lstm": (["input_size", "hidden_size", "output_size", "weights", "feature_names",
              "normalization", "config", "include_lsm?", "include_attributes?"], None),
    "lasso": (["beta0", "beta", "lambda", "converged", "feature_names", "normalization",
               "include_lsm?", "include_attributes?"], None),
    "lasso_p": (["pixels", "feature_names", "normalization", "include_lsm?",
                 "include_attributes?"],
                ["beta0", "beta", "lambda", "converged", "feature_names", "normalization"]),
    "ar_p": (["pixels", "feature_names", "normalization", "flags?", "include_lsm?",
              "include_attributes?"],
             ["c", "alpha", "gamma", "order_rmse?", "order"]),
    "nn": (["W1", "b1", "w2", "b2", "hidden_size", "l2", "degenerate", "feature_names",
            "normalization", "include_lsm?", "include_attributes?"], None),
    "nn_p": (["pixels", "feature_names", "normalization", "include_lsm?",
              "include_attributes?"],
             ["W1", "b1", "w2", "b2", "hidden_size", "l2", "degenerate", "feature_names",
              "normalization"]),
}
SCHEMA_KEYS = [(kind, level, key) for kind, levels in SCHEMA.items()
               for level, keys in zip(("top", "pixel"), levels) for key in keys or ()]


class TestSchema:
    """The container schema, pinned: every kind's keys, their order, which of
    them may be absent, and the fit diagnostics kept out."""

    @pytest.fixture(scope="class")
    def payloads(self, fitted):
        models, data, stats, config = fitted
        return {kind: json.dumps(model_payload(kind, models[kind], data.feature_names, stats,
                                               config, data.features))
                for kind in MODEL_KINDS}

    @staticmethod
    def level(payload, level):
        return payload if level == "top" else next(iter(payload["pixels"].values()))

    @pytest.mark.parametrize("kind", list(SCHEMA))
    def test_keys_in_order(self, payloads, kind):
        payload = json.loads(payloads[kind])
        for level, keys in zip(("top", "pixel"), SCHEMA[kind]):
            if keys is not None:
                assert list(self.level(payload, level)) == [k.rstrip("?") for k in keys]

    @pytest.mark.parametrize("kind,level,key", SCHEMA_KEYS,
                             ids=[f"{kind}-{level}-{key}" for kind, level, key in SCHEMA_KEYS])
    def test_deleting_a_key(self, payloads, kind, level, key):
        """A required key's absence is named; an optional one's is not an error."""
        payload = json.loads(payloads[kind])
        del self.level(payload, level)[key.rstrip("?")]
        section = MODEL_KINDS[kind].payload
        if key.endswith("?"):
            section.from_dict(payload, "model container")
        else:
            with pytest.raises(ValidationError, match=rf"lacks field\(s\) '{key}'$"):
                section.from_dict(payload, "model container")

    @pytest.mark.parametrize("kind,level,key,value", [
        ("lasso", "top", "n_sweeps", 3), ("nn", "top", "epochs_run", 3),
        ("nn_p", "pixel", "val_rmse", 0.5), ("ar_p", "pixel", "n_rows", 30)])
    def test_a_fit_diagnostic_is_an_unknown_key(self, payloads, fitted, kind, level, key,
                                                 value):
        model = fitted[0][kind]
        assert hasattr(model if level == "top" else next(iter(model.values())), key)
        payload = json.loads(payloads[kind])
        self.level(payload, level)[key] = value
        with pytest.raises(ValidationError, match=rf"unknown field\(s\) \['{key}'\]"):
            MODEL_KINDS[kind].payload.from_dict(payload, "model container")
