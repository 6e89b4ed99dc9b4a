import json

import numpy as np
import pytest

import golden

from hlstm.baselines import ArModel, FfnnModel, LassoModel
from hlstm.dataset import NormalizationStats
from hlstm.errors import DataError
from hlstm.lstm import init_weights
from hlstm.modelio import (
    ar_from_payload,
    ar_payload,
    ffnn_from_payload,
    ffnn_payload,
    lasso_from_payload,
    lasso_payload,
    load_model,
    lstm_from_payload,
    lstm_payload,
    predict_container,
    save_model,
)


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
        back, names, stats = lstm_from_payload(payload)
        for (n, arr), (_, arr2) in zip(w.named_arrays(), back.named_arrays()):
            assert arr.tobytes() == arr2.tobytes(), n
        assert names == ["a", "b", "c"]
        assert np.array_equal(stats.mean, stats_fixture().mean)

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
        save_model(path, "lasso", lasso_payload(model, ["x1", "x2", "x3"], None))
        _, payload = load_model(path)
        back = lasso_from_payload(payload)
        assert back.beta0 == model.beta0
        assert np.array_equal(back.beta, model.beta)

    def test_ar_round_trip(self, tmp_path):
        model = ArModel(c=0.01, alpha=np.array([0.8]), gamma=np.array([0.3, -0.1]))
        path = str(tmp_path / "a.json")
        save_model(path, "ar_p", {"pixels": {"px0": ar_payload(model, {0: 0.5, 1: 0.1})}})
        _, payload = load_model(path)
        back = ar_from_payload(payload["pixels"]["px0"])
        assert np.array_equal(back.alpha, model.alpha)
        assert np.array_equal(back.gamma, model.gamma)

    def test_ffnn_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        model = FfnnModel(W1=rng.normal(size=(4, 3)), b1=rng.normal(size=4),
                          w2=rng.normal(size=4), b2=0.3, hidden_size=4, l2=0.002)
        path = str(tmp_path / "n.json")
        save_model(path, "nn", ffnn_payload(model, ["x1", "x2", "x3"], stats_fixture()))
        _, payload = load_model(path)
        back = ffnn_from_payload(payload)
        assert back.W1.tobytes() == model.W1.tobytes()
        assert back.b2 == model.b2


class TestMalformedContainers:
    def lstm_doc(self):
        w = init_weights(3, 4, 1, seed=2)
        return lstm_payload(w, ["a", "b", "c"], stats_fixture())

    def test_lstm_missing_weight_array_rejected(self):
        payload = self.lstm_doc()
        del payload["weights"]["W_hy"]
        with pytest.raises(DataError, match="W_hy"):
            lstm_from_payload(payload)

    def test_lstm_unknown_weight_key_rejected(self):
        payload = self.lstm_doc()
        payload["weights"]["hidden_size"] = 99
        with pytest.raises(DataError, match="hidden_size"):
            lstm_from_payload(payload)

    def test_lasso_missing_field_named(self):
        model = LassoModel(beta0=0.1, beta=np.array([0.5]), lam=0.002)
        payload = lasso_payload(model, ["x1"], None)
        del payload["lambda"]
        with pytest.raises(DataError, match="lambda"):
            lasso_from_payload(payload)

    def test_ar_missing_field_named(self):
        payload = ar_payload(ArModel(c=0.0, alpha=np.array([0.5]), gamma=np.zeros(0)))
        del payload["gamma"]
        with pytest.raises(DataError, match="gamma"):
            ar_from_payload(payload)

    def test_ffnn_missing_field_named(self):
        model = FfnnModel(W1=np.zeros((2, 1)), b1=np.zeros(2), w2=np.zeros(2),
                          b2=0.0, hidden_size=2, l2=0.0)
        payload = ffnn_payload(model, ["x1"], None)
        del payload["degenerate"]
        with pytest.raises(DataError, match="degenerate"):
            ffnn_from_payload(payload)


class TestGoldenContainer:
    """An hlstm-v1 container written while the weights were 14 per-gate
    arrays (see tests/golden.py)."""

    def test_predictions_reproduced_bit_for_bit(self):
        kind, payload = load_model(golden.CONTAINER)
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
        w, names, stats = lstm_from_payload(payload)
        path = tmp_path / "again.json"
        save_model(str(path), kind, lstm_payload(w, names, stats, payload["config"]))
        with open(golden.CONTAINER, "rb") as fh:
            assert path.read_bytes() == fh.read()
