import dataclasses

import numpy as np
import pytest

from hlstm import training
from hlstm.dataset import NormalizationStats
from hlstm.errors import DegenerateBatchError, NumericError, ValidationError
from hlstm.lstm import (
    DropoutSpec,
    LstmWeights,
    bptt_gradients,
    forward_sequence,
    init_weights,
    make_rng,
    predict_sequence,
    sample_dropout_masks,
)
from hlstm.modelio import LstmPayload, load_model, lstm_payload, save_model
from hlstm.training import (
    AdamState,
    Batch,
    SequenceData,
    TrainingConfig,
    adam_step,
    clip_gradients,
    masked_loss,
    sample_batch,
    sgd_step,
    train_lstm,
)

from oracles import rebinding_adam_step


def make_data(n_pixels, T, inputs_fn, target_fn, mask=None, n_features=2):
    inputs = np.zeros((n_pixels, T, n_features))
    targets = np.zeros((n_pixels, T))
    for p in range(n_pixels):
        inputs[p] = inputs_fn(p, T)
        targets[p] = target_fn(p, T, inputs[p])
    if mask is None:
        mask = np.ones((n_pixels, T), dtype=bool)
    return SequenceData(pixel_ids=[f"px{p}" for p in range(n_pixels)],
                        inputs=inputs, targets=targets, mask=mask,
                        feature_names=[f"f{j}" for j in range(n_features)])


class TestMaskedLoss:
    def test_perfect_prediction(self):
        Y = np.full((3, 8, 1), 0.25)
        T = np.full((3, 8), 0.25)
        mask = np.ones((3, 8))
        loss, grad = masked_loss(Y, T, mask)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(Y))

    def test_worked_example(self):
        # rho=4, mask (1,0,0,1), errors (0.1, 9, 9, 0.3) -> (0.01 + 0.09)/4
        targets = np.zeros((1, 4))
        Y = np.array([0.1, 9.0, 9.0, 0.3]).reshape(1, 4, 1)
        mask = np.array([[1, 0, 0, 1]])
        loss, grad = masked_loss(Y, targets, mask)
        assert loss == pytest.approx(0.025, abs=1e-15)
        assert np.array_equal(grad, np.array([0.05, 0.0, 0.0, 0.15]).reshape(1, 4, 1))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        Y = rng.normal(size=(2, 6, 1))
        T = rng.normal(size=(2, 6))
        mask = rng.random((2, 6)) < 0.6
        loss, grad = masked_loss(Y, T, mask)
        step = 1e-6
        for b in range(2):
            for t in range(6):
                up = Y.copy(); up[b, t, 0] += step
                dn = Y.copy(); dn[b, t, 0] -= step
                num = (masked_loss(up, T, mask)[0] - masked_loss(dn, T, mask)[0]) / (2 * step)
                if abs(num) > 1e-12 or abs(grad[b, t, 0]) > 1e-12:
                    rel = abs(num - grad[b, t, 0]) / max(abs(num), abs(grad[b, t, 0]), 1e-12)
                    assert rel < 1e-6, (b, t)

    def test_all_masked_batch_rejected(self):
        with pytest.raises(DegenerateBatchError):
            masked_loss(np.zeros((2, 4, 1)), np.zeros((2, 4)), np.zeros((2, 4)))

    @pytest.mark.parametrize("y_shape,t_shape", [
        ((4,), (4,)), ((4, 1), (4,)), ((2, 4), (2, 4)), ((2, 4, 1), (2, 5)), ((1, 4, 1), (4,)),
    ], ids=["single", "single_column", "batch_no_column", "mismatch", "unbatched_targets"])
    def test_only_the_batch_layout_is_accepted(self, y_shape, t_shape):
        # Y is (batch, rho, 1), targets and mask (batch, rho).
        with pytest.raises(ValidationError):
            masked_loss(np.zeros(y_shape), np.zeros(t_shape), np.ones(t_shape))

    def test_masked_steps_carry_exactly_zero_gradient(self):
        rng = np.random.default_rng(1)
        Y = rng.normal(size=(1, 6, 1))
        T = rng.normal(size=(1, 6))
        mask = np.array([[1, 0, 1, 1, 0, 1]])
        _, g1 = masked_loss(Y, T, mask)
        T2 = T.copy()
        T2[0, 1] += 123.0  # masked step
        _, g2 = masked_loss(Y, T2, mask)
        assert g1.tobytes() == g2.tobytes()

    def test_observed_divisor_option(self):
        Y = np.array([0.1, 9.0, 9.0, 0.3]).reshape(1, 4, 1)
        mask = np.array([[1, 0, 0, 1]])
        loss, _ = masked_loss(Y, np.zeros((1, 4)), mask, divisor="observed")
        assert loss == pytest.approx((0.01 + 0.09) / 2, abs=1e-15)


class TestSampleBatch:
    def setup_method(self):
        self.data = make_data(16, 120, lambda p, T: np.random.default_rng(p).normal(size=(T, 2)),
                              lambda p, T, x: np.zeros(T))
        self.config = TrainingConfig(hidden_size=4, unroll_length=30, batch_size=8)

    def test_single_pixel_dataset(self):
        data = self.data.subset(["px3"])
        cfg = TrainingConfig(hidden_size=4, unroll_length=30, batch_size=2)
        batch = sample_batch(data, cfg, rng=0)
        assert batch.pixel_ids == ["px3", "px3"]

    def test_batch_holds_each_sampled_window(self):
        # Each instance's slices of the data, taken one at a time, are the reference.
        rng = np.random.default_rng(8)
        self.data.mask = rng.random(self.data.mask.shape) < 0.5
        self.data.targets = np.where(self.data.mask, rng.normal(size=self.data.mask.shape), np.nan)
        batch = sample_batch(self.data, self.config, rng=5, window=(10, 100))
        for b, (pid, start) in enumerate(zip(batch.pixel_ids, batch.starts)):
            p, days = self.data.pixel_ids.index(pid), slice(start, start + 30)
            mask = self.data.mask[p, days]
            assert batch.inputs[b].tobytes() == self.data.inputs[p, days].tobytes()
            assert batch.targets[b].tobytes() == np.where(mask, self.data.targets[p, days],
                                                          0.0).tobytes()
            assert batch.mask[b].tobytes() == mask.astype(float).tobytes()

    def test_same_rng_state_same_batch(self):
        b1 = sample_batch(self.data, self.config, rng=42)
        b2 = sample_batch(self.data, self.config, rng=42)
        assert b1.pixel_ids == b2.pixel_ids
        assert np.array_equal(b1.inputs, b2.inputs)
        assert np.array_equal(b1.starts, b2.starts)

    def test_uniform_pixel_frequencies(self):
        rng = np.random.default_rng(7)
        cfg = TrainingConfig(hidden_size=4, unroll_length=30, batch_size=100)
        counts = {pid: 0 for pid in self.data.pixel_ids}
        for _ in range(100):  # 10^4 draws over 16 pixels
            for pid in sample_batch(self.data, cfg, rng).pixel_ids:
                counts[pid] += 1
        for pid, n in counts.items():
            assert abs(n - 625) <= 75, (pid, n)

    def test_window_respected(self):
        batch = sample_batch(self.data, self.config, rng=3, window=(60, 120))
        assert np.all(batch.starts >= 60)
        assert np.all(batch.starts + self.config.unroll_length <= 120)

    def test_unroll_longer_than_window_rejected(self):
        with pytest.raises(ValidationError):
            sample_batch(self.data, self.config, rng=0, window=(0, 20))


class TestClipping:
    def test_norm_bounded_after_clip(self):
        from hlstm.lstm import LstmWeights
        rng = np.random.default_rng(5)
        g = LstmWeights(3, 4, 1)
        for name, arr in g.named_arrays():
            arr[...] = rng.normal(0, 10, size=arr.shape)
        pre = clip_gradients(g, 5.0)
        assert pre > 5.0
        post = np.sqrt(sum(float((a * a).sum()) for _, a in g.named_arrays()))
        assert post <= 5.0 + 1e-12

    def test_small_gradients_untouched(self):
        from hlstm.lstm import LstmWeights
        g = LstmWeights(3, 4, 1)
        g.b_y[...] = 0.5
        before = g.b_y.copy()
        clip_gradients(g, 5.0)
        assert np.array_equal(g.b_y, before)

    def test_nan_gradient_raises(self):
        from hlstm.lstm import LstmWeights
        rng = np.random.default_rng(6)
        g = LstmWeights(3, 4, 1)
        for name, arr in g.named_arrays():
            arr[...] = rng.normal(0, 0.1, size=arr.shape)
        dict(g.named_arrays())["W_ih"][1, 2] = np.nan
        before = {name: arr.copy() for name, arr in g.named_arrays()}
        with pytest.raises(NumericError, match="W_ih"):
            clip_gradients(g, 5.0)
        for name, arr in g.named_arrays():
            assert np.array_equal(arr, before[name], equal_nan=True), name


class TestOptimizerSteps:
    @pytest.mark.parametrize("n,lr,seed", [(1, 0.01, 0), (391, 0.01, 1), (2_000, 0.1, 2)])
    def test_adam_updates_its_moments_in_place_with_the_oracle_bits(self, n, lr, seed):
        rng = np.random.default_rng(seed)
        theta = rng.normal(size=n)
        ref_theta = theta.copy()
        state, ref_state = AdamState(theta), AdamState(theta)
        m, v = state.m, state.v
        for _ in range(5):
            grad = rng.normal(scale=rng.choice([1e-6, 1.0, 1e3]), size=n)
            adam_step(theta, grad, state, lr)
            rebinding_adam_step(ref_theta, grad, ref_state, lr)
            assert state.m is m and state.v is v
            for got, want in ((theta, ref_theta), (state.m, ref_state.m),
                              (state.v, ref_state.v)):
                assert np.array_equal(got, want)
        assert state.t == ref_state.t == 5

    def test_steps_update_theta_in_place_and_the_forward_pass_reads_it(self):
        w = init_weights(3, 4, 1, seed=5)
        views = [w.Wx, w.Wh, w.b, w.W_hy, w.b_y] + [a for _, a in w.named_arrays()]
        X = np.random.default_rng(6).normal(size=(1, 6, 3))
        Y0, cache = forward_sequence(w, X)
        grads = bptt_gradients(w, cache, np.ones_like(Y0))
        start = w.theta.copy()
        adam_step(w.theta, grads.theta, AdamState(w.theta), 0.01)
        after_adam = w.theta.copy()
        sgd_step(w.theta, grads.theta, 0.1)
        assert not np.array_equal(after_adam, start)
        assert np.array_equal(w.theta, after_adam - 0.1 * grads.theta)
        for view in views:
            assert np.shares_memory(view, w.theta)
        # A fresh container holding only the updated theta gives the same outputs.
        fresh = LstmWeights(3, 4, 1)
        fresh.theta[...] = w.theta
        Y1, _ = forward_sequence(w, X)
        assert not np.array_equal(Y1, Y0)
        assert np.array_equal(Y1, forward_sequence(fresh, X)[0])


class TestTrainLstm:
    def test_learns_constant_target(self):
        data = make_data(4, 120, lambda p, T: np.full((T, 2), 0.5),
                         lambda p, T, x: np.full(T, 0.3))
        cfg = TrainingConfig(hidden_size=8, unroll_length=30, batch_size=4,
                             epochs=200, learning_rate=0.02,
                             dropout=DropoutSpec("none", 0.0), seed=0)
        w, history = train_lstm(data, cfg)
        pred = predict_sequence(w, data.inputs)[..., 0]
        rmse = float(np.sqrt(np.mean((pred - 0.3) ** 2)))
        assert rmse < 0.005
        assert len(history) == 200

    def test_learns_forced_sinusoid(self):
        T = 365 * 3

        def inputs_fn(p, n):
            t = np.arange(n)
            return np.column_stack([np.sin(2 * np.pi * t / 365.0),
                                    np.cos(2 * np.pi * t / 365.0)])

        def target_fn(p, n, x):
            return 0.3 + 0.1 * x[:, 0]

        data = make_data(4, T, inputs_fn, target_fn)
        cfg = TrainingConfig(hidden_size=16, unroll_length=90, batch_size=8,
                             epochs=300, learning_rate=0.01,
                             dropout=DropoutSpec("recurrent_constant", 0.2), seed=1)
        w, _ = train_lstm(data, cfg, window=(0, 730))
        pred = predict_sequence(w, data.inputs[:, 730:])[..., 0]
        truth = data.targets[:, 730:]
        r = np.corrcoef(pred.ravel(), truth.ravel())[0, 1]
        assert r > 0.95

    @pytest.mark.parametrize("clip", [5.0, 1e-3], ids=["unclipped", "clipped"])
    def test_sgd_epoch_replays_bit_for_bit(self, clip):
        data = make_data(4, 60, lambda p, T: np.random.default_rng(p).normal(size=(T, 2)),
                         lambda p, T, x: 0.2 + 0.05 * np.tanh(x[:, 0]))
        cfg = TrainingConfig(hidden_size=5, unroll_length=20, batch_size=4, epochs=1,
                             learning_rate=0.05, optimizer="sgd", gradient_clip_norm=clip,
                             dropout=DropoutSpec("recurrent_constant", 0.3), seed=4)
        w, _ = train_lstm(data, cfg)
        ref = init_weights(2, 5, 1, seed=4)
        start = ref.theta.copy()
        batch = sample_batch(data, cfg, make_rng([4, 1]))
        masks = sample_dropout_masks(cfg.dropout, 2, 5, 20, make_rng([4, 2]), batch=4)
        w32 = ref.astype(np.float32)
        Y, cache = forward_sequence(w32, batch.inputs, masks=masks)
        _, dY = masked_loss(Y, batch.targets, batch.mask, divisor=cfg.loss_divisor)
        grads = bptt_gradients(w32, cache, dY).astype(float)
        assert (clip_gradients(grads, clip) > clip) == (clip < 1.0)
        ref.theta -= cfg.learning_rate * grads.theta
        assert w.theta.tobytes() == ref.theta.tobytes()
        assert not np.array_equal(w.theta, start)

    def test_end_to_end_determinism(self):
        data = make_data(6, 90, lambda p, T: np.random.default_rng(p).normal(size=(T, 2)),
                         lambda p, T, x: 0.2 + 0.05 * np.tanh(x[:, 0]))
        cfg = TrainingConfig(hidden_size=6, unroll_length=20, batch_size=4,
                             epochs=30, seed=9)
        w1, h1 = train_lstm(data, cfg)
        w2, h2 = train_lstm(data, cfg)
        for (name, a), (_, b) in zip(w1.named_arrays(), w2.named_arrays()):
            assert a.tobytes() == b.tobytes(), name
        assert [r["loss"] for r in h1] == [r["loss"] for r in h2]

    def test_history_records_the_pre_clip_norm(self):
        data = make_data(4, 60, lambda p, T: np.random.default_rng(p).normal(size=(T, 2)),
                         lambda p, T, x: 0.2 + 0.05 * np.tanh(x[:, 0]))
        runs = {}
        for clip in (1e-6, 1e6):
            cfg = TrainingConfig(hidden_size=5, unroll_length=20, batch_size=4,
                                 epochs=6, gradient_clip_norm=clip, seed=4)
            runs[clip] = train_lstm(data, cfg)[1]
        assert all(r["clipped"] and r["grad_norm"] > 1e-6 for r in runs[1e-6])
        assert not any(r["clipped"] for r in runs[1e6])
        # The first update starts from the same weights and batch in both runs.
        assert runs[1e-6][0]["grad_norm"] == runs[1e6][0]["grad_norm"]

    def test_checkpoint_sees_the_weights_every_checkpoint_every_epochs(self):
        data = make_data(4, 60, lambda p, T: np.random.default_rng(p).normal(size=(T, 2)),
                         lambda p, T, x: 0.2 + 0.05 * np.tanh(x[:, 0]))
        cfg = TrainingConfig(hidden_size=5, unroll_length=20, batch_size=4,
                             epochs=7, checkpoint_every=3, seed=4)
        seen = []
        train_lstm(data, cfg, checkpoint=lambda epoch, w: seen.append((epoch, w.theta.copy())))
        assert [epoch for epoch, _ in seen] == [3, 6]
        six, _ = train_lstm(data, dataclasses.replace(cfg, epochs=6))
        assert seen[-1][1].tobytes() == six.theta.tobytes()

    def test_master_weights_stay_float64(self, monkeypatch, tmp_path):
        # Forward and BPTT run on a float32 copy; everything that persists
        # across epochs, or leaves train_lstm, is float64.
        seen = {"moments": [], "grads": [], "checkpoints": []}

        def recording_bptt(w, cache, dY):
            grads = bptt_gradients(w, cache, dY)
            seen["grads"].append((w.theta.dtype, grads.theta.copy()))
            return grads

        def recording_adam(theta, grad, state, lr):
            adam_step(theta, grad, state, lr)
            seen["moments"].append((theta.dtype, state.m.dtype, state.v.dtype))

        monkeypatch.setattr(training, "bptt_gradients", recording_bptt)
        monkeypatch.setattr(training, "adam_step", recording_adam)
        data = make_data(4, 60, lambda p, T: np.random.default_rng(p).normal(size=(T, 2)),
                         lambda p, T, x: 0.2 + 0.05 * np.tanh(x[:, 0]))
        cfg = TrainingConfig(hidden_size=5, unroll_length=20, batch_size=4,
                             epochs=4, checkpoint_every=2, seed=4)
        w, history = train_lstm(
            data, cfg, checkpoint=lambda epoch, w: seen["checkpoints"].append(w.theta.dtype))

        assert w.theta.dtype == np.float64
        f64 = np.dtype(np.float64)
        assert seen["moments"] == [(f64, f64, f64)] * 4
        assert seen["checkpoints"] == [f64] * 2
        assert [compute for compute, _ in seen["grads"]] == [np.dtype(np.float32)] * 4
        for row, (_, g32) in zip(history, seen["grads"]):
            g = g32.astype(np.float64)
            assert row["grad_norm"] == float(np.sqrt(g @ g))

        path = str(tmp_path / "m.json")
        save_model(path, "lstm", lstm_payload(w, data.feature_names, NormalizationStats(
            names=data.feature_names, mean=np.zeros(2), std=np.ones(2), excluded=[]),
            cfg.to_dict()))
        back, _ = LstmPayload.from_dict(load_model(path)[1]).model()
        assert back.theta.dtype == np.float64
        assert back.theta.tobytes() == w.theta.tobytes()

    def test_each_epoch_overwrites_the_previous_cache(self, monkeypatch):
        # One set of activation buffers serves every epoch; the weights are
        # those of a run whose every forward pass allocates its own.
        lent = []

        def recording_forward(w, X, **kwargs):
            lent.append(kwargs.get("reuse"))
            Y, cache = forward_sequence(w, X, **kwargs)
            lent.append(cache)
            return Y, cache

        data = make_data(4, 60, lambda p, T: np.random.default_rng(p).normal(size=(T, 2)),
                         lambda p, T, x: 0.2 + 0.05 * np.tanh(x[:, 0]))
        cfg = TrainingConfig(hidden_size=5, unroll_length=20, batch_size=4, epochs=5, seed=4)
        monkeypatch.setattr(training, "forward_sequence", recording_forward)
        w, _ = train_lstm(data, cfg)
        assert lent[0] is None
        assert all(lent[k] is lent[k - 1] for k in range(2, len(lent), 2))
        assert all(np.shares_memory(c.gates, lent[1].gates) for c in lent[1::2])

        monkeypatch.setattr(training, "forward_sequence", lambda w, X, **kwargs: forward_sequence(
            w, X, **{k: v for k, v in kwargs.items() if k != "reuse"}))
        fresh, _ = train_lstm(data, cfg)
        assert w.theta.tobytes() == fresh.theta.tobytes()

    def test_loss_divergence_tripwire(self):
        data = make_data(4, 120, lambda p, T: np.full((T, 2), 0.5),
                         lambda p, T, x: np.full(T, 0.3))
        cfg = TrainingConfig(hidden_size=8, unroll_length=30, batch_size=4,
                             epochs=150, learning_rate=0.02,
                             dropout=DropoutSpec("none", 0.0), seed=2)
        _, history = train_lstm(data, cfg)
        losses = [r["loss"] for r in history]
        for a, b in zip(losses, losses[1:]):
            assert b <= 10.0 * max(a, 1e-12)

    def test_sparse_mask_trains(self):
        rng = np.random.default_rng(3)
        mask = rng.random((4, 120)) < 0.3
        data = make_data(4, 120, lambda p, T: np.full((T, 2), 0.5),
                         lambda p, T, x: np.full(T, 0.3), mask=mask)
        cfg = TrainingConfig(hidden_size=8, unroll_length=30, batch_size=4,
                             epochs=150, learning_rate=0.02,
                             dropout=DropoutSpec("none", 0.0), seed=4)
        w, _ = train_lstm(data, cfg)
        pred = predict_sequence(w, data.inputs)[..., 0]
        rmse = float(np.sqrt(np.mean((pred - 0.3) ** 2)))
        assert rmse < 0.02

    def test_evaluation_is_mask_free_and_deterministic(self):
        data = make_data(2, 60, lambda p, T: np.random.default_rng(p).normal(size=(T, 2)),
                         lambda p, T, x: np.full(T, 0.25))
        cfg = TrainingConfig(hidden_size=4, unroll_length=20, batch_size=2,
                             epochs=10, dropout=DropoutSpec("recurrent_constant", 0.5),
                             seed=5)
        w, _ = train_lstm(data, cfg)
        p1 = predict_sequence(w, data.inputs)
        p2 = predict_sequence(w, data.inputs)
        assert p1.tobytes() == p2.tobytes()

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TrainingConfig(epochs=0).validate()
        with pytest.raises(ValidationError):
            TrainingConfig(optimizer="adagrad").validate()
        with pytest.raises(ValidationError):
            TrainingConfig.from_dict({"no_such_field": 1})

    def test_config_round_trip(self):
        cfg = TrainingConfig(hidden_size=12, dropout=DropoutSpec("memory_cell", 0.25))
        back = TrainingConfig.from_dict(cfg.to_dict())
        assert back == cfg
