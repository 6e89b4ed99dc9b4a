import dataclasses
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from hlstm import lstm as lstm_module
from hlstm.errors import NumericError, ValidationError
from hlstm.lstm import (
    DROPOUT_VARIANTS,
    PREDICT_BLOCK_DAYS,
    PREDICT_CHUNK_PIXELS,
    DropoutSpec,
    LstmWeights,
    bptt_gradients,
    forward_sequence,
    init_weights,
    predict_sequence,
    sample_dropout_masks,
)

from oracles import (
    central_difference_gradients,
    max_relative_gradient_error,
    scalar_lstm_sequence,
)


def hidden_states(cache):
    """Every step's hidden state, (rho, hidden, batch): o * tanh(s), as the
    forward pass forms it (the cache keeps gates and cell states only)."""
    return cache.gates[:, 3 * cache.s_fm.shape[1]:] * np.tanh(cache.s_fm)


def random_weights(n_in, n_hid, n_out, seed):
    rng = np.random.default_rng(seed)
    w = LstmWeights(n_in, n_hid, n_out)
    for name, arr in w.named_arrays():
        arr[...] = rng.normal(0.0, 0.4, size=arr.shape)
    return w


class TestInitWeights:
    def test_deterministic_given_seed(self):
        a = init_weights(3, 4, 1, seed=7)
        b = init_weights(3, 4, 1, seed=7)
        for (name, arr_a), (_, arr_b) in zip(a.named_arrays(), b.named_arrays()):
            assert np.array_equal(arr_a, arr_b), name

    def test_forget_bias_is_one(self):
        for seed in (0, 7, 123):
            w = init_weights(3, 4, 1, seed=seed)
            assert np.array_equal(dict(w.named_arrays())["b_f"], np.ones(4))

    def test_entries_within_uniform_bound(self):
        # bound is 1/sqrt(hidden) = 0.5 for hidden 4
        arrays = dict(init_weights(3, 4, 1, seed=7).named_arrays())
        for name in ("W_gx", "W_ix", "W_fx", "W_ox", "W_gh", "W_ih", "W_fh", "W_oh", "W_hy"):
            assert np.max(np.abs(arrays[name])) <= 0.5, name

    @pytest.mark.parametrize("sizes,seed", [((3, 4, 1), 7), ((11, 64, 2), 2024)])
    def test_block_draws_equal_the_per_gate_draws(self, sizes, seed):
        # The nine per-gate draws of the per-array storage, in their order:
        # each fused draw must reproduce its four gate blocks bit for bit.
        n_in, n_hid, n_out = sizes
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(n_hid)
        expected = {}
        for name in ("W_gx", "W_ix", "W_fx", "W_ox", "W_gh", "W_ih", "W_fh", "W_oh", "W_hy"):
            shape = ((n_out if name == "W_hy" else n_hid),
                     (n_in if name.endswith("x") else n_hid))
            expected[name] = rng.uniform(-bound, bound, size=shape)
        expected.update(b_g=np.zeros(n_hid), b_i=np.zeros(n_hid), b_f=np.ones(n_hid),
                        b_o=np.zeros(n_hid), b_y=np.zeros(n_out))
        got = dict(init_weights(*sizes, seed=seed).named_arrays())
        assert set(got) == set(expected)
        for name, arr in expected.items():
            assert got[name].shape == arr.shape, name
            assert got[name].tobytes() == arr.tobytes(), name

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValidationError):
            init_weights(0, 4, 1, seed=1)
        with pytest.raises(ValidationError):
            init_weights(3, -2, 1, seed=1)


class TestFlatParameters:
    def test_views_share_memory_with_theta(self):
        w = random_weights(3, 4, 2, seed=60)
        for view in (w.Wx, w.Wh, w.b, w.W_hy, w.b_y):
            assert np.shares_memory(view, w.theta)
        for name, arr in w.named_arrays():
            assert np.shares_memory(arr, w.theta), name
        assert sum(arr.size for _, arr in w.named_arrays()) == w.theta.size
        assert (w.Wx.shape, w.Wh.shape, w.b.shape, w.W_hy.shape, w.b_y.shape) == (
            (16, 3), (16, 4), (16,), (2, 4), (2,))

    def test_fused_views_stack_the_gates_in_g_i_f_o_order(self):
        w = random_weights(3, 4, 1, seed=61)
        arrays = dict(w.named_arrays())
        assert np.array_equal(w.Wx, np.concatenate([arrays[f"W_{k}x"] for k in "gifo"]))
        assert np.array_equal(w.Wh, np.concatenate([arrays[f"W_{k}h"] for k in "gifo"]))
        assert np.array_equal(w.b, np.concatenate([arrays[f"b_{k}"] for k in "gifo"]))
        assert np.array_equal(w.theta, np.concatenate(
            [w.Wx.ravel(), w.Wh.ravel(), w.b, w.W_hy.ravel(), w.b_y]))

    def test_rebinding_a_view_is_refused(self):
        w = LstmWeights(2, 3, 1)
        with pytest.raises(AttributeError):
            w.b_y = np.array([0.42])
        with pytest.raises(AttributeError):
            setattr(w, "W_gx", np.zeros((3, 2)))


class TestDropoutMasks:
    def test_none_variant_is_identity(self):
        masks = sample_dropout_masks(DropoutSpec("none", 0.5), 3, 4, rho=5, seed=1, batch=1)
        assert masks.x is None and masks.h is None and masks.g is None

    def test_rate_zero_is_identity(self):
        masks = sample_dropout_masks(DropoutSpec("non_recurrent", 0.0), 3, 4, rho=5, seed=1,
                                     batch=1)
        assert masks.x is None and masks.h is None and masks.g is None

    def test_recurrent_constant_mask_shared_across_steps(self):
        masks = sample_dropout_masks(DropoutSpec("recurrent_constant", 0.3), 3, 4, rho=10, seed=5,
                                     batch=1)
        assert masks.h.shape == (1, 4)
        assert masks.x is None and masks.g is None

    def test_non_recurrent_resampled_each_step(self):
        masks = sample_dropout_masks(DropoutSpec("non_recurrent", 0.5), 6, 4, rho=8, seed=5,
                                     batch=1)
        assert masks.x.shape == (8, 1, 6)
        assert any(not np.array_equal(masks.x[t], masks.x[0]) for t in range(1, 8))

    def test_inverted_scaling_mean_is_one(self):
        # Monte-Carlo check of the inverted-dropout expectation
        masks = sample_dropout_masks(DropoutSpec("non_recurrent", 0.5), 100, 4, rho=1000, seed=11,
                                     batch=1)
        assert masks.x.size == 100_000
        assert abs(masks.x.mean() - 1.0) <= 0.02

    def test_memory_cell_masks_candidate_per_step(self):
        masks = sample_dropout_masks(DropoutSpec("memory_cell", 0.4), 3, 4, rho=6, seed=2,
                                     batch=1)
        assert masks.g.shape == (6, 1, 4)
        kept = masks.g[masks.g > 0]
        assert np.allclose(kept, 1.0 / 0.6)

    def test_rate_one_rejected(self):
        with pytest.raises(ValidationError):
            sample_dropout_masks(DropoutSpec("non_recurrent", 1.0), 3, 4, rho=5, seed=1, batch=1)

    def test_batch_masks_independent_per_instance(self):
        masks = sample_dropout_masks(DropoutSpec("recurrent_constant", 0.5), 3, 8, rho=4, seed=3, batch=16)
        assert masks.h.shape == (16, 8)
        assert any(not np.array_equal(masks.h[b], masks.h[0]) for b in range(1, 16))


class TestLstmStep:
    """One step of the cell: a forward pass over a length-one sequence."""

    def test_all_zero_parameters(self):
        w = LstmWeights(3, 4, 1)
        Y, cache = forward_sequence(w, np.array([[[0.3, -2.0, 5.0]]]))
        gates = cache.gates[0, :, 0]
        assert np.array_equal(gates[:4], np.zeros(4))          # g
        assert np.array_equal(gates[4:], np.full(12, 0.5))     # i, f, o
        assert np.array_equal(cache.s_fm[0, :, 0], np.zeros(4))
        assert np.array_equal(hidden_states(cache)[0, :, 0], np.zeros(4))
        assert np.array_equal(Y, np.zeros((1, 1, 1)))

    def test_output_bias_only(self):
        w = LstmWeights(2, 3, 1)
        w.b_y[...] = 0.42
        Y, _ = forward_sequence(w, np.zeros((1, 1, 2)))
        assert Y[0, 0, 0] == pytest.approx(0.42, abs=1e-15)

    def test_matches_scalar_oracle(self):
        w = random_weights(2, 2, 1, seed=42)
        x = np.array([[1.0, 0.0]])
        Y, _ = forward_sequence(w, x[None])
        expected = scalar_lstm_sequence(w, x)[0][0]
        assert abs(Y[0, 0, 0] - expected) < 1e-12

    def test_dimension_mismatch(self):
        w = LstmWeights(3, 4, 1)
        for run in (forward_sequence, predict_sequence):
            with pytest.raises(ValidationError):
                run(w, np.zeros((1, 1, 5)))

    def test_non_finite_input(self):
        w = LstmWeights(3, 4, 1)
        with pytest.raises(NumericError):
            forward_sequence(w, np.array([[[1.0, np.nan, 0.0]]]))


class TestForwardSequence:
    def test_length_one_equals_single_step(self):
        # A length-one pass is the first step of any longer pass.
        w = random_weights(3, 4, 2, seed=0)
        X = np.random.default_rng(1).normal(size=(1, 5, 3))
        Y1, cache1 = forward_sequence(w, X[:, :1])
        Y, cache = forward_sequence(w, X)
        assert np.array_equal(Y1[:, 0], Y[:, 0])
        assert np.array_equal(hidden_states(cache1)[0], hidden_states(cache)[0])
        assert np.array_equal(cache1.gates[0], cache.gates[0])

    def test_deterministic_given_seed(self):
        w = random_weights(3, 4, 1, seed=0)
        X = np.random.default_rng(2).normal(size=(1, 20, 3))
        spec = DropoutSpec("non_recurrent", 0.5)
        Y1, _ = forward_sequence(w, X, sample_dropout_masks(spec, 3, 4, 20, seed=9, batch=1))
        Y2, _ = forward_sequence(w, X, sample_dropout_masks(spec, 3, 4, 20, seed=9, batch=1))
        assert np.array_equal(Y1, Y2)

    def test_constant_input_state_converges(self):
        w = random_weights(3, 4, 1, seed=3)
        X = np.tile(np.array([0.5, -0.2, 1.0]), (1, 200, 1))
        _, cache = forward_sequence(w, X)
        h = hidden_states(cache)
        early = np.max(np.abs(h[1] - h[0]))
        late = np.max(np.abs(h[199] - h[198]))
        assert late < early

    def test_gate_ranges(self):
        w = random_weights(4, 6, 1, seed=8)
        X = np.random.default_rng(4).normal(0, 5, size=(1, 50, 4))
        _, cache = forward_sequence(w, X)
        g, ifo = cache.gates[:, :6], cache.gates[:, 6:]
        assert np.all(ifo > 0) and np.all(ifo < 1)
        assert np.all(np.abs(g) < 1)
        assert np.all(np.abs(hidden_states(cache)) < 1)

    def test_dropout_identity_paths_bit_identical(self):
        w = random_weights(3, 4, 1, seed=5)
        X = np.random.default_rng(6).normal(size=(1, 15, 3))
        base, _ = forward_sequence(w, X)
        for spec in (DropoutSpec("none", 0.7), DropoutSpec("recurrent_constant", 0.0)):
            Y, _ = forward_sequence(w, X, sample_dropout_masks(spec, 3, 4, 15, seed=1, batch=1))
            assert np.array_equal(Y, base)

    def test_recurrent_constant_matches_scalar_oracle_with_same_mask(self):
        w = random_weights(2, 3, 1, seed=10)
        X = np.random.default_rng(11).normal(size=(1, 12, 2))
        masks = sample_dropout_masks(DropoutSpec("recurrent_constant", 0.5), 2, 3, rho=12, seed=21,
                                     batch=1)
        Y, _ = forward_sequence(w, X, masks=masks)
        expected = scalar_lstm_sequence(w, X[0], h_mask=masks.h[0])
        assert np.max(np.abs(Y[0] - np.asarray(expected))) < 1e-12

    def test_batch_layout_matches_per_instance_runs(self):
        w = random_weights(3, 4, 1, seed=12)
        rng = np.random.default_rng(13)
        X = rng.normal(size=(5, 7, 3))
        Yb, _ = forward_sequence(w, X)
        for b in range(5):
            Ys, _ = forward_sequence(w, X[b:b + 1])
            assert np.max(np.abs(Yb[b] - Ys[0])) < 1e-12

    def test_predict_sequence_matches_forward(self):
        # Prediction pads the pixels to a whole group with zero-input pixels,
        # so it has the bits of a forward pass over that group.
        w = random_weights(3, 4, 1, seed=14)
        X = np.random.default_rng(15).normal(size=(1, 30, 3))
        Y, _ = forward_sequence(w, X)
        group = np.zeros((PREDICT_CHUNK_PIXELS, 30, 3))
        group[0] = X[0]
        Y_group, _ = forward_sequence(w, group)
        P = predict_sequence(w, X)
        assert np.array_equal(P[0], Y_group[0])
        assert np.max(np.abs(P - Y)) < 1e-12

    @pytest.mark.parametrize("shape", [(3,), (6, 3), (2, 4, 5, 3), (0, 3), (2, 0, 3), (2, 6, 2)],
                             ids=["1d", "2d", "4d", "no_days", "batch_no_days", "wrong_width"])
    def test_forward_and_predict_reject_the_same_inputs(self, shape):
        w = random_weights(3, 4, 1, seed=14)
        for run in (forward_sequence, predict_sequence):
            with pytest.raises(ValidationError):
                run(w, np.zeros(shape))

    def test_blocked_predict_matches_forward(self):
        # Two whole prediction blocks plus a remainder, batched; both passes
        # start from zeros.
        w = random_weights(3, 4, 2, seed=16)
        rho = 2 * PREDICT_BLOCK_DAYS + 7
        X = np.random.default_rng(17).normal(size=(5, rho, 3))
        Y, _ = forward_sequence(w, X)
        Yp = predict_sequence(w, X)
        assert Yp.shape == Y.shape == (5, rho, 2)
        assert np.max(np.abs(Yp - Y)) < 1e-12

    @pytest.mark.parametrize("variant", DROPOUT_VARIANTS)
    def test_batched_dropout_matches_scalar_oracle(self, variant):
        w = random_weights(3, 4, 2, seed=20)
        n_batch, rho = 3, 9
        X = np.random.default_rng(21).normal(size=(n_batch, rho, 3))
        masks = sample_dropout_masks(DropoutSpec(variant, 0.4), 3, 4, rho=rho,
                                     seed=22, batch=n_batch)
        Y, _ = forward_sequence(w, X, masks=masks)
        for b in range(n_batch):
            expected = scalar_lstm_sequence(
                w, X[b],
                x_masks=None if masks.x is None else masks.x[:, b],
                h_mask=None if masks.h is None else masks.h[b],
                g_masks=None if masks.g is None else masks.g[:, b])
            assert np.max(np.abs(Y[b] - np.asarray(expected))) < 1e-12, b


class TestBpttGradients:
    @staticmethod
    def loss_and_grad(w, X, targets, masks):
        Y, cache = forward_sequence(w, X, masks=masks)
        diff = Y - targets
        loss = float((diff * diff).sum())
        return loss, bptt_gradients(w, cache, 2.0 * diff)

    def test_zero_upstream_gives_zero_gradients(self):
        w = random_weights(3, 4, 1, seed=20)
        X = np.random.default_rng(21).normal(size=(1, 6, 3))
        _, cache = forward_sequence(w, X)
        grads = bptt_gradients(w, cache, np.zeros((1, 6, 1)))
        for name, arr in grads.named_arrays():
            assert np.array_equal(arr, np.zeros_like(arr)), name

    @pytest.mark.parametrize("variant,rate", [
        ("none", 0.0),
        ("non_recurrent", 0.4),
        ("recurrent_constant", 0.5),
        ("memory_cell", 0.3),
    ])
    def test_matches_central_differences(self, variant, rate):
        rng = np.random.default_rng(hash(variant) % 2**32)
        w = random_weights(2, 3, 1, seed=30)
        rho = 5
        X = rng.normal(size=(1, rho, 2))
        targets = rng.normal(size=(1, rho, 1))
        masks = sample_dropout_masks(DropoutSpec(variant, rate), 2, 3, rho=rho, seed=31, batch=1)

        _, analytic = self.loss_and_grad(w, X, targets, masks)

        def loss_fn(weights):
            Y, _ = forward_sequence(weights, X, masks=masks)
            d = Y - targets
            return float((d * d).sum())

        numeric = central_difference_gradients(loss_fn, w, step=1e-5)
        err = max_relative_gradient_error(
            {n: a for n, a in analytic.named_arrays()}, numeric)
        assert err < 1e-4

    def test_duplicated_instance_doubles_gradient(self):
        # Additivity over instances. BLAS picks different kernels for
        # different batch shapes, so equality holds to rounding, not bitwise.
        w = random_weights(3, 4, 1, seed=40)
        rng = np.random.default_rng(41)
        X = rng.normal(size=(1, 6, 3))
        dY = rng.normal(size=(1, 6, 1))
        _, cache1 = forward_sequence(w, X)
        g1 = bptt_gradients(w, cache1, dY)
        _, cache2 = forward_sequence(w, np.concatenate([X, X]))
        g2 = bptt_gradients(w, cache2, np.concatenate([dY, dY]))
        for (name, a), (_, b) in zip(g1.named_arrays(), g2.named_arrays()):
            assert np.allclose(2.0 * a, b, rtol=1e-12, atol=1e-15), name

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_reused_cache_gives_the_bits_of_a_fresh_one(self, dtype):
        w = random_weights(3, 8, 1, seed=53).astype(dtype)
        rng = np.random.default_rng(54)
        X1, X2 = rng.normal(size=(2, 5, PREDICT_BLOCK_DAYS + 3, 3))
        dY = rng.normal(size=(5, PREDICT_BLOCK_DAYS + 3, 1))
        masks = sample_dropout_masks(DropoutSpec("non_recurrent", 0.4), 3, 8,
                                     rho=PREDICT_BLOCK_DAYS + 3, seed=55, batch=5)
        _, spent = forward_sequence(w, X1, masks=masks)
        buffers = (spent.x, spent.gates, spent.s_fm)
        Y_fresh, fresh = forward_sequence(w, X2, masks=masks)
        Y, cache = forward_sequence(w, X2, masks=masks, reuse=spent)
        assert all(np.shares_memory(a, b) for a, b in
                   zip(buffers, (cache.x, cache.gates, cache.s_fm)))
        assert np.array_equal(Y, Y_fresh)
        for name in ("x", "gates", "s_fm", "y_fm"):
            assert np.array_equal(getattr(cache, name), getattr(fresh, name)), name
        assert np.array_equal(bptt_gradients(w, cache, dY).theta,
                              bptt_gradients(w, fresh, dY).theta)
        # A cache of another length, batch, input width, hidden size or dtype
        # lends nothing.
        for other in (X2[:, :-1], X2[:-1], X2[..., None, 0]):
            w_other = random_weights(other.shape[-1], 8, 1, seed=53).astype(dtype)
            _, cache_other = forward_sequence(w_other, other, reuse=cache)
            assert not np.shares_memory(cache_other.gates, cache.gates)
        _, cache_other = forward_sequence(random_weights(3, 9, 1, seed=53).astype(dtype), X2,
                                          reuse=cache)
        assert not np.shares_memory(cache_other.x, cache.x)
        other_dtype = np.float32 if dtype == np.float64 else np.float64
        _, cache_other = forward_sequence(w.astype(other_dtype), X2, reuse=cache)
        assert not np.shares_memory(cache_other.x, cache.x)

    @pytest.mark.parametrize("variant", DROPOUT_VARIANTS)
    def test_the_cache_holds_gates_cell_states_inputs_and_outputs_only(self, variant):
        # BPTT rebuilds each step's operand [h * hm; x; 1] a block at a time:
        # a full-length copy in the cache would add rho x (hidden + input + 1)
        # x batch floats to the training working set.
        n_batch, rho, n_in, n_hid, n_out = 5, 2 * PREDICT_BLOCK_DAYS + 3, 3, 8, 2
        w = random_weights(n_in, n_hid, n_out, seed=56).astype(np.float32)
        X = np.random.default_rng(57).normal(size=(n_batch, rho, n_in))
        masks = sample_dropout_masks(DropoutSpec(variant, 0.4), n_in, n_hid, rho=rho,
                                     seed=58, batch=n_batch)
        _, cache = forward_sequence(w, X, masks=masks)
        assert cache.x.shape == (rho, n_in, n_batch)
        arrays = [getattr(cache, f.name) for f in dataclasses.fields(cache)]
        per_step = rho * n_batch * 4 * (4 * n_hid + n_hid + n_in + n_out)
        assert sum(a.nbytes for a in arrays if isinstance(a, np.ndarray)) == per_step

    def test_shape_mismatch_rejected(self):
        w = random_weights(3, 4, 1, seed=50)
        X = np.random.default_rng(51).normal(size=(1, 6, 3))
        _, cache = forward_sequence(w, X)
        other = random_weights(3, 5, 1, seed=52)
        with pytest.raises(ValidationError):
            bptt_gradients(other, cache, np.zeros((1, 6, 1)))
        for shape in ((1, 7, 1), (6, 1), (2, 6, 1)):
            with pytest.raises(ValidationError):
                bptt_gradients(w, cache, np.zeros(shape))


class _OperandDtypes:
    """Stands in for numpy inside hlstm.lstm and records the dtype of every
    array that goes into or comes out of the kernel's arithmetic calls, and
    each call's name and result shape in ``calls``."""

    ARITHMETIC = ("matmul", "multiply", "subtract", "tanh")

    def __init__(self):
        self.seen = set()
        self.calls = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in self.ARITHMETIC:
            return attr

        def recorded(*args, **kwargs):
            out = attr(*args, **kwargs)
            self.seen.update(a.dtype for a in (*args, *kwargs.values(), out)
                             if isinstance(a, np.ndarray))
            self.calls.append((name, np.shape(out)))
            return out
        return recorded


class TestComputeDtype:
    """The kernel runs in the dtype of the weights it is given."""

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("variant", DROPOUT_VARIANTS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_buffer_takes_the_weights_dtype(self, monkeypatch, dtype, variant, batch):
        # A float64 mask, state, upstream gradient or scratch buffer promotes
        # the per-step products to float64. The results stay right, only
        # slower, so the operands of the arithmetic are checked too.
        w = init_weights(3, 4, 1, seed=60).astype(dtype)
        rho = 7
        shape = (batch, rho, 3)
        X = np.random.default_rng(61).normal(size=shape)
        masks = sample_dropout_masks(DropoutSpec(variant, 0.5), 3, 4, rho=rho,
                                     seed=62, batch=batch)
        operands = _OperandDtypes()
        monkeypatch.setattr(lstm_module, "np", operands)
        Y, cache = forward_sequence(w, X, masks=masks)
        del operands.calls[:]
        grads = bptt_gradients(w, cache, np.ones(shape[:-1] + (1,)))
        buffers = {"Y": Y, "x": cache.x, "gates": cache.gates, "s_fm": cache.s_fm,
                   "h": hidden_states(cache), "y_fm": cache.y_fm, "grads": grads.theta}
        assert {name: arr.dtype for name, arr in buffers.items()} == {
            name: np.dtype(dtype) for name in buffers}
        assert operands.seen == {np.dtype(dtype)}
        # BPTT's recomputed hidden states, operands and products went through
        # the recorded calls: one tanh per step, whose result also rebuilds h
        # with one multiply beside the seven of ds and the gate gradients; one
        # (4*hidden, hidden+input+1) weight-gradient product per step; and
        # stacked (steps, output, hidden) readout products that cover every step.
        names = [name for name, _ in operands.calls]
        assert names.count("tanh") == rho and names.count("multiply") == 8 * rho
        assert operands.calls.count(("matmul", (16, 4 + 3 + 1))) == rho
        readout = [shape[0] for name, shape in operands.calls
                   if name == "matmul" and len(shape) == 3 and shape[1:] == (1, 4)]
        assert sum(readout) == rho

    @pytest.mark.parametrize("variant", DROPOUT_VARIANTS)
    def test_float32_agrees_with_float64(self, variant):
        # Init-scale weights at the training shape. Far larger weights make
        # the recurrence chaotic, and the gap would measure its conditioning
        # rather than the kernel.
        n_batch, rho, n_in, n_hid = 100, 365, 10, 64
        w64 = init_weights(n_in, n_hid, 1, seed=70)
        rng = np.random.default_rng(71)
        X = rng.normal(size=(n_batch, rho, n_in))
        dY = rng.normal(size=(n_batch, rho, 1)) / (n_batch * rho)
        masks = sample_dropout_masks(DropoutSpec(variant, 0.5), n_in, n_hid, rho=rho,
                                     seed=72, batch=n_batch)
        runs = {}
        for w in (w64, w64.astype(np.float32)):
            Y, cache = forward_sequence(w, X, masks=masks)
            runs[w.theta.dtype] = Y, bptt_gradients(w, cache, dY).theta
        (Y64, g64), (Y32, g32) = runs[np.dtype(np.float64)], runs[np.dtype(np.float32)]
        assert np.max(np.abs(Y32 - Y64)) <= 1e-6
        assert np.linalg.norm(g32 - g64) / np.linalg.norm(g64) <= 1e-5


def _thread_starts(monkeypatch) -> list:
    """The threads started from now on, recorded as they start."""
    starts, start = [], threading.Thread.start

    def recorded(thread):
        starts.append(thread)
        start(thread)
    monkeypatch.setattr(threading.Thread, "start", recorded)
    return starts


class TestChunkedPrediction:
    """predict_sequence runs chunks of pixels on worker threads with the bits
    of one pass, so the number of CPUs never reaches a prediction."""

    @pytest.fixture(autouse=True)
    def one_blas_thread(self, monkeypatch):
        # Chunks use the CPUs that BLAS's own threads leave free.
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")

    def test_any_number_of_chunks_gives_the_bits_of_one_pass(self, monkeypatch):
        # Five groups of pixels: 2, 3 and 4 chunks split them unevenly. Time
        # runs two whole blocks and a remainder. At hidden 64 a split inside a
        # group would change bits.
        w = init_weights(3, 64, 2, seed=80)
        rng = np.random.default_rng(81)
        n_batch, rho = 5 * PREDICT_CHUNK_PIXELS, 2 * PREDICT_BLOCK_DAYS + 5
        X = rng.normal(size=(n_batch, rho, 3))
        monkeypatch.setattr(lstm_module, "PREDICT_CHUNK_GATES", 1)
        runs, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # hand the interpreter lock over often
        try:
            for cpus in (1, 2, 3, 4):
                monkeypatch.setattr(lstm_module, "usable_cpus", lambda cpus=cpus: cpus)
                starts = _thread_starts(monkeypatch)
                runs.append(predict_sequence(w, X))
                # The pool starts a worker only while none is idle.
                assert (cpus == 1 and not starts) or 1 <= len(starts) <= cpus - 1
        finally:
            sys.setswitchinterval(interval)
        for Y in runs[1:]:
            assert Y.shape == (n_batch, rho, 2)
            assert np.array_equal(Y, runs[0])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("cpus", [1, 2], ids=["one_chunk", "chunked"])
    def test_a_time_prefix_predicts_the_prefix_of_the_whole(self, monkeypatch, dtype, cpus):
        # The hindcast predicts its spin-up and only the days it scores.
        w = init_weights(3, 48, 1, seed=84).astype(dtype)
        n_batch, rho = 2 * PREDICT_CHUNK_PIXELS, 3 * PREDICT_BLOCK_DAYS + 5
        X = np.random.default_rng(85).normal(size=(n_batch, rho, 3))
        monkeypatch.setattr(lstm_module, "PREDICT_CHUNK_GATES", 1)
        monkeypatch.setattr(lstm_module, "usable_cpus", lambda: cpus)
        starts = _thread_starts(monkeypatch)
        whole = predict_sequence(w, X)
        for days in (1, PREDICT_BLOCK_DAYS - 3, 2 * PREDICT_BLOCK_DAYS + 7):
            prefix = predict_sequence(w, X[:, :days])
            assert prefix.dtype == dtype
            assert np.array_equal(prefix, whole[:, :days]), days
        assert bool(starts) == (cpus > 1)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("hidden", [4, 16, 48, 64])
    def test_a_pixel_predicts_alone_what_it_predicts_in_any_batch(self, monkeypatch, hidden,
                                                                  dtype):
        # Buffers are padded to whole groups of pixels, so a pixel's bits do
        # not depend on how many pixels share its prediction, nor on where
        # the chunks split them.
        rng = np.random.default_rng(86 + hidden)
        w = init_weights(3, hidden, 1, seed=hidden).astype(dtype)
        rho = PREDICT_BLOCK_DAYS + 5
        monkeypatch.setattr(lstm_module, "PREDICT_CHUNK_GATES", 1)
        monkeypatch.setattr(lstm_module, "usable_cpus", lambda: 2)
        for n_batch in rng.integers(1, 81, size=3):
            X = rng.normal(size=(n_batch, rho, 3))
            whole = predict_sequence(w, X)
            for p in range(n_batch):
                alone = predict_sequence(w, X[p:p + 1])
                assert np.array_equal(alone[0], whole[p]), (n_batch, p)

    @pytest.mark.parametrize("n_batch,hidden,force,blas_threads", [
        (64, 16, False, "1"),                        # the cli workload: below the threshold
        (PREDICT_CHUNK_PIXELS, 4, True, "1"),        # one group of pixels
        (256, 64, False, None),                      # BLAS threads on every CPU
        (256, 64, False, "4"),
        (256, 64, False, "x"),                       # a count OpenBLAS cannot read
    ], ids=["small", "one_group", "blas_default", "blas_four", "blas_bad"])
    def test_no_thread_starts_without_a_split(self, monkeypatch, n_batch, hidden, force,
                                              blas_threads):
        monkeypatch.setattr(lstm_module, "usable_cpus", lambda: 4)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        if blas_threads is not None:
            monkeypatch.setenv("OMP_NUM_THREADS", blas_threads)
        if force:
            monkeypatch.setattr(lstm_module, "PREDICT_CHUNK_GATES", 1)
        w = random_weights(3, hidden, 1, seed=82)
        starts = _thread_starts(monkeypatch)
        predict_sequence(w, np.random.default_rng(83).normal(size=(n_batch, 20, 3)))
        assert starts == []

    def test_benchmark_tracer_sees_one_span_on_the_calling_thread(self, monkeypatch):
        # perfbench's tracer is single-threaded and wraps predict_sequence by
        # module attribute; its pixel-days over this span are the benchmark's
        # prediction rate. A worker that called a traced name would open spans
        # of its own and corrupt the span stack and the count.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import tracing

        clock_threads = []

        class Clock:
            @staticmethod
            def perf_counter():
                clock_threads.append(threading.get_ident())
                return time.perf_counter()
        monkeypatch.setattr(lstm_module, "usable_cpus", lambda: 2)
        starts = _thread_starts(monkeypatch)
        w = init_weights(3, 64, 1, seed=84)
        X = np.random.default_rng(85).normal(size=(128, 20, 3))  # 2 chunks of 16,384 gates
        tracer = tracing.Tracer(tracing.STAGE_FUNCTIONS)
        tracer.install()
        try:
            monkeypatch.setattr(tracing, "time", Clock)
            tracer.begin("round-0")
            lstm_module.predict_sequence(w, X)
            tracer.end()
        finally:
            tracer.uninstall()
        assert len(starts) == 1
        assert [span[0] for span in tracer.spans] == ["lstm.predict"]
        assert tracer.per_run()["round-0"]["lstm.predict.pixel_days"] == 128 * 20
        assert set(clock_threads) == {threading.get_ident()}


def test_sigmoid_extremes_stable():
    # Gate pre-activations of +-800: the in-place sigmoid of the i, f and o
    # gates saturates to exactly 0 and 1, and nothing overflows.
    for dtype in (np.float32, np.float64):
        w = LstmWeights(1, 2, 1, dtype=dtype)
        w.Wx[:, 0] = np.tile([800.0, -800.0], 4)
        w.W_hy[...] = 1.0
        Y, cache = forward_sequence(w, np.array([[[1.0], [-1.0]]]))
        for arr in (Y, cache.gates, cache.s_fm, hidden_states(cache)):
            assert np.all(np.isfinite(arr))
        gates = cache.gates[:, :, 0]
        assert np.array_equal(gates[:, 2:], [[1.0, 0.0] * 3, [0.0, 1.0] * 3])   # i, f, o
        assert np.array_equal(gates[:, :2], [[1.0, -1.0], [-1.0, 1.0]])         # g
