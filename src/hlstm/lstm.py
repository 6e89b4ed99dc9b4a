"""LSTM cell, sequence forward pass, dropout masks, and backpropagation through time.

The cell follows the standard formulation with four gates:

    g = tanh(W_gx x + W_gh h + b_g)     candidate update
    i = sigma(W_ix x + W_ih h + b_i)    input gate
    f = sigma(W_fx x + W_fh h + b_f)    forget gate
    o = sigma(W_ox x + W_oh h + b_o)    output gate
    s' = g * i + s * f                  cell state
    h' = tanh(s') * o                   hidden state
    y  = W_hy h' + b_y                  linear readout

with sigma(z) = 0.5 + 0.5 * tanh(z / 2).

The parameters live in one flat vector, ``LstmWeights.theta``: the
fused gate weights Wx (4*hidden, input), Wh (4*hidden, hidden) and b
(4*hidden,), with rows in g, i, f, o blocks (W_gx above W_ix, and so on),
then the readout W_hy (output, hidden) and b_y (output,). Code reads and
writes them through views of theta and never rebinds a view. This is the
layout of a flattened ``torch.nn.LSTM``, whose ``weight_ih`` is (4*hidden,
input) in one buffer.

The kernel runs in the dtype of the weights: every buffer of the time loop
and of BPTT (inputs, masks, states, gates, gradients) takes theta's dtype, so
float64 weights compute in float64 and float32 weights in float32, with no
silent promotion. Every sequence comes in a batch: inputs are (batch, rho,
input) and outputs (batch, rho, output). Every pass starts from the zero
state; a spin-up is a prefix of the inputs. :func:`forward_sequence` takes
sampled masks.
Batch gradients are accumulated by the matrix products themselves, in fixed
instance order, so results do not depend on evaluation order.

One time loop serves :func:`forward_sequence` and :func:`predict_sequence`.
Each step is one product of W = [Wh | Wx | b], built once per pass with its
i, f, o rows halved, and z_t = [h_{t-1} * hm; x_t; 1] (hm the recurrent
mask) into the step's (4*hidden, batch) slice of gate pre-activations in g,
i, f, o order; one tanh then gives every gate, 0.5 + 0.5 * t finishing the
sigmoids. Every array of the loop is feature-major, (dim, batch). A block's
inputs are copied into its z slots once, and each step writes its h into the
next slot, read by one stacked readout a block. The cache keeps gates, cell
states and masked inputs: BPTT recomputes h as o * tanh(s) bit for bit,
rebuilds z_t a block at a time and adds da_t z_t^T each step. Training lends
each epoch's cache to the next pass. Prediction runs chunks of pixels on
threads with the bits of one pass, in buffers padded to whole groups of
pixels (PREDICT_CHUNK_GATES, PREDICT_CHUNK_PIXELS).

This module also hosts the seeded RNG construction shared by the rest of the
toolkit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .config import Config
from .errors import NumericError, ValidationError

DROPOUT_VARIANTS = ("none", "non_recurrent", "recurrent_constant", "memory_cell")

# Time steps per block of the time loop: bounds the prediction's gate buffer
# to PREDICT_BLOCK_DAYS x batch x 4*hidden floats, whatever the record length.
# On 256 pixels x 1,460 days at hidden 64, blocks of 8 or 16 steps ran
# fastest (about 1.0 s, against 1.1-1.2 s at 32-64 and 1.3 s at 256); 16
# keeps that buffer at 8 MiB.
PREDICT_BLOCK_DAYS = 16

# predict_sequence runs a chunk of pixels per usable CPU that BLAS threads
# leave free, each of >= PREDICT_CHUNK_GATES gate values (4*hidden x pixels)
# per step; numpy drops the GIL in matmul and tanh. On 2 vCPUs with one BLAS
# thread, two chunks of 16k ran 1.5-1.7x faster, of 8k 0.9-1.1x, of 4k 0.46x;
# with two BLAS threads, 1.4-1.5x slower. OpenBLAS 0.3.31 computes a partial
# group of columns differently in a narrower matrix: chunks are padded to whole
# groups of PREDICT_CHUNK_PIXELS, so a pixel's bits do not depend on the others.
PREDICT_CHUNK_GATES = 16384
PREDICT_CHUNK_PIXELS = 16


def make_rng(seed) -> np.random.Generator:
    """Return a Generator; ints/SeedSequences are wrapped, Generators pass through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_threads() -> int:
    """The threads OpenBLAS runs a call on: the first positive count among the
    variables it reads when loaded, else one per usable CPU."""
    counts = [os.environ.get(v, "") for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                              "OMP_NUM_THREADS")]
    return next((int(c) for c in counts if c.isdigit() and int(c) > 0), usable_cpus())


# The hlstm-v1 container names of the per-gate views: (name, fused view,
# gate block in g, i, f, o order, or None for the whole view).
_V1_LAYOUT = (
    ("W_gx", "Wx", 0), ("W_ix", "Wx", 1), ("W_fx", "Wx", 2), ("W_ox", "Wx", 3),
    ("W_gh", "Wh", 0), ("W_ih", "Wh", 1), ("W_fh", "Wh", 2), ("W_oh", "Wh", 3),
    ("b_g", "b", 0), ("b_i", "b", 1), ("b_f", "b", 2), ("b_o", "b", 3),
    ("W_hy", "W_hy", None), ("b_y", "b_y", None),
)


class LstmWeights:
    """All parameters of the cell and the readout, in one flat vector.

    ``theta`` holds, each row-major and in this order, ``Wx`` (4*hidden,
    input), ``Wh`` (4*hidden, hidden), ``b`` (4*hidden,), ``W_hy`` (output,
    hidden) and ``b_y`` (output,); the rows of Wx, Wh and b run in g, i, f,
    o gate blocks. These five attributes are views into theta: write through
    them (``w.b_y[...] = value``), never rebind them or theta, so that every
    view and theta stay one buffer. The same class holds the gradients that
    :func:`bptt_gradients` returns, so an optimizer step is one expression on
    theta. :meth:`named_arrays` yields the per-gate views under their
    ``hlstm-v1`` container names. theta is float64 unless ``dtype`` says
    otherwise; the forward pass and BPTT run in theta's dtype.
    """

    __slots__ = ("theta", "input_size", "hidden_size", "output_size")

    def __init__(self, input_size: int, hidden_size: int, output_size: int, dtype=float):
        """Zero parameters of the given layer sizes."""
        if min(input_size, hidden_size, output_size) < 1:
            raise ValidationError("all layer sizes must be >= 1")
        self.input_size, self.hidden_size, self.output_size = (
            input_size, hidden_size, output_size)
        self.theta = np.zeros(sum(math.prod(shape) for shape in self._shapes()), dtype=dtype)

    def astype(self, dtype) -> "LstmWeights":
        """A copy with theta converted to ``dtype``."""
        out = LstmWeights(self.input_size, self.hidden_size, self.output_size, dtype)
        out.theta[...] = self.theta
        return out

    def _shapes(self):
        """The shapes of Wx, Wh, b, W_hy and b_y, in theta order."""
        H, n_out = self.hidden_size, self.output_size
        return (4 * H, self.input_size), (4 * H, H), (4 * H,), (n_out, H), (n_out,)

    def _view(self, k: int) -> np.ndarray:
        shapes = self._shapes()
        start = sum(math.prod(shape) for shape in shapes[:k])
        return self.theta[start:start + math.prod(shapes[k])].reshape(shapes[k])

    # Read-only properties: assigning to a view raises AttributeError.
    Wx = property(lambda self: self._view(0))
    Wh = property(lambda self: self._view(1))
    b = property(lambda self: self._view(2))
    W_hy = property(lambda self: self._view(3))
    b_y = property(lambda self: self._view(4))

    @staticmethod
    def gate_shapes(input_size: int, hidden_size: int, output_size: int):
        """(hlstm-v1 name, shape) of each per-gate view, in container order,
        for these layer sizes; nothing is allocated."""
        H = hidden_size
        shapes = {"Wx": (H, input_size), "Wh": (H, H), "b": (H,), "W_hy": (output_size, H),
                  "b_y": (output_size,)}
        return [(name, shapes[view]) for name, view, _ in _V1_LAYOUT]

    def named_arrays(self):
        """Yield (hlstm-v1 name, per-gate view) pairs in container order."""
        H = self.hidden_size
        for name, view, gate in _V1_LAYOUT:
            arr = getattr(self, view)
            yield name, arr if gate is None else arr[gate * H:(gate + 1) * H]


@dataclass
class DropoutSpec(Config):
    """Which dropout masks to sample and at what rate.

    variant "non_recurrent" resamples an input mask every step,
    "recurrent_constant" samples one hidden-to-gate mask per sequence,
    "memory_cell" masks the candidate node g every step, "none" is identity.
    """

    variant: str = "none"
    rate: float = 0.0

    def validate(self):
        if self.variant not in DROPOUT_VARIANTS:
            raise ValidationError(
                f"unknown dropout variant {self.variant!r}; expected one of {DROPOUT_VARIANTS}")
        if not (0.0 <= self.rate < 1.0):
            raise ValidationError(f"dropout rate must lie in [0, 1), got {self.rate}")
        return self

    @property
    def is_identity(self) -> bool:
        return self.variant == "none" or self.rate == 0.0


class DropoutMasks:
    """Sampled masks for one forward pass. A ``None`` path means all-ones.

    Masks use inverted scaling: kept entries equal 1/(1-rate) so the
    expectation of a masked value equals the unmasked value.
    """

    def __init__(self, x=None, h=None, g=None):
        self.x = x          # (rho, batch, input) resampled each step
        self.h = h          # (batch, hidden) constant across the sequence
        self.g = g          # (rho, batch, hidden) resampled each step


def _apply(value, mask):
    return value if mask is None else value * mask


def init_weights(input_size: int, hidden_size: int, output_size: int, seed) -> LstmWeights:
    """Sample initial weights uniformly in +-1/sqrt(hidden); forget bias 1, other biases 0."""
    w = LstmWeights(input_size, hidden_size, output_size)
    rng = make_rng(seed)
    bound = 1.0 / np.sqrt(hidden_size)
    # One draw per matrix, in theta order. A draw fills its view row by row,
    # so it equals the four per-gate draws in g, i, f, o order.
    for view in (w.Wx, w.Wh, w.W_hy):
        view[...] = rng.uniform(-bound, bound, size=view.shape)
    w.b[2 * hidden_size:3 * hidden_size] = 1.0
    return w


def sample_dropout_masks(spec: DropoutSpec, input_size: int, hidden_size: int,
                         rho: int, seed, batch: int) -> DropoutMasks:
    """Sample the mask set for one forward pass of ``batch`` sequences of
    length rho; each instance gets independent masks. Identity variants
    (variant "none" or rate 0) consume no random numbers.
    """
    spec.validate()
    if rho < 1:
        raise ValidationError(f"sequence length must be >= 1, got {rho}")
    if spec.is_identity:
        return DropoutMasks()
    rng = make_rng(seed)
    keep = 1.0 - spec.rate

    def bernoulli(shape):
        return (rng.random(shape) >= spec.rate).astype(float) / keep

    if spec.variant == "non_recurrent":
        return DropoutMasks(x=bernoulli((rho, batch, input_size)))
    if spec.variant == "recurrent_constant":
        return DropoutMasks(h=bernoulli((batch, hidden_size)))
    # memory_cell: per-step mask on the candidate node.
    return DropoutMasks(g=bernoulli((rho, batch, hidden_size)))


def _loop_masks(masks: DropoutMasks, dtype):
    """The recurrent masks as the time loop and BPTT read them, feature-major
    and in ``dtype``: h (hidden, batch) and g (rho, hidden, batch)."""
    h = None if masks.h is None else np.array(np.asarray(masks.h).T, dtype=dtype, order="C")
    return h, None if masks.g is None else np.moveaxis(masks.g, 1, 2).astype(dtype, copy=False)


def _loop_arrays(w: LstmWeights, T: int, width: int, keep: bool = False,
                 reuse: ForwardCache | None = None):
    """The arrays of a time loop over T steps of ``width`` columns: W = [Wh |
    Wx | b] with the i, f, o rows halved (exact, so one tanh gives tanh(a/2)
    for sigma), W_hy, b_y; gates and cell states of all T steps if ``keep``
    (those of ``reuse``, a cache of this shape, when given), else of a block;
    a block's h and readout; one step's scratch; z slots of a block and one."""
    H, dtype, n = w.hidden_size, w.theta.dtype, min(T, PREDICT_BLOCK_DAYS)
    half = np.repeat(np.array([1.0, 0.5], dtype=dtype), [H, 3 * H])[:, None]
    W = np.concatenate((w.Wh, w.Wx, w.b[:, None]), axis=1) * half
    Z = np.zeros((n + 1, H + w.input_size + 1, width), dtype=dtype)
    Z[:, -1] = 1.0
    shapes = [(T if keep else n, 4 * H), (T if keep else n, H), (n, H), (n, w.output_size), (H,)]
    lent = () if reuse is None else (reuse.gates, reuse.s_fm)
    return (W, w.W_hy, w.b_y[:, None], *lent,
            *(np.empty(shape + (width,), dtype=dtype) for shape in shapes[len(lent):]), Z)


def _run_cell(arrays, x, Y, hm=None, gm=None):
    """The LSTM time loop of the forward pass and prediction, from the zero
    state, in the dtype of ``arrays`` (:func:`_loop_arrays`). ``x`` (T, input,
    batch) holds the masked inputs; ``hm`` and every per-step array are
    feature-major, (hidden, batch), and ``gm`` is aligned with x. ``Y`` (T,
    output, batch) receives the outputs; buffer columns past the batch run on
    zero inputs and are dropped. Slot t of a block of Z holds z_t = [h_{t-1} *
    hm; x_t; 1]: the inputs are copied in once a block, and step t writes h_t
    (times hm) into slot t + 1."""
    W, W_hy, b_y, gates, S, Hs, Yb, sf, Z = arrays
    T, n, H, nb = len(x), len(Hs), len(sf), Y.shape[-1]
    hs = Z[1:, :H] if hm is None else Hs    # where step t's h goes; the readout reads it
    s = np.zeros_like(sf)   # Z is allocated zeroed, so slot 0 holds h_{-1} = 0
    for t0 in range(0, T, n):
        m = min(n, T - t0)
        k = t0 % len(S)     # t0 when every step is kept, 0 in a one-block buffer
        A, Sb = gates[k:k + m], S[k:k + m]
        Z[:m, H:-1, :nb] = x[t0:t0 + m]
        for t in range(m):
            a = np.matmul(W, Z[t], out=A[t])
            np.tanh(a, out=a)
            # The i, f, o rows were pre-halved: finish sigma(z) = 0.5 + 0.5 tanh(z/2).
            sig = a[H:]
            sig *= 0.5
            sig += 0.5
            g, i, f, o = a[:H], a[H:2 * H], a[2 * H:3 * H], a[3 * H:]
            np.multiply(s, f, out=sf)
            s = np.multiply(g if gm is None else g * gm[t0 + t], i, out=Sb[t])
            s += sf
            h = np.tanh(s, out=hs[t])
            h *= o
            if hm is not None:
                np.multiply(h, hm, out=Z[t + 1, :H])
        np.matmul(W_hy, hs[:m], out=Yb[:m])
        np.add(Yb[:m, :, :nb], b_y, out=Y[t0:t0 + m])
        Z[0, :H] = Z[m, :H]


@dataclass
class ForwardCache:
    """Everything needed to replay the forward pass exactly and run BPTT.

    The buffers are kept as the time loop wrote them, feature-major:
    ``gates`` (rho, 4*hidden, batch) holds g, i, f, o; ``s_fm`` is (rho,
    hidden, batch), ``y_fm`` (rho, output, batch), and ``x`` the (rho,
    input, batch) inputs times their mask. The pass started from the zero
    state. BPTT recomputes step t's h, ``o * tanh(s_fm[t])``, exactly.
    """

    x: np.ndarray
    masks: DropoutMasks
    gates: np.ndarray
    s_fm: np.ndarray
    y_fm: np.ndarray


def _sequence_inputs(w: LstmWeights, X) -> np.ndarray:
    """Check a finite (batch, rho, input) X with rho >= 1; return its
    feature-major (rho, input, batch) view."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 3:
        raise ValidationError(f"X must be (batch, rho, input), got shape {X.shape}")
    if X.shape[1] < 1:
        raise ValidationError("sequence length must be >= 1")
    if X.shape[-1] != w.input_size:
        raise ValidationError(
            f"input width {X.shape[-1]} does not match input_size {w.input_size}")
    if not np.all(np.isfinite(X)):
        raise NumericError("non-finite values in X")
    return X.transpose(1, 2, 0)


def forward_sequence(w: LstmWeights, X: np.ndarray, masks: DropoutMasks | None = None,
                     reuse: ForwardCache | None = None):
    """Run the cell over a batch of sequences, X (batch, rho, input), from
    the zero state.

    ``masks`` are sampled ones (:func:`sample_dropout_masks`; None means no
    dropout); passing the masks from a cache replays a previous pass
    bit-exactly. A ``reuse`` cache of the same shapes lends its input, gate
    and cell-state buffers, which this pass overwrites, so that cache is
    spent. Returns (Y (batch, rho, output), ForwardCache).
    """
    x = _sequence_inputs(w, X)
    masks = DropoutMasks() if masks is None else masks

    # A masked copy of the inputs in theta's dtype; the cache keeps it for BPTT.
    dtype = w.theta.dtype
    if reuse is None or (reuse.x.shape, reuse.x.dtype, reuse.s_fm.shape[1]) != (
            x.shape, dtype, w.hidden_size):
        reuse = None
    xc = np.empty(x.shape, dtype=dtype) if reuse is None else reuse.x
    np.copyto(xc, x)
    if masks.x is not None:
        xc *= np.moveaxis(masks.x, 1, 2).astype(dtype, copy=False)
    arrays = _loop_arrays(w, len(x), x.shape[2], keep=True, reuse=reuse)
    Y = np.empty((len(x), w.output_size, x.shape[2]), dtype=dtype)
    _run_cell(arrays, xc, Y, *_loop_masks(masks, dtype))
    return Y.transpose(2, 0, 1), ForwardCache(
        x=xc, masks=masks, gates=arrays[3], s_fm=arrays[4], y_fm=Y)


def predict_sequence(w: LstmWeights, X: np.ndarray) -> np.ndarray:
    """Mask-free evaluation forward pass from the zero state that keeps no
    cache (long sequences): X is (batch, rho, input) and Y (batch, rho,
    output). A spin-up is a prefix of X whose outputs the caller drops. Time
    runs in blocks of PREDICT_BLOCK_DAYS steps, so memory does not grow with
    the sequence length beyond the inputs and outputs; a large batch runs in
    chunks of pixels on threads, and each pixel gets the bits it would get
    alone (PREDICT_CHUNK_GATES, PREDICT_CHUNK_PIXELS).
    """
    x = _sequence_inputs(w, X)
    dtype, T, n_batch, P = w.theta.dtype, len(x), x.shape[2], PREDICT_CHUNK_PIXELS
    groups = -(-n_batch // P)
    n = max(1, min(usable_cpus() // _blas_threads(), groups,
                   4 * w.hidden_size * n_batch // PREDICT_CHUNK_GATES))
    edges = [groups * c // n * P for c in range(n)] + [n_batch]
    # Every buffer, padded to whole groups, is allocated here; chunks write Y in place.
    Y = np.empty((T, w.output_size, n_batch), dtype=dtype)
    chunks = [(_loop_arrays(w, T, -(-(hi - lo) // P) * P), x[..., lo:hi], Y[..., lo:hi])
              for lo, hi in zip(edges, edges[1:])]
    if n == 1:
        _run_cell(*chunks[0])
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(n - 1) as pool:
            rest = [pool.submit(_run_cell, *chunk) for chunk in chunks[1:]]
            _run_cell(*chunks[0])
            for job in rest:
                job.result()
    return Y.transpose(2, 0, 1)


def bptt_gradients(w: LstmWeights, cache: ForwardCache, dL_dY: np.ndarray) -> LstmWeights:
    """Exact reverse-mode gradients of the cached forward pass.

    dL_dY is (batch, rho, output), as the forward pass returned Y, and the
    returned container has the LstmWeights layout, in the dtype of
    ``w``. Dropout masks are replayed from the cache. The forward pass's
    operands z_t = [h_{t-1} * hm; x_t; 1] are rebuilt a block at a time, and
    each step adds da_t z_t^T to one [Wh | Wx | b] gradient, split at the end.
    """
    if (cache.x.shape[1], cache.s_fm.shape[1], cache.y_fm.shape[1]) != (
            w.input_size, w.hidden_size, w.output_size):
        raise ValidationError("cache does not match the weight dimensions")
    dtype = w.theta.dtype
    dL_dY = np.asarray(dL_dY, dtype=dtype)
    rho, n_out, n_batch = cache.y_fm.shape
    if dL_dY.shape != (n_batch, rho, n_out):
        raise ValidationError(
            f"dL_dY shape {dL_dY.shape} does not match forward outputs")
    # Feature-major (rho, output, batch), as the forward pass wrote Y.
    dY = np.ascontiguousarray(dL_dY.transpose(1, 2, 0))

    hm, gm = _loop_masks(cache.masks, dtype)
    grads = LstmWeights(w.input_size, w.hidden_size, w.output_size, dtype)
    Wh, W_hy, H, G, S = w.Wh, w.W_hy, w.hidden_size, cache.gates, cache.s_fm
    grads.b_y[...] = dY.sum(axis=(0, 2))

    # The pass started from zeros: h_{-1} = s_{-1} = 0.
    dh, ds, dh_carry, ds_carry, zeros = np.zeros((5, H, n_batch), dtype=dtype)
    # One step's gate pre-activation gradients (g, i, f, o) and gate derivatives.
    da, dact = np.empty((2,) + G.shape[1:], dtype=dtype)
    da_g, da_i, da_f, da_o = da[:H], da[H:2 * H], da[2 * H:3 * H], da[3 * H:]
    # h_{t-1} is recomputed as o * tanh(s) from the tanh(S[t - 1]) step t - 1
    # reads; a ring of a block of them feeds one stacked dY[t] @ h_t^T a block.
    n = min(rho, PREDICT_BLOCK_DAYS)
    ring, dW_hy = np.empty((n, H, n_batch), dtype=dtype), np.empty((rho, n_out, H), dtype=dtype)
    tanh_s = np.tanh(S[-1])
    np.multiply(G[-1, 3 * H:], tanh_s, out=ring[(rho - 1) % n])
    # A block's z_t in slots t % n (their last row stays 1), and dW = sum da_t z_t^T.
    Z = np.ones((n, H + w.input_size + 1, n_batch), dtype=dtype)
    dW, dW_t = np.zeros((2, 4 * H, Z.shape[1]), dtype=dtype)

    for t in range(rho - 1, -1, -1):
        j = t % n
        if j == n - 1 or t == rho - 1:  # a block's last step: load its inputs
            Z[:j + 1, H:-1] = cache.x[t - j:t + 1]
        np.dot(W_hy.T, dY[t], out=dh)   # np.matmul is 8x slower at output 1
        dh += dh_carry
        if j == 0:
            m = min(n, rho - t)
            np.matmul(dY[t:t + m], ring[:m].transpose(0, 2, 1), out=dW_hy[t:t + m])

        a = G[t]
        g, i, f, o = a[:H], a[H:2 * H], a[2 * H:3 * H], a[3 * H:]
        np.multiply(dh, tanh_s, out=da_o)
        np.multiply(dh, o, out=ds)
        ds *= 1.0 - tanh_s * tanh_s
        ds += ds_carry

        mg = None if gm is None else gm[t]
        s_prev = S[t - 1] if t > 0 else zeros
        np.multiply(_apply(ds, mg), i, out=da_g)
        np.multiply(ds, _apply(g, mg), out=da_i)
        np.multiply(ds, s_prev, out=da_f)
        # tanh' = 1 - g^2 on the g block, sigma' = sigma - sigma^2 on i, f, o.
        np.multiply(a, a, out=dact)
        np.subtract(1.0, dact[:H], out=dact[:H])
        np.subtract(a[H:], dact[H:], out=dact[H:])
        da *= dact
        np.multiply(ds, f, out=ds_carry)

        if t > 0:   # step t - 1's tanh(s), and its h
            np.tanh(S[t - 1], out=tanh_s)
        h_prev = np.multiply(G[t - 1, 3 * H:], tanh_s, out=ring[(t - 1) % n]) if t else zeros
        Z[j, :H] = h_prev
        np.matmul(Wh.T, da, out=dh_carry)
        if hm is not None:      # z_t holds h_{t-1} * hm, so dh_{t-1} is masked too
            Z[j, :H] *= hm
            dh_carry *= hm
        dW += np.matmul(da, Z[j].T, out=dW_t)

    grads.Wh[...], grads.Wx[...], grads.b[...] = dW[:, :H], dW[:, H:-1], dW[:, -1]
    grads.W_hy[...] = dW_hy.sum(axis=0)
    return grads
