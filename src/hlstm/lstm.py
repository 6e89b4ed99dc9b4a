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
silent promotion. Sequences may be a single (rho, input) matrix or a batch
tensor (batch, rho, input); batch gradients are accumulated by the matrix
products themselves, in fixed instance order, so results do not depend on
evaluation order.

One time loop serves :func:`forward_sequence` and :func:`predict_sequence`.
Per block of time, one stacked matrix product projects the inputs into a
(steps, 4*hidden, batch) buffer of gate pre-activations in g, i, f, o order.
Each step adds the recurrent product into its slice and turns the slice into
activations in place, with a single tanh: the i, f, o weights are pre-halved,
and 0.5 + 0.5 * t finishes their sigmoid. After the block one stacked product
forms its readout. Inside the loop every array is feature-major, (dim,
batch), so each gate block of a step is contiguous; a single sequence runs
as a batch of one. The forward cache keeps the gates and cell states for
BPTT, which recomputes each h as o * tanh(s), bit for bit; training lends
each epoch's cache to the next pass to overwrite. Prediction reuses
one block of buffers and runs chunks of pixels on worker threads, with the
bits of one pass (PREDICT_CHUNK_GATES).

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
# with two BLAS threads, 1.4-1.5x slower. Chunks are whole groups of
# PREDICT_CHUNK_PIXELS, as OpenBLAS 0.3.31 computes a partial group of
# columns differently in a narrower matrix; a batch with one runs unsplit.
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
class LstmState:
    """Hidden state h and cell state s of one sequence (or a batch of them)."""

    h: np.ndarray
    s: np.ndarray

    @classmethod
    def zeros(cls, hidden_size: int, batch: int | None = None) -> "LstmState":
        shape = (hidden_size,) if batch is None else (batch, hidden_size)
        return cls(h=np.zeros(shape), s=np.zeros(shape))


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
        self.x = x          # (rho, ..., input) resampled each step
        self.h = h          # (..., hidden) constant across the sequence
        self.g = g          # (rho, ..., hidden) resampled each step


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
                         rho: int, seed, batch: int | None = None) -> DropoutMasks:
    """Sample the mask set for one forward pass of length rho.

    For batch evaluation each instance gets independent masks. Identity
    variants (variant "none" or rate 0) consume no random numbers.
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

    inst = () if batch is None else (batch,)
    if spec.variant == "non_recurrent":
        return DropoutMasks(x=bernoulli((rho, *inst, input_size)))
    if spec.variant == "recurrent_constant":
        return DropoutMasks(h=bernoulli((*inst, hidden_size)))
    # memory_cell: per-step mask on the candidate node.
    return DropoutMasks(g=bernoulli((rho, *inst, hidden_size)))


def _to_fm(v, dtype) -> np.ndarray:
    """A (..., dim) state or mask as a contiguous feature-major (dim, batch)
    array of ``dtype``; a single instance becomes (dim, 1)."""
    return np.array(np.atleast_2d(v).T, dtype=dtype, order="C")


def _from_fm(v: np.ndarray, batched: bool) -> np.ndarray:
    """Inverse of :func:`_to_fm`, as a new array."""
    return np.ascontiguousarray(v.T) if batched else v[:, 0].copy()


def _loop_masks(masks: DropoutMasks, batched: bool, dtype):
    """The masks as the time loop reads them, in ``dtype``: x (rho, batch,
    input) and g (rho, batch, hidden) with an instance axis, h feature-major."""
    def with_batch(m):
        return None if m is None else (m if batched else m[:, None]).astype(dtype, copy=False)

    return (with_batch(masks.x), None if masks.h is None else _to_fm(masks.h, dtype),
            with_batch(masks.g))


def _loop_arrays(w: LstmWeights, T: int, n_batch: int, keep: bool = False,
                 reuse: ForwardCache | None = None):
    """The arrays of a time loop over T steps of n_batch columns: Wx, Wh, b with
    the i, f, o rows halved (exact, so one tanh gives tanh(a/2) for sigma),
    W_hy, b_y; gates and cell states of all T steps if ``keep`` (those of
    ``reuse``, a cache of this shape, when given), else of a block; hidden
    states of a block; one step's scratch."""
    H, dtype, n = w.hidden_size, w.theta.dtype, min(T, PREDICT_BLOCK_DAYS)
    half = np.full((4 * H, 1), 0.5, dtype=dtype)
    half[:H] = 1.0
    shapes = [(T if keep else n, 4 * H), (T if keep else n, H), (n, H), (4 * H,), (H,)]
    lent = () if reuse is None else (reuse.gates, reuse.s_fm)
    return (w.Wx * half, w.Wh * half, w.b[:, None] * half, w.W_hy, w.b_y[:, None], *lent,
            *(np.empty(shape + (n_batch,), dtype=dtype) for shape in shapes[len(lent):]))


def _run_cell(arrays, x, h, s, Y, xm=None, hm=None, gm=None):
    """The LSTM time loop of the forward pass and prediction, in the dtype of
    ``arrays`` (:func:`_loop_arrays`); returns the final (h, s). ``x`` is (T,
    batch, input); ``h``, ``s``, ``hm`` and every per-step array are
    feature-major, (hidden, batch), so each gate block of a step is one
    contiguous slice. ``xm`` and ``gm`` are the x and g masks aligned with x's
    time axis. ``Y`` (T, output, batch) receives the outputs."""
    Wx_half, Wh_half, b_half, W_hy, b_y, gates, S, Hs, rec, sf = arrays
    T, n, H = len(x), len(Hs), len(rec) // 4
    for t0 in range(0, T, n):
        m = min(n, T - t0)
        k = t0 % len(S)     # t0 when every step is kept, 0 in a one-block buffer
        A, Sb = gates[k:k + m], S[k:k + m]
        xb = _apply(x[t0:t0 + m], None if xm is None else xm[t0:t0 + m])
        np.matmul(Wx_half, xb.transpose(0, 2, 1), out=A)
        A += b_half
        for t in range(m):
            a = A[t]
            a += np.matmul(Wh_half, _apply(h, hm), out=rec)
            np.tanh(a, out=a)
            # The i, f, o rows were pre-halved: finish sigma(z) = 0.5 + 0.5 tanh(z/2).
            sig = a[H:]
            sig *= 0.5
            sig += 0.5
            g, i, f, o = a[:H], a[H:2 * H], a[2 * H:3 * H], a[3 * H:]
            np.multiply(s, f, out=sf)
            s = np.multiply(g if gm is None else g * gm[t0 + t].T, i, out=Sb[t])
            s += sf
            h = np.tanh(s, out=Hs[t])
            h *= o
        Yb = Y[t0:t0 + m]
        np.matmul(W_hy, Hs[:m], out=Yb)
        Yb += b_y
    return h, s


@dataclass
class ForwardCache:
    """Everything needed to replay the forward pass exactly and run BPTT.

    The buffers are kept as the time loop wrote them, feature-major:
    ``gates`` (rho, 4*hidden, batch) holds g, i, f, o; ``s_fm`` is (rho,
    hidden, batch), ``y_fm`` (rho, output, batch), and ``x`` the (rho,
    batch, input) inputs. A single sequence is stored as a batch of one.
    BPTT recomputes step t's hidden state, ``o * tanh(s_fm[t])``, exactly.
    """

    x: np.ndarray
    masks: DropoutMasks
    h0: np.ndarray
    s0: np.ndarray
    gates: np.ndarray
    s_fm: np.ndarray
    y_fm: np.ndarray
    batched: bool
    input_size: int
    hidden_size: int
    output_size: int


def _sequence_inputs(w: LstmWeights, X, initial_state: LstmState | None):
    """Check a finite (rho, input) or (batch, rho, input) X with rho >= 1;
    return its time-major (rho, batch, input) view, whether it is a batch,
    and the initial state (default zeros)."""
    X = np.asarray(X, dtype=float)
    if X.ndim not in (2, 3):
        raise ValidationError(f"X must be 2-D or 3-D, got shape {X.shape}")
    if X.shape[-2] < 1:
        raise ValidationError("sequence length must be >= 1")
    if X.shape[-1] != w.input_size:
        raise ValidationError(
            f"input width {X.shape[-1]} does not match input_size {w.input_size}")
    if not np.all(np.isfinite(X)):
        raise NumericError("non-finite values in X")
    if initial_state is not None and {np.shape(initial_state.h)[-1],
                                      np.shape(initial_state.s)[-1]} != {w.hidden_size}:
        raise ValidationError("initial state dimensions do not match hidden_size")
    if X.ndim == 3:
        return np.swapaxes(X, 0, 1), True, initial_state or LstmState.zeros(w.hidden_size, len(X))
    return X[:, None], False, initial_state or LstmState.zeros(w.hidden_size)


def forward_sequence(w: LstmWeights, X: np.ndarray, initial_state: LstmState | None = None,
                     spec: DropoutSpec | None = None, seed=None,
                     masks: DropoutMasks | None = None, reuse: ForwardCache | None = None):
    """Run the cell over a whole sequence (or batch of sequences).

    X has shape (rho, input) or (batch, rho, input). Masks are sampled from
    ``spec``/``seed`` unless given explicitly; passing the masks from a cache
    replays a previous pass bit-exactly. A ``reuse`` cache of the same shapes
    lends its input, gate and cell-state buffers, which this pass overwrites,
    so that cache is spent. Returns (Y, ForwardCache).
    """
    x, batched, initial_state = _sequence_inputs(w, X, initial_state)
    if masks is None:
        if spec is None or spec.is_identity:
            masks = DropoutMasks()
        else:
            masks = sample_dropout_masks(spec, w.input_size, w.hidden_size, x.shape[0],
                                         seed, batch=x.shape[1] if batched else None)

    # A time-major copy of the inputs in theta's dtype; the cache keeps it for BPTT.
    dtype = w.theta.dtype
    if reuse is not None and (reuse.x.shape, reuse.x.dtype, reuse.hidden_size) == (
            x.shape, dtype, w.hidden_size):
        np.copyto(reuse.x, x)
        x = reuse.x
    else:
        x, reuse = np.array(x, dtype=dtype, order="C"), None
    arrays = _loop_arrays(w, *x.shape[:2], keep=True, reuse=reuse)
    Y = np.empty((len(x), w.output_size, x.shape[1]), dtype=dtype)
    _run_cell(arrays, x, _to_fm(initial_state.h, dtype), _to_fm(initial_state.s, dtype), Y,
              *_loop_masks(masks, batched, dtype))
    cache = ForwardCache(
        x=x, masks=masks, h0=initial_state.h, s0=initial_state.s,
        gates=arrays[5], s_fm=arrays[6], y_fm=Y, batched=batched,
        input_size=w.input_size, hidden_size=w.hidden_size, output_size=w.output_size,
    )
    Y_out = Y.transpose(2, 0, 1) if batched else Y[..., 0]
    return Y_out, cache


def predict_sequence(w: LstmWeights, X: np.ndarray,
                     initial_state: LstmState | None = None,
                     return_final_state: bool = False):
    """Mask-free evaluation forward pass that keeps no cache (long sequences).

    X is as for :func:`forward_sequence`. Time runs in blocks of
    PREDICT_BLOCK_DAYS steps, so memory does not grow with the sequence
    length beyond the inputs and outputs; a large batch runs in chunks of
    pixels on threads, with the bits of one pass (PREDICT_CHUNK_GATES). With
    ``return_final_state`` the result is (Y, LstmState), e.g. for spin-up.
    """
    x, batched, state = _sequence_inputs(w, X, initial_state)
    dtype = w.theta.dtype
    x = x.astype(dtype, copy=False)
    T, n_batch = x.shape[:2]
    groups = n_batch // PREDICT_CHUNK_PIXELS if n_batch % PREDICT_CHUNK_PIXELS == 0 else 0
    n = max(1, min(usable_cpus() // _blas_threads(), groups,
                   4 * w.hidden_size * n_batch // PREDICT_CHUNK_GATES))
    edges = [groups * c // n * PREDICT_CHUNK_PIXELS for c in range(n)] + [n_batch]
    # Every buffer is allocated in this thread; the chunks write Y in place.
    Y = np.empty((T, w.output_size, n_batch), dtype=dtype)
    h0, s0 = _to_fm(state.h, dtype), _to_fm(state.s, dtype)
    chunks = [(_loop_arrays(w, T, hi - lo), x[:, lo:hi], h0[:, lo:hi], s0[:, lo:hi], Y[..., lo:hi])
              for lo, hi in zip(edges, edges[1:])]
    if n == 1:
        finals = [_run_cell(*chunks[0])]
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(n - 1) as pool:
            rest = [pool.submit(_run_cell, *chunk) for chunk in chunks[1:]]
            finals = [_run_cell(*chunks[0])] + [job.result() for job in rest]
    Y = Y.transpose(2, 0, 1) if batched else Y[..., 0]
    if return_final_state:
        h, s = (np.concatenate(v, axis=1) for v in zip(*finals))
        return Y, LstmState(h=_from_fm(h, batched), s=_from_fm(s, batched))
    return Y


def bptt_gradients(w: LstmWeights, cache: ForwardCache, dL_dY: np.ndarray) -> LstmWeights:
    """Exact reverse-mode gradients of the cached forward pass.

    dL_dY is (rho, output), (batch, rho, output) matching the forward layout,
    and the returned container has the LstmWeights layout, in the dtype of
    ``w``. Dropout masks are replayed from the cache.
    """
    if (cache.input_size, cache.hidden_size, cache.output_size) != (
            w.input_size, w.hidden_size, w.output_size):
        raise ValidationError("cache does not match the weight dimensions")
    dtype = w.theta.dtype
    dL_dY = np.asarray(dL_dY, dtype=dtype)
    rho, n_out, n_batch = cache.y_fm.shape
    expected = (n_batch, rho, n_out) if cache.batched else (rho, n_out)
    if dL_dY.shape != expected:
        raise ValidationError(
            f"dL_dY shape {dL_dY.shape} does not match forward outputs")
    # Feature-major (rho, output, batch), as the forward pass wrote Y.
    dY = (np.ascontiguousarray(dL_dY.transpose(1, 2, 0)) if cache.batched
          else dL_dY[..., None])

    xm, hm, gm = _loop_masks(cache.masks, cache.batched, dtype)
    # The gradients accumulate straight into the views of one flat buffer.
    grads = LstmWeights(w.input_size, w.hidden_size, w.output_size, dtype)
    dWx, dWh, db = grads.Wx, grads.Wh, grads.b
    Wh, W_hy = w.Wh, w.W_hy
    H = w.hidden_size
    G, S = cache.gates, cache.s_fm
    grads.b_y[...] = dY.sum(axis=(0, 2))

    h0, s0 = _to_fm(cache.h0, dtype), _to_fm(cache.s0, dtype)
    dh_carry = np.zeros_like(h0)
    ds_carry = np.zeros_like(s0)
    # One step's gate pre-activation gradients, in the g, i, f, o order, and
    # the gate derivatives they are scaled by; both reused across steps.
    da = np.empty(G.shape[1:], dtype=dtype)
    dact = np.empty_like(da)
    da_g, da_i, da_f, da_o = da[:H], da[H:2 * H], da[2 * H:3 * H], da[3 * H:]
    # h_{t-1} is recomputed as o * tanh(s) from the tanh(S[t - 1]) step t - 1
    # reads; a ring of a block of them feeds one stacked dY[t] @ h_t^T a block.
    n = min(rho, PREDICT_BLOCK_DAYS)
    ring, dW_hy = np.empty((n, H, n_batch), dtype=dtype), np.empty((rho, n_out, H), dtype=dtype)
    tanh_s = np.tanh(S[-1])
    np.multiply(G[-1, 3 * H:], tanh_s, out=ring[(rho - 1) % n])

    for t in range(rho - 1, -1, -1):
        dh = W_hy.T @ dY[t]
        dh += dh_carry
        if t % n == 0:
            m = min(n, rho - t)
            np.matmul(dY[t:t + m], ring[:m].transpose(0, 2, 1), out=dW_hy[t:t + m])

        a = G[t]
        g, i, f, o = a[:H], a[H:2 * H], a[2 * H:3 * H], a[3 * H:]
        np.multiply(dh, tanh_s, out=da_o)
        ds = dh * o
        ds *= 1.0 - tanh_s * tanh_s
        ds += ds_carry

        mg = None if gm is None else gm[t].T
        s_prev = S[t - 1] if t > 0 else s0
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
            tanh_s = np.tanh(S[t - 1])
        h_prev = np.multiply(G[t - 1, 3 * H:], tanh_s, out=ring[(t - 1) % n]) if t else h0
        xd = _apply(cache.x[t], None if xm is None else xm[t])
        dWx += da @ xd
        dWh += da @ _apply(h_prev, hm).T
        db += da.sum(axis=1)
        dh_carry = _apply(Wh.T @ da, hm)

    grads.W_hy[...] = dW_hy.sum(axis=0)
    return grads
