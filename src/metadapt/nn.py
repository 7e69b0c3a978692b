"""Minimal dense numerics for the fixed model graphs.

Everything is float64 numpy.  A ``Param`` pairs a value with an accumulated
gradient; backward passes *add* into ``grad`` so one scalar loss can flow
through several subgraphs before an optimizer step.  ``flatten`` makes
Params views into one value vector and one gradient vector, on which
``adam_step`` and ``grad_check`` work and which callers zero.

Forward functions are pure; the ``*_forward`` variants that also return a
cache exist so the matching ``*_backward`` can replay exact activations.
The LSTM kernels run a whole padded batch of sequences per call on
pre-activations gathered from a table of projected inputs, and their
backward passes consume the cache: the gate buffer becomes the gradient
buffer.  ``lstm_states`` is the forward pass alone, for callers that never
backpropagate: it keeps no cache.  The BiLSTM hands back each direction's
states in that direction's own time order, never concatenated; callers
realign (T, B) arrays with ``reverse_index``.  A large enough batch runs
its two directions on two threads when BLAS runs one thread per call
(``_split_directions``).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np


class NumericalError(Exception):
    """A computation produced or received non-finite values."""


# ---------------------------------------------------------------------------
# parameters


@dataclass
class Param:
    """A weight array with an accumulated gradient of the same shape."""

    value: np.ndarray
    grad: np.ndarray = field(init=False)

    def __post_init__(self):
        self.value = np.ascontiguousarray(self.value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)


def flatten(params: list) -> tuple[np.ndarray, np.ndarray]:
    """Copy the Params, in list order, into one contiguous value vector and
    one zeroed gradient vector, and make each Param's ``value`` and ``grad``
    its view into them.  Returns (values, grads)."""
    values = np.concatenate([p.value.ravel() for p in params])
    grads = np.zeros_like(values)
    for p, stop in zip(params, np.cumsum([p.value.size for p in params])):
        start, shape = stop - p.value.size, p.value.shape
        p.value, p.grad = values[start:stop].reshape(shape), grads[start:stop].reshape(shape)
    return values, grads


def uniform_init(shape, fan, rng: np.random.Generator) -> np.ndarray:
    """Uniform(-1/sqrt(fan), 1/sqrt(fan)) initial weights."""
    limit = 1.0 / np.sqrt(fan)
    return rng.uniform(-limit, limit, size=shape)


# ---------------------------------------------------------------------------
# basic ops


def softmax(v, mask=None) -> np.ndarray:
    """Probabilities along the last axis over unmasked positions
    (max-subtracted for stability).

    ``mask`` is boolean, shaped like ``v``, with True marking positions that
    participate; masked positions come out exactly zero.  Every row needs at
    least one unmasked position.
    """
    v = np.asarray(v, dtype=np.float64)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != v.shape:
            raise ValueError("mask shape does not match input")
        if not mask.any(axis=-1).all():
            raise ValueError("softmax: all positions masked")
        v = np.where(mask, v, -np.inf)
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def one_hot(labels, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.intp)
    out = np.zeros((labels.size, n_classes), dtype=np.float64)
    out[np.arange(labels.size), labels] = 1.0
    return out


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy of row-wise softmax(logits) against integer labels.

    ``logits`` is (n, c).  The loss is taken in log-softmax form,
    ``log sum exp(shifted) - shifted[label]`` with each row max-subtracted, so
    it stays finite however far apart the logits are.  Returns
    (mean loss, d loss / d logits = (softmax - onehot) / n).
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if logits.ndim != 2 or labels.shape != logits.shape[:1] or labels.size == 0:
        raise ValueError(f"softmax_cross_entropy shape mismatch: logits {logits.shape}, "
                         f"labels {labels.shape}")
    n, c = logits.shape
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"labels out of range for {c} classes")
    rows = np.arange(n)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(total[:, 0]) - shifted[rows, labels]))
    dlogits = e / total
    dlogits[rows, labels] -= 1.0
    dlogits /= n
    return loss, dlogits


# ---------------------------------------------------------------------------
# LSTM


@dataclass
class LstmParams:
    """Single-direction LSTM weights; gate order [input, forget, cell, output]."""

    w_x: Param  # (4H, d)
    w_h: Param  # (4H, H)
    b: Param    # (4H,)

    @property
    def hidden_size(self) -> int:
        return self.w_h.value.shape[1]

    @classmethod
    def init(cls, input_size: int, hidden_size: int, rng: np.random.Generator) -> "LstmParams":
        """Uniform(-1/sqrt(H), 1/sqrt(H)) weights; forget-gate bias 1, others 0."""
        H = hidden_size
        b = np.zeros(4 * H)
        b[H:2 * H] = 1.0
        return cls(
            w_x=Param(uniform_init((4 * H, input_size), H, rng)),
            w_h=Param(uniform_init((4 * H, H), H, rng)),
            b=Param(b),
        )

    def params(self) -> list[Param]:
        return [self.w_x, self.w_h, self.b]


def _gate_affine(H: int):
    """Per-column scale [1/2, 1/2, 1, 1/2] and shift [1/2, 1/2, 0, 1/2] of
    the [input, forget, cell, output] gate blocks.  With the sigmoid
    columns of a pre-activation scaled by 1/2, ``scale * tanh(a) + shift``
    gives all four gates, since sigmoid(z) = 1/2 + tanh(z/2)/2; scaling by
    a power of two is exact."""
    return np.repeat([0.5, 0.5, 1.0, 0.5], H), np.repeat([0.5, 0.5, 0.0, 0.5], H)


def project_inputs(E: np.ndarray, p: LstmParams) -> np.ndarray:
    """(U + 1, 4H) input projections ``W_x e + b`` of the U rows of ``E``
    (U, d), in the gate form lstm_forward takes (sigmoid columns scaled by
    1/2).  The last row is ``b`` alone, the projection of a zero-padded
    position."""
    P = np.empty((E.shape[0] + 1, 4 * p.hidden_size))
    np.matmul(E, p.w_x.value.T, out=P[:-1])
    P[-1] = 0.0
    P += p.b.value
    P *= _gate_affine(p.hidden_size)[0]
    return P


def _recurrence(gates, cell, Hout, p: LstmParams):
    """The cell's time loop, shared by lstm_forward and lstm_states: fills
    and returns the states Hout (T, B, H).  ``gates(t)`` gives the (B, 4H)
    buffer that holds step t's input projection and becomes its gate
    activations, and ``cell(t)`` the (B, H) buffer of its cell state;
    ``cell(t - 1)`` is read before step t overwrites anything.  Each step
    adds one (B x H)(H x 4H) product and takes all four gates with one
    tanh."""
    H = p.hidden_size
    scale, shift = _gate_affine(H)
    wh_t = p.w_h.value.T * scale
    for t in range(len(Hout)):
        a, c = gates(t), cell(t)
        if t:
            a += Hout[t - 1] @ wh_t
        np.tanh(a, out=a)
        a *= scale
        a += shift                                   # [i, f, g, o]
        np.multiply(a[:, :H], a[:, 2 * H:3 * H], out=c)
        if t:
            c += a[:, H:2 * H] * cell(t - 1)
        np.multiply(a[:, 3 * H:], np.tanh(c), out=Hout[t])
    return Hout


def lstm_forward(A: np.ndarray, p: LstmParams):
    """Run the cell forward in time over a padded, time-major batch.

    ``A`` (T, B, 4H) holds the input projection of every step in
    project_inputs' gate form, typically rows of its table gathered by
    token; it becomes the gate buffer.  Column b holds one sequence from
    t = 0, zero initial state.  A sequence shorter than T is padded at its
    end; the states past its end are computed but meaningless, and callers
    never read them.  Returns (H_out (T, B, H), cache for lstm_backward);
    the cache holds the gate activations, the cell states and H_out itself.
    """
    C = np.empty(A.shape[:2] + (p.hidden_size,))
    Hout = _recurrence(A.__getitem__, C.__getitem__, np.empty_like(C), p)
    return Hout, {"A": A, "C": C, "H": Hout}


def lstm_states(P: np.ndarray, rows: np.ndarray, p: LstmParams):
    """lstm_forward's states H_out (T, B, H), bitwise equal, without its
    cache, for callers that never backpropagate.

    ``P`` is a project_inputs table and ``rows`` (T, B) each position's row
    in it, within its bounds.  Each step gathers its pre-activations into
    one (B, 4H) buffer and the cell state alternates between two (B, H)
    buffers, so besides the states the kernel holds O(B H) doubles where
    lstm_forward keeps the (T, B, 4H) gates and the (T, B, H) cell states.
    """
    Hout = np.empty(rows.shape + (p.hidden_size,))
    a = np.empty((rows.shape[1], P.shape[1]))
    cells = np.empty_like(Hout[:2])   # C[t] and C[t - 1], in turn
    # the rows index P (bilstm_forward builds them), so "clip" changes
    # nothing and spares take a buffered copy of each step's rows
    return _recurrence(lambda t: np.take(P, rows[t], axis=0, out=a, mode="clip"),
                       lambda t: cells[t % 2], Hout, p)


def lstm_backward(dH: np.ndarray, cache: dict, p: LstmParams) -> None:
    """Backprop through lstm_forward; accumulates into p's grads.

    ``cache`` is lstm_forward's, with the inputs X (T, B, d) its projections
    were made from added under ``"X"``.  ``dH`` (T, B, H) must be zero at
    every padded step: BPTT then starts from zero state at each sequence's
    end and the padded steps add exactly nothing.  Only ``dA W_h`` stays in
    the time loop; ``dW_x``, ``dW_h`` and ``db`` are one GEMM or one sum
    each afterwards.  The gate buffer is overwritten with d(pre-activation)
    and the cache is emptied, so a cache serves one backward pass.
    """
    if "A" not in cache:
        raise ValueError("this LSTM cache was already consumed by a backward pass")
    X, A, C, Hs = (cache.pop(k) for k in ("X", "A", "C", "H"))
    T, B, d = X.shape
    H = p.hidden_size
    wh = p.w_h.value
    dh_next = np.zeros((B, H))
    dc = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        a = A[t]
        i, f, g, o = a[:, :H], a[:, H:2 * H], a[:, 2 * H:3 * H], a[:, 3 * H:]
        dh = dH[t] + dh_next
        tc = np.tanh(C[t])
        do = dh * tc
        dc += dh * o * (1.0 - tc * tc)   # d C[t]: through C[t + 1] and h[t]
        di = dc * g
        dg = dc * i
        df = dc * C[t - 1] if t else np.zeros((B, H))
        dc *= f                          # now d C[t - 1]
        i *= di * (1.0 - i)
        f *= df * (1.0 - f)
        np.multiply(dg, 1.0 - g * g, out=g)
        o *= do * (1.0 - o)
        dh_next = a @ wh
    dA = A.reshape(T * B, 4 * H)
    p.w_x.grad += dA.T @ X.reshape(T * B, d)
    p.w_h.grad += A[1:].reshape(-1, 4 * H).T @ Hs[:-1].reshape(-1, H)
    p.b.grad += dA.sum(axis=0)


def reverse_index(lengths, T: int) -> np.ndarray:
    """(T, B) time index that reverses each column within its own length
    and leaves the padding in place; applying it twice is the identity."""
    t = np.arange(T)[:, None]
    L = np.asarray(lengths, dtype=np.intp)[None, :]
    return np.where(t < L, L - 1 - t, t)


def bilstm_forward(E: np.ndarray, rows: np.ndarray, lengths, fwd: LstmParams,
                   bwd: LstmParams, cache: bool = True):
    """Each direction's states (T, B, H) over a padded, time-major batch of
    inputs, each in that direction's own time order.

    ``E`` (U, d) holds the distinct input vectors and ``rows`` (T, B) each
    position's row in ``E``, padded positions row U.  Each direction
    projects ``E`` into its own project_inputs table and gathers its
    pre-activations from it.  Position t of column b holds, in Hf, the
    forward state after reading tokens 0..t and, in Hb, the backward state
    after reading tokens len_b - 1..rev[t, b]: the backward direction
    gathers with each column's rows reversed within its length, so its
    padding also trails.  ``rev`` (reverse_index) realigns a (T, B) array
    of either order with the other, ``a[rev, cols]``.  States at padded
    positions are meaningless.  The directions run one after the other, or
    side by side (``_run_directions``).  Returns (Hf, Hb, rev, cache for
    bilstm_backward); with ``cache=False`` the directions run lstm_states,
    which keeps nothing for BPTT, and the cache is None.
    """
    T, B = rows.shape
    if T < 1 or B < 1:
        raise ValueError("bilstm_forward expects a non-empty T x B batch")
    rev = reverse_index(lengths, T)

    def run(p, direction_rows):
        if cache:   # the table is dropped once gathered
            return lstm_forward(project_inputs(E, p)[direction_rows], p)
        return lstm_states(project_inputs(E, p), direction_rows, p), None

    (Hf, cf), (Hb, cb) = _run_directions(
        lambda: run(fwd, rows), lambda: run(bwd, rows[rev, np.arange(B)]),
        _split_directions(T, B, fwd.hidden_size))
    return Hf, Hb, rev, (rev, cf, cb) if cache else None


def bilstm_backward(dHf: np.ndarray, dHb: np.ndarray, X: np.ndarray, cache,
                    fwd: LstmParams, bwd: LstmParams) -> None:
    """Backprop through bilstm_forward into both directions' grads.  ``X``
    (T, B, d) holds the inputs at their positions, zero at padding.  dHf
    and dHb (T, B, H) are the gradients of Hf and Hb, each in its own
    direction's time order, and must be zero at padded positions.  The
    backward direction makes its reversed copy of X itself, so when the
    directions run side by side both directions' BPTT buffers are live at
    once."""
    rev, cf, cb = cache
    T, B = rev.shape

    def forward_direction():
        cf["X"] = X
        lstm_backward(dHf, cf, fwd)

    def backward_direction():
        cb["X"] = X[rev, np.arange(B)]
        lstm_backward(dHb, cb, bwd)

    _run_directions(forward_direction, backward_direction,
                    _split_directions(T, B, fwd.hidden_size))


# ---------------------------------------------------------------------------
# running the two directions side by side
#
# The directions share no state until the attention reads their outputs, and
# numpy and BLAS release the GIL, so on two CPUs they can overlap.  Each
# direction runs the same operations in the same order either way and
# writes only its own arrays and Params, so the results are bitwise equal.

# A batch splits when its recurrent work T*B*H^2 reaches this.  Below it the
# per-step arrays are too small for two threads to beat one.  Forward plus
# backward with one BLAS thread on 2 vCPUs, split against serial speed:
# 0.6x at the acceptance shape (12*44*16^2 = 1.4e5), 0.97x at 2.8e6, 1.0x
# at 4.9e6, 1.28x at 5.5e6 and 1.33x at a paper-shape batch (40*30*128^2
# = 2.0e7).
SPLIT_MIN_WORK = 4_000_000


def _split_allowed(environ, blas_name: str, cpus: int) -> bool:
    """Whether a second thread has a CPU of its own: BLAS runs one thread
    per call and the process may use two CPUs or more.  BLAS takes its
    thread count, when it loads, from the first of its variables that holds
    a positive integer, and runs a thread per CPU when none does; the two
    directions would then compete with its threads for the same CPUs."""
    if "mkl" in blas_name.lower():
        names = ("MKL_NUM_THREADS", "OMP_NUM_THREADS")
    else:
        names = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    for name in names:
        value = environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value) == 1 and cpus >= 2
    return False


def _blas_name() -> str:
    config = getattr(np.__config__, "CONFIG", {})   # numpy >= 1.26
    return config.get("Build Dependencies", {}).get("blas", {}).get("name") or ""


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# read once: BLAS reads its variables once, when numpy loads it
_SPLIT_ALLOWED = _split_allowed(os.environ, _blas_name(), _cpu_count())


def _split_directions(T: int, B: int, H: int) -> bool:
    """Whether a (T, B) batch of width H runs its directions side by side."""
    return _SPLIT_ALLOWED and T * B * H * H >= SPLIT_MIN_WORK


def _run_directions(forward, backward, split: bool):
    """(forward(), backward()): in order on this thread, or with backward()
    on a worker thread of this call's own while forward() runs here.  The
    worker is joined before this returns or raises, so it never writes into
    a buffer its caller still uses and nothing is left running between
    calls; an exception from either side reaches the caller."""
    if not split:
        return forward(), backward()
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="metadapt-bilstm") as worker:
        future = worker.submit(backward)
        out = forward()
    return out, future.result()


# ---------------------------------------------------------------------------
# feed-forward layers


def ffn_forward_cached(x, layers):
    """The discriminator's network: affine layers with a ReLU after every
    layer but the last, with the cache ffn_backward needs.

    ``layers`` is a list of ``(w: Param (out, in), b: Param (out,))``.
    Returns (output, acts): acts holds each layer's input, then the output.
    """
    acts = [np.asarray(x, dtype=np.float64)]
    for i, (w, b) in enumerate(layers):
        z = acts[-1] @ w.value.T + b.value
        acts.append(np.maximum(z, 0.0) if i < len(layers) - 1 else z)
    return acts[-1], acts


def ffn_backward(dout, acts, layers, update_grads: bool = True) -> np.ndarray:
    """Backprop a (rows, out) gradient through ffn_forward_cached; returns
    the gradient w.r.t. the input.

    With ``update_grads=False`` only the input gradient is computed and the
    layer params are left untouched (used when the network is held fixed).
    """
    g = dout
    for i in range(len(layers) - 1, -1, -1):
        w, b = layers[i]
        if update_grads:
            w.grad += g.T @ acts[i]
            b.grad += g.sum(axis=0)
        g = g @ w.value
        if i:
            g *= acts[i] > 0   # acts[i] = max(z, 0): the ReLU's mask
    return g


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Adam moments of one parameter vector."""

    lr: float = 1e-3
    t: int = 0
    m: np.ndarray = None
    v: np.ndarray = None


# Adam's elementwise passes run over blocks of this many elements, so that
# each block's moments, gradients and values stay in L2 between passes;
# over the whole vector at once, every pass streams a paper-shape
# generator's 4.4 MB vectors from memory again.
ADAM_BLOCK = 1 << 15
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(state: AdamState, values: np.ndarray, grads: np.ndarray):
    """One Adam update of ``values`` with bias correction; ``grads`` is
    zeroed afterwards.  Elementwise, so each Param's part, and each block
    of ``ADAM_BLOCK`` elements, rounds as it would alone."""
    if state.m is None:
        state.m, state.v = np.zeros_like(values), np.zeros_like(values)
    if not state.m.shape == grads.shape == values.shape:
        raise ValueError("parameter vector does not match optimizer state")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for s in range(0, values.size, ADAM_BLOCK):
        m, v, g, w = (x[s:s + ADAM_BLOCK] for x in (state.m, state.v, grads, values))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        w -= state.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    grads.fill(0.0)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(loss_fn, values: np.ndarray, grads: np.ndarray, eps: float = 1e-5,
               n_coords: int = 200, rng: np.random.Generator = None) -> float:
    """Max relative error between analytic gradients and central differences.

    ``loss_fn()`` must return the scalar loss and accumulate the analytic
    gradients into ``grads``, the vector ``flatten`` paired with ``values``
    (zeroed here before the call).  Up to ``n_coords`` coordinates of
    ``values`` are sampled; the error per coordinate is |analytic - numeric|
    / max(1e-8, |analytic| + |numeric|).
    """
    if n_coords < 1:
        raise ValueError(f"n_coords must be >= 1, got {n_coords}")
    rng = np.random.default_rng(0) if rng is None else rng
    grads.fill(0.0)
    base = float(loss_fn())
    if not np.isfinite(base):
        raise NumericalError("non-finite loss in grad_check")
    analytic = grads.copy()

    coords = (rng.choice(values.size, size=n_coords, replace=False)
              if values.size > n_coords else range(values.size))

    worst = 0.0
    for j in coords:
        orig = values[j]
        values[j] = orig + eps
        lp = float(loss_fn())
        values[j] = orig - eps
        lm = float(loss_fn())
        values[j] = orig
        if not (np.isfinite(lp) and np.isfinite(lm)):
            raise NumericalError("non-finite loss during finite differencing")
        numeric = (lp - lm) / (2.0 * eps)
        ana = float(analytic[j])
        err = abs(ana - numeric) / max(1e-8, abs(ana) + abs(numeric))
        worst = max(worst, err)
    grads.fill(0.0)
    return worst
