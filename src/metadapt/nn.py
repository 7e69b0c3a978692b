"""Minimal dense numerics for the fixed model graphs.

Everything is float64 numpy.  A ``Param`` pairs a value with an accumulated
gradient; backward passes *add* into ``grad`` so one scalar loss can flow
through several subgraphs before an optimizer step.  Callers zero grads
between independent accumulation cycles (``adam_step`` zeroes them after
each update).

Forward functions are pure; the ``*_forward`` variants that also return a
cache exist so the matching ``*_backward`` can replay exact activations.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .corpus import DataError

CHECKPOINT_FORMAT_VERSION = 1


class NumericalError(Exception):
    """A computation produced or received non-finite values."""


# ---------------------------------------------------------------------------
# parameters


@dataclass
class Param:
    """A weight array with an accumulated gradient of the same shape."""

    value: np.ndarray
    grad: np.ndarray = None

    def __post_init__(self):
        self.value = np.ascontiguousarray(self.value, dtype=np.float64)
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        else:
            self.grad = np.ascontiguousarray(self.grad, dtype=np.float64)
            if self.grad.shape != self.value.shape:
                raise ValueError("grad shape does not match value shape")

    def zero_grad(self):
        self.grad.fill(0.0)


def uniform_init(shape, fan, rng: np.random.Generator) -> np.ndarray:
    """Uniform(-1/sqrt(fan), 1/sqrt(fan)) initial weights."""
    limit = 1.0 / np.sqrt(fan)
    return rng.uniform(-limit, limit, size=shape)


def params_digest(params) -> str:
    """Hex digest of parameter values, for phase-isolation checks."""
    h = hashlib.sha256()
    for p in params:
        h.update(np.ascontiguousarray(p.value).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# basic ops


def softmax(v, mask=None) -> np.ndarray:
    """Probability vector over unmasked positions (max-subtracted for stability).

    ``mask`` is boolean with True marking positions that participate; masked
    positions come out exactly zero.
    """
    v = np.asarray(v, dtype=np.float64)
    if mask is None:
        e = np.exp(v - v.max())
        return e / e.sum()
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != v.shape:
        raise ValueError("mask shape does not match input")
    if not mask.any():
        raise ValueError("softmax: all positions masked")
    out = np.zeros_like(v)
    vm = v[mask]
    e = np.exp(vm - vm.max())
    out[mask] = e / e.sum()
    return out


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

    @property
    def input_size(self) -> int:
        return self.w_x.value.shape[1]

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

    def clone(self) -> "LstmParams":
        return LstmParams(Param(self.w_x.value.copy()), Param(self.w_h.value.copy()),
                          Param(self.b.value.copy()))


def lstm_forward(X: np.ndarray, p: LstmParams):
    """Run the cell left-to-right over the columns of X (d x m), zero initial state.

    Returns (H_out (H x m), cache for lstm_backward).
    """
    d, m = X.shape
    H = p.hidden_size
    wx, wh, b = p.w_x.value, p.w_h.value, p.b.value
    I = np.empty((H, m)); F = np.empty((H, m)); G = np.empty((H, m)); O = np.empty((H, m))
    C = np.empty((H, m)); Cprev = np.empty((H, m)); Hprev = np.empty((H, m))
    Hout = np.empty((H, m))
    h = np.zeros(H)
    c = np.zeros(H)
    for t in range(m):
        Hprev[:, t] = h
        Cprev[:, t] = c
        a = wx @ X[:, t] + wh @ h + b
        i = expit(a[:H]); f = expit(a[H:2 * H]); g = np.tanh(a[2 * H:3 * H]); o = expit(a[3 * H:])
        c = f * c + i * g
        h = o * np.tanh(c)
        I[:, t] = i; F[:, t] = f; G[:, t] = g; O[:, t] = o
        C[:, t] = c
        Hout[:, t] = h
    cache = {"X": X, "I": I, "F": F, "G": G, "O": O, "C": C, "Cprev": Cprev, "Hprev": Hprev}
    return Hout, cache


def lstm_backward(dH: np.ndarray, cache: dict, p: LstmParams) -> np.ndarray:
    """Backprop through lstm_forward; accumulates into p grads, returns dX."""
    X = cache["X"]
    I, F, G, O = cache["I"], cache["F"], cache["G"], cache["O"]
    C, Cprev, Hprev = cache["C"], cache["Cprev"], cache["Hprev"]
    d, m = X.shape
    H = I.shape[0]
    wx, wh = p.w_x.value, p.w_h.value
    dwx = np.zeros_like(wx)
    dwh = np.zeros_like(wh)
    db = np.zeros(4 * H)
    dX = np.zeros_like(X)
    dh_next = np.zeros(H)
    dc_next = np.zeros(H)
    da = np.empty(4 * H)
    for t in range(m - 1, -1, -1):
        dh = dH[:, t] + dh_next
        tc = np.tanh(C[:, t])
        do = dh * tc
        dc = dc_next + dh * O[:, t] * (1.0 - tc * tc)
        di = dc * G[:, t]
        dg = dc * I[:, t]
        df = dc * Cprev[:, t]
        dc_next = dc * F[:, t]
        da[:H] = di * I[:, t] * (1.0 - I[:, t])
        da[H:2 * H] = df * F[:, t] * (1.0 - F[:, t])
        da[2 * H:3 * H] = dg * (1.0 - G[:, t] ** 2)
        da[3 * H:] = do * O[:, t] * (1.0 - O[:, t])
        dwx += np.outer(da, X[:, t])
        dwh += np.outer(da, Hprev[:, t])
        db += da
        dX[:, t] = wx.T @ da
        dh_next = wh.T @ da
    p.w_x.grad += dwx
    p.w_h.grad += dwh
    p.b.grad += db
    return dX


def bilstm_forward(X: np.ndarray, fwd: LstmParams, bwd: LstmParams):
    """Contextual states (2H x m): forward-direction states stacked on backward.

    Column i holds the forward state after reading tokens 1..i on top of the
    backward state after reading tokens m..i.  Initial states are zero.
    Returns (H_ctx, cache for bilstm_backward).
    """
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError("bilstm_forward expects a d x m matrix with m >= 1")
    Hf, cf = lstm_forward(X, fwd)
    Hb_rev, cb = lstm_forward(X[:, ::-1], bwd)
    out = np.vstack([Hf, Hb_rev[:, ::-1]])
    return out, (cf, cb)


def bilstm_backward(dOut: np.ndarray, cache, fwd: LstmParams, bwd: LstmParams) -> np.ndarray:
    H = fwd.hidden_size
    cf, cb = cache
    dX = lstm_backward(dOut[:H], cf, fwd)
    dX = dX + lstm_backward(np.ascontiguousarray(dOut[H:][:, ::-1]), cb, bwd)[:, ::-1]
    return dX


# ---------------------------------------------------------------------------
# feed-forward layers


def _activation(name: str):
    if name == "linear" or name is None:
        return (lambda z: z), (lambda z, a: np.ones_like(z))
    if name == "relu":
        return (lambda z: np.maximum(z, 0.0)), (lambda z, a: (z > 0).astype(np.float64))
    if name == "tanh":
        return np.tanh, (lambda z, a: 1.0 - a * a)
    if name == "sigmoid":
        return expit, (lambda z, a: a * (1.0 - a))
    raise ValueError(f"unknown activation {name!r}")


def ffn_forward(x, layers) -> np.ndarray:
    """Sequential affine + activation layers.

    ``layers`` is a list of ``(w: Param (out,in), b: Param (out,), activation)``.
    ``x`` may be a single vector (n,) or a batch (rows, n).
    """
    out, _ = ffn_forward_cached(x, layers)
    return out


def ffn_forward_cached(x, layers):
    x = np.asarray(x, dtype=np.float64)
    pre = []
    acts = [x]
    for w, b, name in layers:
        f, _ = _activation(name)
        z = x @ w.value.T + b.value
        x = f(z)
        pre.append(z)
        acts.append(x)
    return x, (pre, acts)


def ffn_backward(dout, cache, layers, update_grads: bool = True) -> np.ndarray:
    """Backprop through ffn_forward_cached; returns gradient w.r.t. the input.

    With ``update_grads=False`` only the input gradient is computed and the
    layer params are left untouched (used when the network is held fixed).
    """
    pre, acts = cache
    g = np.asarray(dout, dtype=np.float64)
    for li in range(len(layers) - 1, -1, -1):
        w, b, name = layers[li]
        _, dfn = _activation(name)
        g = g * dfn(pre[li], acts[li + 1])
        a_in = acts[li]
        if update_grads:
            if g.ndim == 1:
                w.grad += np.outer(g, a_in)
                b.grad += g
            else:
                w.grad += g.T @ a_in
                b.grad += g.sum(axis=0)
        g = g @ w.value
    return g


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Adam moments for a fixed, ordered list of parameters."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: list = None
    v: list = None


def adam_step(state: AdamState, params):
    """One Adam update with bias correction; grads are zeroed afterwards."""
    params = list(params)
    if state.m is None:
        state.m = [np.zeros_like(p.value) for p in params]
        state.v = [np.zeros_like(p.value) for p in params]
    if len(state.m) != len(params):
        raise ValueError("parameter list does not match optimizer state")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for p, m, v in zip(params, state.m, state.v):
        g = p.grad
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.value -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
        p.zero_grad()


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(loss_fn, params, eps: float = 1e-5, n_coords: int = 200,
               rng: np.random.Generator = None) -> float:
    """Max relative error between analytic gradients and central differences.

    ``loss_fn()`` must return the scalar loss and accumulate the analytic
    gradients into ``params`` (grads are zeroed here before the call).  Up to
    ``n_coords`` coordinates are sampled across all params; the error per
    coordinate is |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    rng = np.random.default_rng(0) if rng is None else rng
    params = list(params)
    for p in params:
        p.zero_grad()
    base = float(loss_fn())
    if not np.isfinite(base):
        raise NumericalError("non-finite loss in grad_check")
    analytic = [p.grad.copy() for p in params]

    sizes = [p.value.size for p in params]
    coords = [(pi, j) for pi, n in enumerate(sizes) for j in range(n)]
    if len(coords) > n_coords:
        sel = rng.choice(len(coords), size=n_coords, replace=False)
        coords = [coords[int(s)] for s in sel]

    worst = 0.0
    for pi, j in coords:
        flat = params[pi].value.reshape(-1)
        orig = flat[j]
        flat[j] = orig + eps
        lp = float(loss_fn())
        flat[j] = orig - eps
        lm = float(loss_fn())
        flat[j] = orig
        if not (np.isfinite(lp) and np.isfinite(lm)):
            raise NumericalError("non-finite loss during finite differencing")
        numeric = (lp - lm) / (2.0 * eps)
        ana = float(analytic[pi].reshape(-1)[j])
        err = abs(ana - numeric) / max(1e-8, abs(ana) + abs(numeric))
        worst = max(worst, err)
    for p in params:
        p.zero_grad()
    return worst


# ---------------------------------------------------------------------------
# named-array checkpoint container


def save_arrays(path, arrays: dict, config: dict = None):
    """Write named float arrays plus an optional config dict as JSON.

    Floats are serialized with shortest round-trip decimals, so a load
    reproduces every value bit-exactly.
    """
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "arrays": {
            name: {"shape": list(np.asarray(a).shape),
                   "data": np.asarray(a, dtype=np.float64).ravel().tolist()}
            for name, a in arrays.items()
        },
    }
    if config is not None:
        payload["config"] = config
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_arrays(path):
    """Read a named-array container; returns (arrays, config).

    Malformed content raises DataError naming the file and the array.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot open checkpoint {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid checkpoint JSON: {exc.msg}") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("arrays", {}), dict):
        raise DataError(f"{path}: checkpoint is not a named-array container")
    version = payload.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint format version {version!r}")
    arrays = {}
    for name, spec in payload.get("arrays", {}).items():
        try:
            arrays[name] = np.asarray(spec["data"], dtype=np.float64).reshape(spec["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed array {name}: {exc!r}") from None
    return arrays, payload.get("config") or {}
