"""Reference computations, written apart from the program's `nn` and `model`.

The encoder reads its weights from the checkpoint file's JSON and its word
vectors from the inputs the benchmark wrote, so it shares no code with the
program under test.  It hoists the input projection out of the recurrence
and uses its own sigmoid, so agreement with the program is a check of the
arithmetic, not a copy of it.
"""

from __future__ import annotations

import json

import numpy as np


def read_checkpoint_weights(path) -> dict:
    """Generator arrays straight from the checkpoint JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    arrays = {name: np.asarray(spec["data"], dtype=np.float64).reshape(spec["shape"])
              for name, spec in payload["arrays"].items()}
    return {"arrays": arrays, "lam": float(payload["config"]["lam"])}


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _lstm_states(W, w_x, w_h, b):
    """Hidden states (H x m) of one LSTM direction over the columns of W,
    from zero state; gate rows are [input, forget, cell, output]."""
    H = w_h.shape[1]
    pre = w_x @ W + b[:, None]
    h = np.zeros(H)
    c = np.zeros(H)
    out = np.empty((H, W.shape[1]))
    for t in range(W.shape[1]):
        a = pre[:, t] + w_h @ h
        i = _sigmoid(a[:H])
        f = _sigmoid(a[H:2 * H])
        g = np.tanh(a[2 * H:3 * H])
        o = _sigmoid(a[3 * H:])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[:, t] = h
    return out


def encode(tokens, vectors: dict, arrays: dict):
    """(feature with the bias 1 appended, attention weights) for one sentence
    under attention fusion s = W k."""
    W = np.stack([vectors[t] for t in tokens], axis=1)
    hf = _lstm_states(W, arrays["gen.fwd.w_x"], arrays["gen.fwd.w_h"], arrays["gen.fwd.b"])
    hb = _lstm_states(W[:, ::-1], arrays["gen.bwd.w_x"], arrays["gen.bwd.w_h"],
                      arrays["gen.bwd.b"])[:, ::-1]
    z = arrays["gen.attn_w"] @ np.vstack([hf, hb]) + arrays["gen.attn_b"][0]
    k = np.exp(z - z.max())
    k /= k.sum()
    return np.append(W @ k, 1.0), k


def ridge_solve(X, Y, lam: float) -> np.ndarray:
    """Minimiser of (1/2m)||X theta - Y||^2 + (lam/2)||theta||^2, as the least
    squares solution of the augmented system [X; sqrt(m lam) I] theta = [Y; 0]."""
    m, p = X.shape
    A = np.vstack([X, np.sqrt(m * lam) * np.eye(p)])
    B = np.vstack([Y, np.zeros((p, Y.shape[1]))])
    theta, *_ = np.linalg.lstsq(A, B, rcond=None)
    return theta


def ridge_gradient(X, Y, lam: float, theta) -> np.ndarray:
    """Gradient of the ridge objective at theta."""
    return X.T @ (X @ theta - Y) / X.shape[0] + lam * theta


def one_hot(labels, n: int) -> np.ndarray:
    Y = np.zeros((len(labels), n))
    Y[np.arange(len(labels)), labels] = 1.0
    return Y


def episode_accuracy(support, query, n_way: int, feature, lam: float) -> float:
    """Query accuracy of the ridge head fit on the support set.

    ``support``/``query`` are (key, local label) pairs and ``feature(key)``
    gives the classifier input; ties go to the lowest class index.
    """
    X = np.stack([feature(k) for k, _ in support])
    theta = ridge_solve(X, one_hot([y for _, y in support], n_way), lam)
    scores = np.stack([feature(k) for k, _ in query]) @ theta
    pred = np.argmax(scores, axis=1)
    return int(sum(int(p) == y for p, (_, y) in zip(pred, query))) / len(query)
