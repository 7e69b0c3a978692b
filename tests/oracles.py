"""Per-sample reference implementations the tests check the batched code
against, and the helpers only the tests use.

None of these run in training; each spells out one sentence or one sample
at a time what the batched functions in ``metadapt`` compute in one pass.
The per-sentence encoder (LSTM, BiLSTM, attention, fusion and their
backward passes, one time step at a time) is the one the batched encoder
replaced.
"""

import hashlib
import json

import numpy as np
import scipy.linalg
from scipy.special import expit, logsumexp

from metadapt import harness, nn
from metadapt.corpus import embed_sentence
from metadapt.episodes import Episode
from metadapt.model import RidgeClassifier, ridge_predict, with_bias


def cross_entropy(logits, label: int) -> float:
    """-log softmax(logits)[label] for one logit vector, in log-sum-exp form."""
    logits = np.asarray(logits, dtype=np.float64)
    return float(logsumexp(logits) - logits[int(label)])


def lstm_cell(x, h_prev, c_prev, p: nn.LstmParams):
    """One LSTM step: returns (h, c)."""
    H = p.hidden_size
    a = p.w_x.value @ np.asarray(x, dtype=np.float64) \
        + p.w_h.value @ np.asarray(h_prev, dtype=np.float64) + p.b.value
    i = expit(a[:H])
    f = expit(a[H:2 * H])
    g = np.tanh(a[2 * H:3 * H])
    o = expit(a[3 * H:])
    c = f * np.asarray(c_prev, dtype=np.float64) + i * g
    h = o * np.tanh(c)
    return h, c


def softmax(v, mask=None):
    """Probability vector over the unmasked positions of one score vector."""
    v = np.asarray(v, dtype=np.float64)
    mask = np.ones(v.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    out = np.zeros_like(v)
    e = np.exp(v[mask] - v[mask].max())
    out[mask] = e / e.sum()
    return out


# ---------------------------------------------------------------------------
# the per-sentence encoder


def lstm_forward(X: np.ndarray, p: nn.LstmParams):
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


def lstm_backward(dH: np.ndarray, cache: dict, p: nn.LstmParams) -> np.ndarray:
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


def bilstm_forward(X: np.ndarray, fwd: nn.LstmParams, bwd: nn.LstmParams):
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


def bilstm_backward(dOut: np.ndarray, cache, fwd: nn.LstmParams,
                    bwd: nn.LstmParams) -> np.ndarray:
    H = fwd.hidden_size
    cf, cb = cache
    dX = lstm_backward(dOut[:H], cf, fwd)
    dX = dX + lstm_backward(np.ascontiguousarray(dOut[H:][:, ::-1]), cb, bwd)[:, ::-1]
    return dX


def generate_attention(W: np.ndarray, gen, mask=None):
    """Per-word attention weights for one sentence.

    Scores each BiLSTM contextual state with the learned projection and
    softmaxes across positions.  Returns (k (m,), cache for the backward
    pass through the generator).
    """
    H_ctx, bc = bilstm_forward(W, gen.fwd, gen.bwd)
    z = gen.attn_w.value @ H_ctx + gen.attn_b.value[0]
    k = softmax(z, mask)
    return k, (W, H_ctx, bc, k)


def fuse(W: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Sentence embedding s = W k, the attention-weighted sum of word vectors."""
    W = np.asarray(W, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if W.ndim != 2 or k.ndim != 1 or W.shape[1] != k.shape[0]:
        raise ValueError(f"fuse shape mismatch: {W.shape} with {k.shape}")
    return W @ k


def fuse_concat(W: np.ndarray, k: np.ndarray, max_len: int) -> np.ndarray:
    """Ablation fusion: attention weights zero-padded to max_len, then the
    column mean of W appended.  Output length is max_len + d."""
    W = np.asarray(W, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    m = k.shape[0]
    if m > max_len:
        raise ValueError(f"sentence length {m} exceeds max_len {max_len}")
    padded = np.zeros(max_len)
    padded[:m] = k
    return np.concatenate([padded, W.mean(axis=1)])


def gen_forward(W: np.ndarray, gen, cfg):
    """Encoder feature for one sentence (pre-bias) plus backward cache."""
    if cfg.no_adversarial:
        H_ctx, bc = bilstm_forward(W, gen.fwd, gen.bwd)
        hbar = H_ctx.mean(axis=1)
        s = gen.proj_w.value @ hbar + gen.proj_b.value
        return s, ("pool", W, H_ctx, bc, hbar)
    k, cache = generate_attention(W, gen)
    W, H_ctx, bc, k = cache
    if cfg.concat_fusion:
        v = fuse_concat(W, k, cfg.max_len)
        return v, ("concat", W, H_ctx, bc, k)
    return fuse(W, k), ("fuse", W, H_ctx, bc, k)


def gen_backward(dfeat: np.ndarray, cache, gen, cfg):
    """Push d(loss)/d(feature) back into the generator's grads."""
    kind = cache[0]
    if kind == "pool":
        _, W, H_ctx, bc, hbar = cache
        gen.proj_w.grad += np.outer(dfeat, hbar)
        gen.proj_b.grad += dfeat
        dhbar = gen.proj_w.value.T @ dfeat
        m = W.shape[1]
        dH = np.repeat((dhbar / m)[:, None], m, axis=1)
        bilstm_backward(dH, bc, gen.fwd, gen.bwd)
        return
    _, W, H_ctx, bc, k = cache
    if kind == "concat":
        dk = dfeat[:k.shape[0]]  # padding and mean-embedding parts carry no generator grad
    else:
        dk = W.T @ dfeat
    dz = k * (dk - float(k @ dk))
    gen.attn_w.grad += H_ctx @ dz
    gen.attn_b.grad += dz.sum()
    dH = np.outer(gen.attn_w.value, dz)
    bilstm_backward(dH, bc, gen.fwd, gen.bwd)


def encode(example, gen, table, cfg) -> np.ndarray:
    """Classifier input feature (bias appended) of one sentence."""
    return with_bias(gen_forward(embed_sentence(example, table), gen, cfg)[0])


# ---------------------------------------------------------------------------
# episode sampling


def sample_episode(dataset, allowed_classes, spec, rng, source_excludes="all",
                   with_source=True) -> Episode:
    """``episodes.sample_episode`` drawing from each pool array with
    ``rng.choice(pool, ...)``, the array built afresh on every call; the
    input checks are left to the program's sampler."""
    need = spec.k_shot + spec.l_query
    allowed = sorted(allowed_classes)
    eligible = [c for c in allowed if len(dataset.class_index.get(c, ())) >= need]
    chosen = rng.choice(len(eligible), size=spec.n_way, replace=False)
    classes = sorted(eligible[i] for i in chosen)
    local = {c: i for i, c in enumerate(classes)}
    support, query, sup_idx, qry_idx = [], [], [], []
    for c in classes:
        pool = np.asarray(dataset.class_index[c], dtype=np.intp)
        pick = rng.choice(pool, size=need, replace=False)
        for j in pick[:spec.k_shot]:
            support.append((dataset.examples[j], local[c]))
            sup_idx.append(int(j))
        for j in pick[spec.k_shot:]:
            query.append((dataset.examples[j], local[c]))
            qry_idx.append(int(j))
    src_idx = []
    if with_source:
        if source_excludes == "all":
            pool = np.concatenate([np.asarray(dataset.class_index[c], dtype=np.intp)
                                   for c in allowed if c not in local])
            src_idx = [int(j) for j in rng.choice(pool, size=spec.n_way * spec.l_query,
                                                  replace=False)]
        else:
            for c in classes:
                pool = np.concatenate([np.asarray(dataset.class_index[cc], dtype=np.intp)
                                       for cc in allowed if cc != c])
                src_idx.extend(int(j) for j in rng.choice(pool, size=spec.l_query,
                                                          replace=False))
    return Episode(support=tuple(support), query=tuple(query),
                   source=tuple(dataset.examples[j] for j in src_idx),
                   episode_classes=tuple(classes), support_indices=tuple(sup_idx),
                   query_indices=tuple(qry_idx), source_indices=tuple(src_idx))


# ---------------------------------------------------------------------------
# test-only helpers


def params_digest(params) -> str:
    """Hex digest of parameter values, for phase-isolation checks."""
    h = hashlib.sha256()
    for p in params:
        h.update(np.ascontiguousarray(p.value).tobytes())
    return h.hexdigest()


def assert_views(ps):
    """Each Param of the set ``ps`` is its slice of the set's ``values`` and
    ``grads`` vectors, in ``named_params()`` order, and together they cover
    both: a ramp written into a vector reads back through the Params."""
    for vec, attr in ((ps.values, "value"), (ps.grads, "grad")):
        saved = vec.copy()
        vec[:] = np.arange(vec.size)
        got = [getattr(p, attr).ravel() for p in ps.named_params().values()]
        assert np.array_equal(np.concatenate(got), np.arange(vec.size))
        vec[:] = saved


def adam_step_per_param(state, params):
    """``nn.adam_step`` one Param at a time, with one moment array per Param
    in list order: the update before each parameter set became one vector."""
    params = list(params)
    if state.m is None:
        state.m = [np.zeros_like(p.value) for p in params]
        state.v = [np.zeros_like(p.value) for p in params]
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
        p.grad.fill(0.0)


def checkpoint_json(arrays: dict, config: dict) -> str:
    """The text ``harness.save_checkpoint`` writes: one ``json.dumps`` of the
    whole payload, every array a list of Python floats, as the container was
    written before it was streamed one array at a time."""
    return json.dumps({
        "format_version": harness.CHECKPOINT_FORMAT_VERSION,
        "arrays": {
            name: {"shape": list(np.asarray(a).shape),
                   "data": np.asarray(a, dtype=np.float64).ravel().tolist()}
            for name, a in arrays.items()
        },
        "config": config,
    })


def ffn_forward(x, layers) -> np.ndarray:
    """Output of ``nn.ffn_forward_cached`` without its cache."""
    return nn.ffn_forward_cached(x, layers)[0]


def ridge_fit_primal(X, Y, lam: float) -> RidgeClassifier:
    """``model.ridge_fit`` in the primal form: the p x p SPD system
    (X^T X + m lam I) theta = X^T Y."""
    m, p = X.shape
    theta = scipy.linalg.solve(X.T @ X + (m * lam) * np.eye(p), X.T @ Y, assume_a="pos")
    return RidgeClassifier(theta=theta, lam=float(lam))


def ridge_grad(X, Y, clf) -> np.ndarray:
    """Gradient of the ridge objective at theta (zero at the fit)."""
    m = X.shape[0]
    return X.T @ (X @ clf.theta - Y) / m + clf.lam * clf.theta


# ---------------------------------------------------------------------------
# losses, one sample at a time


def discriminate(s, disc) -> np.ndarray:
    """Probability pair (query, source) for one embedding."""
    return nn.softmax(ffn_forward(s, disc.layers))


def disc_loss(query_embs, source_embs, disc) -> float:
    """Domain cross-entropy averaged over all samples, one sample at a time.

    Source embeddings carry label 1, query embeddings label 0; the two
    batches must be the same size, as in a sampled episode.
    """
    nq, ns = len(query_embs), len(source_embs)
    if nq == 0 or ns == 0:
        raise ValueError("disc_loss needs non-empty query and source batches")
    if nq != ns:
        raise ValueError(f"query/source size mismatch: {nq} vs {ns}")
    total = 0.0
    for e in query_embs:
        total += cross_entropy(ffn_forward(e, disc.layers), 0)
    for e in source_embs:
        total += cross_entropy(ffn_forward(e, disc.layers), 1)
    return total / (nq + ns)


def gen_loss(query_items, source_examples, clf, gen, disc, cfg, table) -> float:
    """Generator objective, one sentence at a time: mean query cross-entropy
    (ridge scores as logits) minus the domain loss over (query, source); the
    plain-encoder ablation has no domain term.

    ``query_items`` is a sequence of (Example, local label); the classifier
    must already be fit on the episode's support set.
    """
    if clf is None:
        raise ValueError("classifier has not been fit for this episode")
    q_feats, ce = [], 0.0
    for ex, y in query_items:
        f, _ = gen_forward(embed_sentence(ex, table), gen, cfg)
        q_feats.append(f)
        ce += cross_entropy(ridge_predict(clf, with_bias(f)), y)
    ce /= len(q_feats)
    if cfg.no_adversarial:
        return ce
    s_feats = [gen_forward(embed_sentence(ex, table), gen, cfg)[0]
               for ex in source_examples]
    return ce - disc_loss(q_feats, s_feats, disc)


def episode_accuracy(episode, gen, cfg, table) -> float:
    """Query accuracy of one evaluation episode with every sentence encoded
    afresh: the ridge head is fit on the support features in the primal
    form, then each query row is scored on its own."""
    X = np.stack([encode(ex, gen, table, cfg) for ex, _ in episode.support])
    Y = nn.one_hot([y for _, y in episode.support], episode.n_way)
    clf = ridge_fit_primal(X, Y, cfg.lam)
    hits = sum(int(np.argmax(ridge_predict(clf, encode(ex, gen, table, cfg)))) == y
               for ex, y in episode.query)
    return hits / len(episode.query)


def gen_loss_and_grads(episode, clf, gen, disc, cfg, table) -> float:
    """``model.generator_loss_and_grads`` one sentence at a time: each query
    and source sentence is encoded and backpropagated on its own, and the
    gradients accumulate into the generator's grads (zeroed first).  The
    support set gets no gradient: theta is held fixed.  Returns the loss."""
    gen.grads.fill(0.0)
    nq = len(episode.query)
    q = [gen_forward(embed_sentence(ex, table), gen, cfg) for ex, _ in episode.query]
    s = [] if cfg.no_adversarial else [gen_forward(embed_sentence(ex, table), gen, cfg)
                                      for ex in episode.source]
    loss, dfeats = 0.0, []
    for (f, _), (_, y) in zip(q, episode.query):
        z = ridge_predict(clf, with_bias(f))
        loss += cross_entropy(z, y) / nq
        dz = softmax(z)
        dz[y] -= 1.0
        dfeats.append(clf.theta[:-1] @ dz / nq)
    n = nq + len(s)
    for j, (f, _) in enumerate([] if cfg.no_adversarial else q + s):
        label = int(j >= nq)
        logits, cache = nn.ffn_forward_cached(f, disc.layers)
        loss -= cross_entropy(logits, label) / n
        dlogits = softmax(logits)
        dlogits[label] -= 1.0
        # minus sign: the generator maximizes the discriminator's loss
        d = nn.ffn_backward(-dlogits / n, cache, disc.layers, update_grads=False)
        if j < nq:
            dfeats[j] = dfeats[j] + d
        else:
            dfeats.append(d)
    for d, (_, c) in zip(dfeats, q + s):
        gen_backward(d, c, gen, cfg)
    return loss
