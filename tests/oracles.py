"""Per-sample reference implementations the tests check the batched code against.

None of these run in training; each spells out one sentence or one sample
at a time what the batched functions in ``metadapt`` compute in one pass.
"""

import numpy as np
from scipy.special import expit, logsumexp

from metadapt import nn
from metadapt.corpus import embed_sentence
from metadapt.model import encode, gen_forward, ridge_fit, ridge_predict, with_bias


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


def discriminate(s, disc) -> np.ndarray:
    """Probability pair (query, source) for one embedding."""
    return nn.softmax(nn.ffn_forward(s, disc.layers))


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
        total += cross_entropy(nn.ffn_forward(e, disc.layers), 0)
    for e in source_embs:
        total += cross_entropy(nn.ffn_forward(e, disc.layers), 1)
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
    afresh: the ridge head is fit on the support features, then each query
    row is scored on its own."""
    X = np.stack([encode(ex, gen, table, cfg) for ex, _ in episode.support])
    Y = nn.one_hot([y for _, y in episode.support], episode.n_way)
    clf = ridge_fit(X, Y, cfg.lam)
    hits = sum(int(np.argmax(ridge_predict(clf, encode(ex, gen, table, cfg)))) == y
               for ex, y in episode.query)
    return hits / len(episode.query)
