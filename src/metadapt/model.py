"""Attention generator, domain discriminator, ridge head, and episode updates.

The generator runs a BiLSTM over a sentence's word vectors and softmaxes a
learned projection of the contextual states into per-word attention weights;
fusing those weights back into the word matrix gives a fixed-width sentence
embedding.  Sentences are encoded in batches, one padded BiLSTM pass per
batch: an episode update encodes its support, query and source sets in one.
A per-episode ridge regressor is fit on support embeddings in closed form,
in its dual (m x m) form, and a small feed-forward discriminator plays the
adversarial domain game against the generator on query vs. source
embeddings.

One episode update runs three phases, each touching exactly one parameter
set: fit the ridge head (theta), one Adam step on the discriminator (mu),
one Adam step on the generator (beta).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields

import numpy as np

from . import nn
from .corpus import EmbeddingTable, check_token_ids, embed_sentence
from .episodes import Episode
from .nn import AdamState, LstmParams, Param


@dataclass
class ModelConfig:
    """Model hyperparameters and ablation switches."""

    dim: int                      # word-vector dimension d
    hidden: int = 128             # BiLSTM hidden units per direction
    lam: float = 1.0              # ridge regularization strength
    no_adversarial: bool = False  # plain BiLSTM encoder, classification loss only
    concat_fusion: bool = False   # concat attention weights with mean embedding
    max_len: int = 500
    disc_hidden: tuple[int, int] = (256, 128)

    def __post_init__(self):
        if self.dim < 1 or self.hidden < 1 or self.max_len < 1:
            raise ValueError("dim, hidden, and max_len must be >= 1")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be finite and > 0, got {self.lam!r}")
        if len(self.disc_hidden) != 2 or min(self.disc_hidden) < 1:
            raise ValueError(f"disc_hidden must be two widths >= 1, got {self.disc_hidden!r}")
        if self.no_adversarial and self.concat_fusion:
            raise ValueError("conflicting ablation flags: no_adversarial and concat_fusion")

    @property
    def encoder_dim(self) -> int:
        """Width of the classifier/discriminator input, before the bias feature."""
        return self.max_len + self.dim if self.concat_fusion else self.dim


class _ParamSet:
    """A parameter set whose ``named_params()`` lists every Param under its
    checkpoint name.  In that order its Params are views into the set's
    ``values`` and ``grads`` vectors, and the checkpoint stores its arrays."""

    def __post_init__(self):
        self.values, self.grads = nn.flatten(self.params())

    def __deepcopy__(self, memo):
        """A copy flattened again: numpy copies each Param's view on its own."""
        clone = type(self)(*copy.deepcopy([getattr(self, f.name) for f in fields(self)], memo))
        clone.grads[...] = self.grads
        return clone

    def params(self) -> list[Param]:
        return list(self.named_params().values())

    def named_arrays(self) -> dict:
        return {name: p.value for name, p in self.named_params().items()}


@dataclass
class GeneratorParams(_ParamSet):
    """BiLSTM plus attention projection (and, for the plain-encoder ablation,
    a mean-pool projection back to word-vector width)."""

    fwd: LstmParams
    bwd: LstmParams
    attn_w: Param             # (2H,)
    attn_b: Param             # (1,)
    proj_w: Param = None      # (d, 2H), only for no_adversarial
    proj_b: Param = None      # (d,)

    @classmethod
    def init(cls, cfg: ModelConfig, rng: np.random.Generator) -> "GeneratorParams":
        H = cfg.hidden
        fwd = LstmParams.init(cfg.dim, H, rng)
        bwd = LstmParams.init(cfg.dim, H, rng)
        attn_w = Param(nn.uniform_init((2 * H,), 2 * H, rng))
        attn_b = Param(np.zeros(1))
        proj_w = proj_b = None
        if cfg.no_adversarial:
            proj_w = Param(nn.uniform_init((cfg.dim, 2 * H), 2 * H, rng))
            proj_b = Param(np.zeros(cfg.dim))
        return cls(fwd=fwd, bwd=bwd, attn_w=attn_w, attn_b=attn_b,
                   proj_w=proj_w, proj_b=proj_b)

    def named_params(self) -> dict[str, Param]:
        out = {f"gen.{side}.{name}": p
               for side, lstm in (("fwd", self.fwd), ("bwd", self.bwd))
               for name, p in (("w_x", lstm.w_x), ("w_h", lstm.w_h), ("b", lstm.b))}
        out["gen.attn_w"], out["gen.attn_b"] = self.attn_w, self.attn_b
        if self.proj_w is not None:
            out["gen.proj_w"], out["gen.proj_b"] = self.proj_w, self.proj_b
        return out


@dataclass
class DiscriminatorParams(_ParamSet):
    """Three affine layers (input -> h1 -> h2 -> 2) with a ReLU after each
    hidden layer (``nn.ffn_forward_cached``)."""

    layers: list  # [(w: Param, b: Param), ...]

    @classmethod
    def init(cls, input_dim: int, hidden: tuple[int, int],
             rng: np.random.Generator) -> "DiscriminatorParams":
        sizes = (input_dim, *hidden, 2)
        return cls(layers=[(Param(nn.uniform_init((out_d, in_d), in_d, rng)),
                            Param(np.zeros(out_d))) for in_d, out_d in zip(sizes, sizes[1:])])

    def named_params(self) -> dict[str, Param]:
        return {f"disc.layer{i}.{name}": p for i, (w, b) in enumerate(self.layers, start=1)
                for name, p in (("w", w), ("b", b))}


# ---------------------------------------------------------------------------
# generator forward / backward


def with_bias(feat) -> np.ndarray:
    """Features with a constant 1 appended along the last axis (the ridge
    head's bias feature); takes one vector or a (rows, width) matrix."""
    feat = np.asarray(feat, dtype=np.float64)
    return np.concatenate([feat, np.ones(feat.shape[:-1] + (1,))], axis=-1)


def _valid(lengths, T: int) -> np.ndarray:
    """(B, T) mask of the positions that hold a token."""
    return np.arange(T)[None, :] < lengths[:, None]


def _encoder_inputs(examples, table: EmbeddingTable):
    """The vectors E (U, d) of a batch's distinct tokens, each position's
    row (T, B) in E, each sentence from t = 0, and the lengths (B,);
    padded positions get row U, the padding row of the projection tables.
    An empty sentence or a token id outside the table raises ValueError."""
    lengths = np.array([len(ex.token_ids) for ex in examples], dtype=np.intp)
    if lengths.size == 0 or lengths.min() < 1:
        raise ValueError("no sentences to encode, or an empty one")
    vocab, inverse = np.unique(np.concatenate([ex.token_ids for ex in examples]),
                               return_inverse=True)
    check_token_ids(vocab, table)
    rows = np.full((lengths.max(), lengths.size), vocab.size, dtype=np.intp)
    rows.T[_valid(lengths, rows.shape[0])] = inverse
    return table.matrix[vocab], rows, lengths


def _padded(E, rows) -> np.ndarray:
    """The batch's word vectors as a time-major X (T, B, d), zero at padded
    positions: the input BPTT and the fusion's backward pass read."""
    return np.concatenate([E, np.zeros((1, E.shape[1]))])[rows]


def _attention(E, rows, lengths, gen: GeneratorParams, cache: bool = True):
    """Attention weights k (B, T), zero at padded positions: each position's
    BiLSTM states are scored with the learned projection and softmaxed
    across its sentence.  The score of the two directions' states is
    w_f.h_f + w_b.h_b, attn_w's halves in turn; each direction is scored in
    its own time order and the backward scores (T, B) realigned.  Returns
    (k, (Hf, Hb, rev) as nn.bilstm_forward gives them, BiLSTM cache or
    None)."""
    Hf, Hb, rev, bc = nn.bilstm_forward(E, rows, lengths, gen.fwd, gen.bwd, cache)
    H = gen.fwd.hidden_size
    w = gen.attn_w.value
    z = Hf @ w[:H] + (Hb @ w[H:])[rev, np.arange(lengths.size)] + gen.attn_b.value[0]
    return nn.softmax(z.T, _valid(lengths, rows.shape[0])), (Hf, Hb, rev), bc


def gen_forward(examples, gen: GeneratorParams, table: EmbeddingTable, cfg: ModelConfig,
                cache: bool = True):
    """Encoder features (B, encoder_dim), before the bias, of a batch of
    sentences in one padded BiLSTM pass, plus the cache gen_backward needs.

    The BiLSTM projects each of the batch's distinct tokens once per
    direction and gathers its inputs by token; its two directions' states
    stay apart, each in its own time order (``_attention``).  The default
    fuses each sentence's word matrix (``embed_sentence``) with its
    attention weights, s = W k, one sentence at a time.  ``concat_fusion``
    puts the weights, zero-padded to ``max_len``, before the mean word
    vector.  ``no_adversarial`` projects the mean of each direction's
    states, forward on top of backward, back to word-vector width.  The
    padded word vectors X (T, B, d) are built for the cache alone: with
    ``cache=False`` the BiLSTM runs forward only, no X is made, the
    features are bitwise the same, and the cache returned is None.
    """
    E, rows, lengths = _encoder_inputs(examples, table)
    T = rows.shape[0]
    if cfg.no_adversarial:
        Hf, Hb, _, bc = nn.bilstm_forward(E, rows, lengths, gen.fwd, gen.bwd, cache)
        # padding trails in both directions' orders and a sum reads no
        # order, so one mask sums either direction over its valid steps
        valid = _valid(lengths, T)
        hbar = np.concatenate([np.einsum("bt,tbh->bh", valid, Hs) for Hs in (Hf, Hb)],
                              axis=1) / lengths[:, None]
        feats = hbar @ gen.proj_w.value.T + gen.proj_b.value
        return feats, ((_padded(E, rows), lengths, None, bc, hbar) if cache else None)
    k, states, bc = _attention(E, rows, lengths, gen, cache)
    if cfg.concat_fusion:
        if T > cfg.max_len:
            raise ValueError(f"sentence length {T} exceeds max_len {cfg.max_len}")
        feats = np.zeros((lengths.size, cfg.encoder_dim))
        feats[:, :T] = k
        # summing a sentence's C-ordered (m, d) rows adds them in order and
        # so rounds as a padded sum over time; a sum along the rows of a
        # (d, m) matrix adds pairwise and rounds otherwise
        feats[:, cfg.max_len:] = [E[rows[:m, b]].sum(axis=0) / m
                                  for b, m in enumerate(lengths)]
    else:
        feats = np.stack([embed_sentence(ex, table) @ kb[:len(ex.token_ids)]
                          for ex, kb in zip(examples, k)])
    return feats, ((_padded(E, rows), lengths, states, bc, k) if cache else None)


def gen_backward(dfeats: np.ndarray, cache, gen: GeneratorParams, cfg: ModelConfig):
    """Push d(loss)/d(features) (B, encoder_dim) back into the generator's
    grads; consumes the cache.  Each direction's state gradient is formed
    in that direction's own time order, and attn_w's gradient one half at
    a time."""
    X, lengths, states, bc, aux = cache
    H = gen.fwd.hidden_size
    if cfg.no_adversarial:
        gen.proj_w.grad += dfeats.T @ aux
        gen.proj_b.grad += dfeats.sum(axis=0)
        dhbar = dfeats @ gen.proj_w.value / lengths[:, None]
        valid = _valid(lengths, X.shape[0]).T[:, :, None]
        dHf, dHb = np.where(valid, dhbar[:, :H], 0.0), np.where(valid, dhbar[:, H:], 0.0)
    else:
        k = aux
        if cfg.concat_fusion:
            # padding and mean-embedding parts carry no generator grad
            dk = dfeats[:, :k.shape[1]]
        else:
            dk = np.einsum("tbd,bd->bt", X, dfeats)
        dz = k * (dk - (k * dk).sum(axis=1, keepdims=True))   # zero at padding
        Hf, Hb, rev = states
        dzf, dzb = dz.T, dz.T[rev, np.arange(lengths.size)]   # each direction's order
        w = gen.attn_w.value
        gen.attn_w.grad[:H] += np.tensordot(dzf, Hf, axes=2)
        gen.attn_w.grad[H:] += np.tensordot(dzb, Hb, axes=2)
        gen.attn_b.grad += dz.sum()
        dHf, dHb = dzf[:, :, None] * w[:H], dzb[:, :, None] * w[H:]
    nn.bilstm_backward(dHf, dHb, X, bc, gen.fwd, gen.bwd)


def encode(example, gen: GeneratorParams, table: EmbeddingTable,
           cfg: ModelConfig) -> np.ndarray:
    """Classifier input feature (bias appended) under the configured variant."""
    return with_bias(gen_forward([example], gen, table, cfg, cache=False)[0][0])


def attention_weights(example, gen: GeneratorParams, table: EmbeddingTable,
                      cfg: ModelConfig) -> np.ndarray:
    """Attention vector for one sentence (not available under no_adversarial)."""
    if cfg.no_adversarial:
        raise ValueError("the plain-encoder ablation produces no attention weights")
    return _attention(*_encoder_inputs([example], table), gen, cache=False)[0][0]


# ---------------------------------------------------------------------------
# ridge head


@dataclass(frozen=True)
class RidgeClassifier:
    """Per-episode linear classifier; last feature row is the bias."""

    theta: np.ndarray  # (p, n_classes)
    lam: float


def ridge_fit(X: np.ndarray, Y: np.ndarray, lam: float) -> RidgeClassifier:
    """Exact minimizer of (1/2m)||X theta - Y||_F^2 + (lam/2)||theta||_F^2.

    Solved in the dual form theta = X^T alpha, (X X^T + m lam I) alpha = Y:
    an m x m system for the m support rows, whatever the feature width.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be finite and > 0, got {lam!r}")
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError(f"ridge_fit shape mismatch: {X.shape} vs {Y.shape}")
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise nn.NumericalError("non-finite inputs to ridge_fit")
    return RidgeClassifier(theta=X.T @ ridge_dual(X @ X.T, Y, lam), lam=float(lam))


def ridge_dual(gram: np.ndarray, Y: np.ndarray, lam: float) -> np.ndarray:
    """Dual coefficients alpha solving (K + m lam I) alpha = Y, for one Gram
    matrix K = X X^T (m, m) with targets Y (m, c), or for a stack of them,
    (E, m, m) with (E, m, c), in one batched solve.  The matrix is SPD and
    never inverted explicitly."""
    m = gram.shape[-1]
    return np.linalg.solve(gram + (m * lam) * np.eye(m), Y)


def ridge_loss(X: np.ndarray, Y: np.ndarray, clf: RidgeClassifier) -> float:
    """Value of the regularized squared loss at the classifier's weights."""
    m = X.shape[0]
    R = X @ clf.theta - Y
    return float((R * R).sum() / (2.0 * m) + 0.5 * clf.lam * (clf.theta ** 2).sum())


def ridge_predict(clf: RidgeClassifier, s: np.ndarray) -> np.ndarray:
    """Class scores theta^T s; the argmax (lowest index on ties) is the
    prediction, and the scores serve as logits for the query loss."""
    s = np.asarray(s, dtype=np.float64)
    if s.shape[-1] != clf.theta.shape[0]:
        raise ValueError(f"feature width {s.shape[-1]} does not match theta {clf.theta.shape}")
    return s @ clf.theta


# ---------------------------------------------------------------------------
# domain loss


def domain_loss(x: np.ndarray, labels, disc: DiscriminatorParams):
    """Cross-entropy of the discriminator's domain predictions on embeddings
    ``x`` (n, d), query rows labelled 0 and source rows 1, averaged over rows.

    Returns (loss, d loss / d logits, the acts ``nn.ffn_backward`` takes).
    """
    logits, acts = nn.ffn_forward_cached(x, disc.layers)
    loss, dlogits = nn.softmax_cross_entropy(logits, labels)
    return loss, dlogits, acts


# ---------------------------------------------------------------------------
# episode phases


@dataclass
class EpisodeForward:
    """Encoder features of one episode from one batched pass: support rows,
    then query rows, then source rows.  Computed once per update (the
    generator stays fixed until phase 3's step); phase 3's backward pass
    consumes the cache."""

    feats: np.ndarray        # (n_support + n_query + n_source, encoder_dim)
    cache: object            # gen_forward's cache for all rows
    support_labels: np.ndarray
    query_labels: np.ndarray
    n_way: int


@dataclass
class EpisodeMetrics:
    ridge_loss: float
    disc_loss: float
    gen_loss: float
    query_accuracy: float


def _labels(items) -> np.ndarray:
    return np.asarray([y for _, y in items], dtype=np.intp)


def episode_forward(episode: Episode, gen: GeneratorParams, cfg: ModelConfig,
                    table: EmbeddingTable) -> EpisodeForward:
    """Support, query and source sentences encoded in one batch; the
    plain-encoder ablation never reads the source set and skips it."""
    examples = [ex for ex, _ in episode.support] + [ex for ex, _ in episode.query]
    if not cfg.no_adversarial:
        examples += list(episode.source)
    feats, cache = gen_forward(examples, gen, table, cfg)
    return EpisodeForward(feats=feats, cache=cache, support_labels=_labels(episode.support),
                          query_labels=_labels(episode.query), n_way=episode.n_way)


def fit_episode_classifier(fwd: EpisodeForward, lam: float):
    """Phase 1: closed-form ridge fit on the support set; returns (clf, loss)."""
    X = with_bias(fwd.feats[:len(fwd.support_labels)])
    Y = nn.one_hot(fwd.support_labels, fwd.n_way)
    clf = ridge_fit(X, Y, lam)
    return clf, ridge_loss(X, Y, clf)


def _domain_batch(fwd: EpisodeForward):
    """Query rows followed by source rows, with their domain labels."""
    x = fwd.feats[len(fwd.support_labels):]
    nq = len(fwd.query_labels)
    if len(x) == nq:
        raise ValueError("episode has no source set")
    return x, np.repeat(np.arange(2), [nq, len(x) - nq])


def discriminator_loss_and_grads(fwd: EpisodeForward, disc: DiscriminatorParams) -> float:
    """Phase 2 objective: the domain loss over the episode's query+source
    embeddings, with analytic gradients accumulated into the discriminator
    (generator held fixed)."""
    disc.grads.fill(0.0)
    loss, dlogits, acts = domain_loss(*_domain_batch(fwd), disc)
    nn.ffn_backward(dlogits, acts, disc.layers)
    return loss


def generator_loss_and_grads(fwd: EpisodeForward, clf: RidgeClassifier,
                             gen: GeneratorParams, disc: DiscriminatorParams,
                             cfg: ModelConfig):
    """Phase 3 objective and gradients into the generator (theta and the
    discriminator held fixed).  Returns (loss, query accuracy)."""
    gen.grads.fill(0.0)
    ns, nq = len(fwd.support_labels), len(fwd.query_labels)
    scores = ridge_predict(clf, with_bias(fwd.feats[ns:ns + nq]))
    acc = int((np.argmax(scores, axis=1) == fwd.query_labels).sum()) / nq
    loss, dscores = nn.softmax_cross_entropy(scores, fwd.query_labels)
    # support rows get no gradient: theta is held fixed
    dfeats = np.zeros_like(fwd.feats)
    dfeats[ns:ns + nq] = dscores @ clf.theta[:-1].T
    if not cfg.no_adversarial:
        l_d, dlogits, acts = domain_loss(*_domain_batch(fwd), disc)
        loss -= l_d
        # minus sign: the generator maximizes the discriminator's loss
        dfeats[ns:] += nn.ffn_backward(-dlogits, acts, disc.layers, update_grads=False)
    gen_backward(dfeats, fwd.cache, gen, cfg)
    return loss, acc


def episode_update(episode: Episode, gen: GeneratorParams, disc: DiscriminatorParams,
                   cfg: ModelConfig, table: EmbeddingTable,
                   opt_gen: AdamState, opt_disc: AdamState) -> EpisodeMetrics:
    """Run the three per-episode phases and return their losses.

    Phase 1 fits the ridge head on the support set with the current
    generator.  Phase 2 steps the discriminator on query-vs-source with the
    generator fixed.  Phase 3 steps the generator against the updated
    discriminator with the ridge head treated as a constant.  Under the
    no_adversarial ablation, phase 2 is skipped and phase 3 reduces to the
    classification loss.
    """
    fwd = episode_forward(episode, gen, cfg, table)
    clf, l_rr = fit_episode_classifier(fwd, cfg.lam)
    l_d = 0.0
    if not cfg.no_adversarial:
        l_d = discriminator_loss_and_grads(fwd, disc)
        nn.adam_step(opt_disc, disc.values, disc.grads)
    l_g, acc = generator_loss_and_grads(fwd, clf, gen, disc, cfg)
    nn.adam_step(opt_gen, gen.values, gen.grads)
    return EpisodeMetrics(ridge_loss=l_rr, disc_loss=l_d, gen_loss=l_g, query_accuracy=acc)


def episode_scores(episodes, features: dict, lam: float) -> np.ndarray:
    """Evaluation path: query scores (E, n_query, n_way) of every episode's
    ridge head, fit on its support set, for episodes of one shape.

    Touches no persistent parameters; the ridge head is the only
    per-episode adaptation at test time.  ``features`` maps each dataset
    index the episodes sample to its classifier input, bias appended.  Per
    episode only its Gram matrix K = S S^T (m, m) and the cross products
    Q S^T (n_query, m) are formed, as one product [S; Q] S^T, and stacked;
    one batched dual solve then gives every alpha, and the scores are
    (Q S^T) alpha = Q theta.
    """
    first = episodes[0]
    m = len(first.support)
    # rows: support then query; columns: support.  Row block [:m] is K.
    products = np.empty((len(episodes), m + len(first.query), m))
    for e, ep in enumerate(episodes):
        X = np.array([features[i] for i in ep.support_indices + ep.query_indices])
        products[e] = X @ X[:m].T
    if not np.isfinite(products).all():
        raise nn.NumericalError("non-finite features in evaluation")
    labels = np.concatenate([_labels(ep.support) for ep in episodes])
    Y = nn.one_hot(labels, first.n_way).reshape(len(episodes), m, first.n_way)
    return products[:, m:] @ ridge_dual(products[:, :m], Y, lam)


def episode_accuracy(scores: np.ndarray, query_labels) -> float:
    """Evaluation's scoring step for one episode: the fraction of query rows
    (n_query, n_way) whose highest score, lowest index on ties, is their
    label."""
    return int((np.argmax(scores, axis=1) == query_labels).sum()) / len(query_labels)
