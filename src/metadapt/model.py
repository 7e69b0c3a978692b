"""Attention generator, domain discriminator, ridge head, and episode updates.

The generator runs a BiLSTM over a sentence's word vectors and softmaxes a
learned projection of the contextual states into per-word attention weights;
fusing those weights back into the word matrix gives a fixed-width sentence
embedding.  A per-episode ridge regressor is fit on support embeddings in
closed form, and a small feed-forward discriminator plays the adversarial
domain game against the generator on query vs. source embeddings.

One episode update runs three phases, each touching exactly one parameter
set: fit the ridge head (theta), one Adam step on the discriminator (mu),
one Adam step on the generator (beta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import nn
from .corpus import EmbeddingTable, embed_sentence
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
        if self.lam <= 0:
            raise ValueError("lam must be > 0")
        if self.no_adversarial and self.concat_fusion:
            raise ValueError("conflicting ablation flags: no_adversarial and concat_fusion")

    @property
    def encoder_dim(self) -> int:
        """Width of the classifier/discriminator input, before the bias feature."""
        return self.max_len + self.dim if self.concat_fusion else self.dim

    @property
    def feature_dim(self) -> int:
        """Classifier input width including the appended bias feature."""
        return self.encoder_dim + 1

    def to_dict(self) -> dict:
        return {
            "dim": self.dim, "hidden": self.hidden, "lam": self.lam,
            "no_adversarial": self.no_adversarial, "concat_fusion": self.concat_fusion,
            "max_len": self.max_len, "disc_hidden": list(self.disc_hidden),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(dim=int(d["dim"]), hidden=int(d["hidden"]), lam=float(d["lam"]),
                   no_adversarial=bool(d["no_adversarial"]),
                   concat_fusion=bool(d["concat_fusion"]), max_len=int(d["max_len"]),
                   disc_hidden=tuple(int(h) for h in d["disc_hidden"]))


@dataclass
class GeneratorParams:
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

    def params(self) -> list[Param]:
        out = self.fwd.params() + self.bwd.params() + [self.attn_w, self.attn_b]
        if self.proj_w is not None:
            out += [self.proj_w, self.proj_b]
        return out

    def clone(self) -> "GeneratorParams":
        return GeneratorParams(
            fwd=self.fwd.clone(), bwd=self.bwd.clone(),
            attn_w=Param(self.attn_w.value.copy()), attn_b=Param(self.attn_b.value.copy()),
            proj_w=None if self.proj_w is None else Param(self.proj_w.value.copy()),
            proj_b=None if self.proj_b is None else Param(self.proj_b.value.copy()),
        )

    def named_arrays(self) -> dict:
        out = {
            "gen.fwd.w_x": self.fwd.w_x.value, "gen.fwd.w_h": self.fwd.w_h.value,
            "gen.fwd.b": self.fwd.b.value,
            "gen.bwd.w_x": self.bwd.w_x.value, "gen.bwd.w_h": self.bwd.w_h.value,
            "gen.bwd.b": self.bwd.b.value,
            "gen.attn_w": self.attn_w.value, "gen.attn_b": self.attn_b.value,
        }
        if self.proj_w is not None:
            out["gen.proj_w"] = self.proj_w.value
            out["gen.proj_b"] = self.proj_b.value
        return out

    @classmethod
    def from_named_arrays(cls, arrays: dict) -> "GeneratorParams":
        def lstm(prefix):
            return LstmParams(Param(arrays[prefix + ".w_x"]), Param(arrays[prefix + ".w_h"]),
                              Param(arrays[prefix + ".b"]))
        proj_w = Param(arrays["gen.proj_w"]) if "gen.proj_w" in arrays else None
        proj_b = Param(arrays["gen.proj_b"]) if "gen.proj_b" in arrays else None
        return cls(fwd=lstm("gen.fwd"), bwd=lstm("gen.bwd"),
                   attn_w=Param(arrays["gen.attn_w"]), attn_b=Param(arrays["gen.attn_b"]),
                   proj_w=proj_w, proj_b=proj_b)


@dataclass
class DiscriminatorParams:
    """Three affine layers (input -> h1 -> h2 -> 2) with ReLU hidden activations."""

    layers: list  # [(w: Param, b: Param, activation), ...]

    @classmethod
    def init(cls, input_dim: int, hidden: tuple[int, int],
             rng: np.random.Generator) -> "DiscriminatorParams":
        h1, h2 = hidden
        sizes = [(h1, input_dim, "relu"), (h2, h1, "relu"), (2, h2, "linear")]
        layers = []
        for out_d, in_d, act in sizes:
            layers.append((Param(nn.uniform_init((out_d, in_d), in_d, rng)),
                           Param(np.zeros(out_d)), act))
        return cls(layers=layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].value.shape[1]

    def params(self) -> list[Param]:
        return [p for w, b, _ in self.layers for p in (w, b)]

    def clone(self) -> "DiscriminatorParams":
        return DiscriminatorParams(layers=[
            (Param(w.value.copy()), Param(b.value.copy()), act) for w, b, act in self.layers])

    def named_arrays(self) -> dict:
        out = {}
        for i, (w, b, _) in enumerate(self.layers, start=1):
            out[f"disc.layer{i}.w"] = w.value
            out[f"disc.layer{i}.b"] = b.value
        return out

    @classmethod
    def from_named_arrays(cls, arrays: dict) -> "DiscriminatorParams":
        layers = []
        i = 1
        while f"disc.layer{i}.w" in arrays:
            act = "linear" if f"disc.layer{i + 1}.w" not in arrays else "relu"
            layers.append((Param(arrays[f"disc.layer{i}.w"]),
                           Param(arrays[f"disc.layer{i}.b"]), act))
            i += 1
        if not layers:
            raise ValueError("no discriminator layers in checkpoint")
        return cls(layers=layers)


# ---------------------------------------------------------------------------
# generator forward / backward


def generate_attention(W: np.ndarray, gen: GeneratorParams, mask=None):
    """Per-word attention weights for one sentence.

    Scores each BiLSTM contextual state with the learned projection and
    softmaxes across positions.  Returns (k (m,), cache for the backward
    pass through the generator).
    """
    H_ctx, bc = nn.bilstm_forward(W, gen.fwd, gen.bwd)
    z = gen.attn_w.value @ H_ctx + gen.attn_b.value[0]
    k = nn.softmax(z, mask)
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


def with_bias(feat: np.ndarray) -> np.ndarray:
    return np.concatenate([feat, [1.0]])


def gen_forward(W: np.ndarray, gen: GeneratorParams, cfg: ModelConfig):
    """Encoder feature for one sentence (pre-bias) plus backward cache."""
    if cfg.no_adversarial:
        H_ctx, bc = nn.bilstm_forward(W, gen.fwd, gen.bwd)
        hbar = H_ctx.mean(axis=1)
        s = gen.proj_w.value @ hbar + gen.proj_b.value
        return s, ("pool", W, H_ctx, bc, hbar)
    k, cache = generate_attention(W, gen)
    W, H_ctx, bc, k = cache
    if cfg.concat_fusion:
        v = fuse_concat(W, k, cfg.max_len)
        return v, ("concat", W, H_ctx, bc, k)
    return fuse(W, k), ("fuse", W, H_ctx, bc, k)


def gen_backward(dfeat: np.ndarray, cache, gen: GeneratorParams, cfg: ModelConfig):
    """Push d(loss)/d(feature) back into the generator's grads."""
    kind = cache[0]
    if kind == "pool":
        _, W, H_ctx, bc, hbar = cache
        gen.proj_w.grad += np.outer(dfeat, hbar)
        gen.proj_b.grad += dfeat
        dhbar = gen.proj_w.value.T @ dfeat
        m = W.shape[1]
        dH = np.repeat((dhbar / m)[:, None], m, axis=1)
        nn.bilstm_backward(dH, bc, gen.fwd, gen.bwd)
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
    nn.bilstm_backward(dH, bc, gen.fwd, gen.bwd)


def encode(example, gen: GeneratorParams, table: EmbeddingTable,
           cfg: ModelConfig) -> np.ndarray:
    """Classifier input feature (bias appended) under the configured variant."""
    W = embed_sentence(example, table)
    feat, _ = gen_forward(W, gen, cfg)
    return with_bias(feat)


def attention_weights(example, gen: GeneratorParams, table: EmbeddingTable,
                      cfg: ModelConfig) -> np.ndarray:
    """Attention vector for one sentence (not available under no_adversarial)."""
    if cfg.no_adversarial:
        raise ValueError("the plain-encoder ablation produces no attention weights")
    W = embed_sentence(example, table)
    k, _ = generate_attention(W, gen)
    return k


# ---------------------------------------------------------------------------
# ridge head


@dataclass(frozen=True)
class RidgeClassifier:
    """Per-episode linear classifier; last feature row is the bias."""

    theta: np.ndarray  # (p, n_classes)
    lam: float


def ridge_fit(X: np.ndarray, Y: np.ndarray, lam: float) -> RidgeClassifier:
    """Exact minimizer of (1/2m)||X theta - Y||_F^2 + (lam/2)||theta||_F^2.

    Solved as the SPD system (X^T X + m lam I) theta = X^T Y; the matrix is
    never inverted explicitly.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if lam <= 0:
        raise ValueError("lam must be > 0")
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError(f"ridge_fit shape mismatch: {X.shape} vs {Y.shape}")
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise nn.NumericalError("non-finite inputs to ridge_fit")
    m, p = X.shape
    A = X.T @ X + (m * lam) * np.eye(p)
    theta = scipy.linalg.solve(A, X.T @ Y, assume_a="pos")
    return RidgeClassifier(theta=theta, lam=float(lam))


def ridge_loss(X: np.ndarray, Y: np.ndarray, clf: RidgeClassifier) -> float:
    """Value of the regularized squared loss at the classifier's weights."""
    m = X.shape[0]
    R = X @ clf.theta - Y
    return float((R * R).sum() / (2.0 * m) + 0.5 * clf.lam * (clf.theta ** 2).sum())


def ridge_grad(X: np.ndarray, Y: np.ndarray, clf: RidgeClassifier) -> np.ndarray:
    """Gradient of the ridge objective at theta (zero at the fit)."""
    m = X.shape[0]
    return X.T @ (X @ clf.theta - Y) / m + clf.lam * clf.theta


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

    Returns (loss, d loss / d logits, ffn cache for ``nn.ffn_backward``).
    """
    logits, cache = nn.ffn_forward_cached(x, disc.layers)
    loss, dlogits = nn.softmax_cross_entropy(logits, labels)
    return loss, dlogits, cache


# ---------------------------------------------------------------------------
# episode phases


@dataclass
class EpisodeForward:
    """Per-sentence encoder features and caches for one episode, computed
    once per update (the generator stays fixed until phase 3's step)."""

    support_feats: list
    support_labels: np.ndarray
    query: list          # [(feat, cache), ...]
    query_labels: np.ndarray
    source: list         # [(feat, cache), ...]
    n_way: int


@dataclass
class EpisodeMetrics:
    ridge_loss: float
    disc_loss: float
    gen_loss: float
    query_accuracy: float


def episode_forward(episode: Episode, gen: GeneratorParams, cfg: ModelConfig,
                    table: EmbeddingTable) -> EpisodeForward:
    sup_feats, sup_y = [], []
    for ex, y in episode.support:
        f, _ = gen_forward(embed_sentence(ex, table), gen, cfg)
        sup_feats.append(f)
        sup_y.append(y)
    query, qry_y = [], []
    for ex, y in episode.query:
        query.append(gen_forward(embed_sentence(ex, table), gen, cfg))
        qry_y.append(y)
    # the plain-encoder ablation never reads the source set
    source = [] if cfg.no_adversarial else [
        gen_forward(embed_sentence(ex, table), gen, cfg) for ex in episode.source]
    return EpisodeForward(
        support_feats=sup_feats, support_labels=np.asarray(sup_y, dtype=np.intp),
        query=query, query_labels=np.asarray(qry_y, dtype=np.intp),
        source=source, n_way=episode.n_way,
    )


def fit_episode_classifier(fwd: EpisodeForward, lam: float):
    """Phase 1: closed-form ridge fit on the support set; returns (clf, loss)."""
    X = np.stack([with_bias(f) for f in fwd.support_feats])
    Y = nn.one_hot(fwd.support_labels, fwd.n_way)
    clf = ridge_fit(X, Y, lam)
    return clf, ridge_loss(X, Y, clf)


def _domain_batch(fwd: EpisodeForward):
    """Query features stacked on source features, with their domain labels."""
    if not fwd.source:
        raise ValueError("episode has no source set")
    x = np.vstack([f for f, _ in fwd.query] + [f for f, _ in fwd.source])
    labels = np.repeat(np.arange(2), [len(fwd.query), len(fwd.source)])
    return x, labels


def _score_query(fwd: EpisodeForward, clf: RidgeClassifier):
    """Ridge scores of the query set (one row per query) and its accuracy.

    Each row is its own vector-matrix product: a single matrix product
    rounds differently and would change training in the last bits.
    """
    scores = np.stack([ridge_predict(clf, with_bias(f)) for f, _ in fwd.query])
    correct = int((np.argmax(scores, axis=1) == fwd.query_labels).sum())
    return scores, correct / len(fwd.query)


def discriminator_loss_and_grads(fwd: EpisodeForward, disc: DiscriminatorParams) -> float:
    """Domain loss over the episode's query+source embeddings, with analytic
    gradients accumulated into the discriminator (generator held fixed)."""
    for p in disc.params():
        p.zero_grad()
    loss, dlogits, cache = domain_loss(*_domain_batch(fwd), disc)
    nn.ffn_backward(dlogits, cache, disc.layers)
    return loss


def update_discriminator(fwd: EpisodeForward, disc: DiscriminatorParams,
                         opt: AdamState) -> float:
    """Phase 2: one Adam step on the discriminator's domain loss."""
    loss = discriminator_loss_and_grads(fwd, disc)
    nn.adam_step(opt, disc.params())
    return loss


def generator_loss_and_grads(fwd: EpisodeForward, clf: RidgeClassifier,
                             gen: GeneratorParams, disc: DiscriminatorParams,
                             cfg: ModelConfig):
    """Phase 3 objective and gradients into the generator (theta and the
    discriminator held fixed).  Returns (loss, query accuracy)."""
    for p in gen.params():
        p.zero_grad()
    scores, acc = _score_query(fwd, clf)
    loss, dscores = nn.softmax_cross_entropy(scores, fwd.query_labels)
    dfeats = [clf.theta[:-1] @ d for d in dscores]  # per row, as in _score_query
    caches = [c for _, c in fwd.query]
    if not cfg.no_adversarial:
        l_d, dlogits, cache = domain_loss(*_domain_batch(fwd), disc)
        loss -= l_d
        # minus sign: the generator maximizes the discriminator's loss
        dx = nn.ffn_backward(-dlogits, cache, disc.layers, update_grads=False)
        dfeats = [d + dx[j] for j, d in enumerate(dfeats)] + list(dx[len(dfeats):])
        caches += [c for _, c in fwd.source]
    for d, c in zip(dfeats, caches):
        gen_backward(d, c, gen, cfg)
    return loss, acc


def update_generator(fwd: EpisodeForward, clf: RidgeClassifier,
                     gen: GeneratorParams, disc: DiscriminatorParams,
                     cfg: ModelConfig, opt: AdamState):
    """Phase 3: one Adam step on the generator's objective."""
    loss, acc = generator_loss_and_grads(fwd, clf, gen, disc, cfg)
    nn.adam_step(opt, gen.params())
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
        l_d = update_discriminator(fwd, disc, opt_disc)
    l_g, acc = update_generator(fwd, clf, gen, disc, cfg, opt_gen)
    return EpisodeMetrics(ridge_loss=l_rr, disc_loss=l_d, gen_loss=l_g, query_accuracy=acc)


def episode_accuracy(episode: Episode, gen: GeneratorParams, cfg: ModelConfig,
                     table: EmbeddingTable) -> float:
    """Evaluation path: fit the ridge head on support, score the query set.

    Touches no persistent parameters; this is the only per-episode
    adaptation at test time.
    """
    fwd = episode_forward(episode, gen, cfg, table)
    clf, _ = fit_episode_classifier(fwd, cfg.lam)
    return _score_query(fwd, clf)[1]
