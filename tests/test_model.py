import copy
import dataclasses
import json
import math

import numpy as np
import pytest

from metadapt import model, nn
from metadapt.corpus import (EmbeddingTable, Example, Vocab, embed_sentence,
                             gen_synthetic_corpus, make_dataset, split_classes)
from metadapt.episodes import EpisodeSpec, sample_episode
from metadapt.harness import TrainConfig, _tiny_instance, train
from metadapt.model import (DiscriminatorParams, EpisodeForward, EpisodeMetrics,
                            GeneratorParams, ModelConfig, RidgeClassifier, attention_weights,
                            discriminator_loss_and_grads, domain_loss, encode,
                            episode_accuracy, episode_forward, episode_scores,
                            episode_update, fit_episode_classifier, gen_backward,
                            gen_forward, generator_loss_and_grads, ridge_fit,
                            ridge_loss, ridge_predict, with_bias)
from metadapt.nn import AdamState, LstmParams
import oracles
from oracles import (assert_views, cross_entropy, disc_loss, discriminate, fuse,
                     fuse_concat, gen_loss, params_digest, ridge_grad)
from oracles import episode_accuracy as oracle_episode_accuracy

LN2 = 0.6931471805599453
LN5 = 1.6094379124341003


def small_cfg(**kw):
    base = dict(dim=6, hidden=4, lam=1.0, max_len=8, disc_hidden=(8, 6))
    base.update(kw)
    return ModelConfig(**base)


def zero_disc(cfg):
    disc = DiscriminatorParams.init(cfg.encoder_dim, cfg.disc_hidden,
                                    np.random.default_rng(0))
    for w, b in disc.layers:
        w.value[:] = 0.0
        b.value[:] = 0.0
    return disc


def attend(W, gen, cfg):
    """Batched-encoder attention weights of one sentence whose word vectors
    are the columns of W (d x m)."""
    table = EmbeddingTable(matrix=W.T.copy(), dim=W.shape[0])
    ex = Example(token_ids=tuple(range(W.shape[1])), label=0)
    return attention_weights(ex, gen, table, cfg)


def oracle_feature(ex, gen, cfg, table):
    """Per-sentence encoder feature (before the bias) of one example."""
    return oracles.gen_forward(embed_sentence(ex, table), gen, cfg)[0]


class TestGenerateAttention:
    def test_zero_projection_uniform(self):
        rng = np.random.default_rng(0)
        cfg = small_cfg()
        gen = GeneratorParams.init(cfg, rng)
        gen.attn_w.value[:] = 0.0
        gen.attn_b.value[:] = 0.0
        W = rng.normal(size=(cfg.dim, 5))
        k = attend(W, gen, cfg)
        assert np.abs(k - 0.2).max() < 1e-15

    def test_single_position(self):
        rng = np.random.default_rng(1)
        cfg = small_cfg()
        gen = GeneratorParams.init(cfg, rng)
        k = attend(rng.normal(size=(cfg.dim, 1)), gen, cfg)
        assert k.shape == (1,)
        assert k[0] == 1.0

    def test_symmetric_positions_equal_weight(self):
        # palindromic input + shared direction params + half-symmetric
        # projection makes mirrored positions exact duplicates
        rng = np.random.default_rng(2)
        cfg = small_cfg()
        p = LstmParams.init(cfg.dim, cfg.hidden, rng)
        gen = GeneratorParams.init(cfg, rng)
        gen.fwd = p
        gen.bwd = p
        gen.attn_w.value[cfg.hidden:] = gen.attn_w.value[:cfg.hidden]
        half = rng.normal(size=(cfg.dim, 3))
        W = np.concatenate([half, half[:, ::-1]], axis=1)
        k = attend(W, gen, cfg)
        m = W.shape[1]
        for i in range(m):
            assert abs(k[i] - k[m - 1 - i]) < 1e-12

    def test_distribution_invariant(self):
        rng = np.random.default_rng(3)
        cfg = small_cfg()
        gen = GeneratorParams.init(cfg, rng)
        for m in (1, 2, 7):
            k = attend(rng.normal(size=(cfg.dim, m)), gen, cfg)
            assert k.shape == (m,)
            assert (k >= 0).all()
            assert abs(k.sum() - 1.0) < 1e-12


class TestFuse:
    def test_uniform_weights_column_mean(self):
        rng = np.random.default_rng(4)
        W = rng.normal(size=(5, 4))
        s = fuse(W, np.full(4, 0.25))
        assert np.abs(s - W.mean(axis=1)).max() < 1e-15

    def test_one_hot_selects_column(self):
        rng = np.random.default_rng(5)
        W = rng.normal(size=(5, 4))
        k = np.zeros(4)
        k[2] = 1.0
        assert np.array_equal(fuse(W, k), W[:, 2])

    def test_matches_naive_sum_oracle(self):
        rng = np.random.default_rng(6)
        W = rng.normal(size=(6, 9))
        k = rng.dirichlet(np.ones(9))
        want = np.zeros(6)
        for i in range(9):
            want += k[i] * W[:, i]
        assert np.abs(fuse(W, k) - want).max() < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fuse(np.ones((3, 4)), np.ones(5))


class TestFuseConcat:
    def test_no_padding_case(self):
        rng = np.random.default_rng(7)
        W = rng.normal(size=(3, 4))
        k = np.full(4, 0.25)
        out = fuse_concat(W, k, max_len=4)
        assert np.array_equal(out[:4], k)
        assert np.abs(out[4:] - W.mean(axis=1)).max() < 1e-15

    def test_padding_zeros(self):
        W = np.ones((3, 2))
        out = fuse_concat(W, np.array([0.7, 0.3]), max_len=4)
        assert out[2] == 0.0 and out[3] == 0.0

    def test_length_always_maxlen_plus_d(self):
        rng = np.random.default_rng(8)
        for m in (1, 3, 6):
            out = fuse_concat(rng.normal(size=(5, m)), np.full(m, 1.0 / m), max_len=6)
            assert out.shape == (11,)

    def test_too_long_rejected(self):
        with pytest.raises(ValueError):
            fuse_concat(np.ones((2, 5)), np.full(5, 0.2), max_len=4)


def gd_ridge_oracle(X, Y, lam, steps=50_000):
    """Plain gradient descent on the ridge objective, step 1/L."""
    m, p = X.shape
    theta = np.zeros((p, Y.shape[1]))
    lr = 1.0 / (np.linalg.norm(X, 2) ** 2 / m + lam)
    for _ in range(steps):
        theta -= lr * (X.T @ (X @ theta - Y) / m + lam * theta)
    return theta


class TestRidgeFit:
    def test_huge_lambda_shrinks_to_zero(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(6, 4))
        Y = rng.normal(size=(6, 3))
        clf = ridge_fit(X, Y, lam=1e8)
        assert np.linalg.norm(clf.theta) < 1e-6 * np.linalg.norm(X.T @ Y)

    def test_scalar_case_half(self):
        # minimize (1/2)(theta - 1)^2 + (1/2) theta^2  ->  theta = 0.5
        clf = ridge_fit(np.array([[1.0]]), np.array([[1.0]]), lam=1.0)
        assert abs(clf.theta[0, 0] - 0.5) < 1e-14

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(10, 7))  # 6 features + bias column
        X[:, -1] = 1.0
        Y = nn.one_hot(rng.integers(0, 3, size=10), 3)
        lam = 0.7
        clf = ridge_fit(X, Y, lam)
        want = gd_ridge_oracle(X, Y, lam)
        assert np.abs(clf.theta - want).max() < 1e-6

    def test_perturbation_does_not_improve(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(10, 7))
        Y = nn.one_hot(rng.integers(0, 3, size=10), 3)
        clf = ridge_fit(X, Y, 0.5)
        base = ridge_loss(X, Y, clf)
        for _ in range(100):
            delta = rng.normal(size=clf.theta.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            other = RidgeClassifier(theta=clf.theta + delta, lam=clf.lam)
            assert ridge_loss(X, Y, other) >= base

    def test_gradient_zero_at_fit(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            m = int(rng.integers(2, 12))
            p = int(rng.integers(2, 8))
            n = int(rng.integers(2, 5))
            X = rng.normal(size=(m, p))
            Y = nn.one_hot(rng.integers(0, n, size=m), n)
            lam = float(rng.uniform(0.05, 2.0))
            clf = ridge_fit(X, Y, lam)
            assert np.abs(ridge_grad(X, Y, clf)).max() < 1e-8

    @pytest.mark.parametrize("m, p", [(4, 33), (5, 301), (7, 7), (12, 5), (40, 3)])
    def test_dual_matches_primal_oracle(self, m, p):
        # the dual m x m solve against the primal p x p one, fewer and more
        # rows than features
        rng = np.random.default_rng(m * 1000 + p)
        X = with_bias(rng.normal(size=(m, p - 1)))
        Y = nn.one_hot(rng.integers(0, 4, size=m), 4)
        for lam in (0.01, 0.5, 3.0):
            got = ridge_fit(X, Y, lam).theta
            want = oracles.ridge_fit_primal(X, Y, lam).theta
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_bad_lambda(self):
        with pytest.raises(ValueError):
            ridge_fit(np.ones((2, 2)), np.ones((2, 2)), lam=0.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_lambda(self, lam):
        with pytest.raises(ValueError, match="finite and > 0"):
            ridge_fit(np.ones((2, 2)), np.ones((2, 2)), lam=lam)
        with pytest.raises(ValueError, match="finite and > 0"):
            small_cfg(lam=lam)

    def test_non_finite_rejected(self):
        X = np.ones((2, 2))
        X[0, 0] = np.nan
        with pytest.raises(nn.NumericalError):
            ridge_fit(X, np.ones((2, 2)), lam=1.0)


class TestRidgePredict:
    def test_zero_theta_ties_break_low(self):
        clf = RidgeClassifier(theta=np.zeros((4, 3)), lam=1.0)
        scores = ridge_predict(clf, np.ones(4))
        assert np.array_equal(scores, np.zeros(3))
        assert int(np.argmax(scores)) == 0

    def test_separable_two_point_support(self):
        rng = np.random.default_rng(13)
        s0 = with_bias(rng.normal(size=5))
        s1 = with_bias(rng.normal(size=5))
        X = np.stack([s0, s1])
        Y = np.eye(2)
        clf = ridge_fit(X, Y, lam=1e-4)
        assert int(np.argmax(ridge_predict(clf, s0))) == 0
        assert int(np.argmax(ridge_predict(clf, s1))) == 1

    def test_scaling_linearity(self):
        rng = np.random.default_rng(14)
        clf = RidgeClassifier(theta=rng.normal(size=(5, 3)), lam=1.0)
        s = rng.normal(size=5)
        base = ridge_predict(clf, s)
        for c in (0.5, 2.0, 7.0):
            scaled = ridge_predict(clf, c * s)
            assert np.abs(scaled - c * base).max() < 1e-12
            assert np.argmax(scaled) == np.argmax(base)

    def test_width_mismatch(self):
        clf = RidgeClassifier(theta=np.zeros((4, 2)), lam=1.0)
        with pytest.raises(ValueError):
            ridge_predict(clf, np.ones(5))


class TestDiscriminate:
    def test_zero_weights_give_half(self):
        cfg = small_cfg()
        disc = zero_disc(cfg)
        out = discriminate(np.random.default_rng(0).normal(size=cfg.dim), disc)
        assert np.array_equal(out, [0.5, 0.5])

    def test_probability_pair(self):
        rng = np.random.default_rng(15)
        cfg = small_cfg()
        disc = DiscriminatorParams.init(cfg.encoder_dim, cfg.disc_hidden, rng)
        for _ in range(5):
            out = discriminate(rng.normal(size=cfg.dim), disc)
            assert abs(out.sum() - 1.0) < 1e-12
            assert 0.0 < out[0] < 1.0 and 0.0 < out[1] < 1.0

    def test_matches_manual_composition_oracle(self):
        rng = np.random.default_rng(16)
        cfg = small_cfg()
        disc = DiscriminatorParams.init(cfg.encoder_dim, cfg.disc_hidden, rng)
        s = rng.normal(size=cfg.dim)
        (w1, b1), (w2, b2), (w3, b3) = disc.layers
        z = w3.value @ np.maximum(w2.value @ np.maximum(w1.value @ s + b1.value, 0)
                                  + b2.value, 0) + b3.value
        e = np.exp(z - z.max())
        want = e / e.sum()
        assert np.abs(discriminate(s, disc) - want).max() < 1e-12


def batched_disc_loss(query_embs, source_embs, disc):
    """domain_loss on query rows (label 0) stacked on source rows (label 1)."""
    x = np.vstack(list(query_embs) + list(source_embs))
    labels = [0] * len(query_embs) + [1] * len(source_embs)
    return domain_loss(x, labels, disc)[0]


class TestDiscLoss:
    def test_chance_discriminator_ln2(self):
        rng = np.random.default_rng(17)
        cfg = small_cfg()
        disc = zero_disc(cfg)
        q = [rng.normal(size=cfg.dim) for _ in range(4)]
        s = [rng.normal(size=cfg.dim) for _ in range(4)]
        assert abs(batched_disc_loss(q, s, disc) - LN2) < 1e-12

    def test_perfect_discrimination_near_zero(self):
        # craft inputs +/-u and a network that separates them with margin 50
        cfg = small_cfg(disc_hidden=(4, 4))
        u = np.zeros(cfg.dim)
        u[0] = 1.0
        disc = zero_disc(cfg)
        (w1, b1), (w2, b2), (w3, b3) = disc.layers
        w1.value[0] = 50.0 * u     # detects +u
        w1.value[1] = -50.0 * u    # detects -u
        w2.value[0, 0] = 1.0
        w2.value[1, 1] = 1.0
        w3.value[1, 0] = 1.0       # +u -> source logit
        w3.value[0, 1] = 1.0       # -u -> query logit
        q = [-u, -u]
        s = [u, u]
        assert batched_disc_loss(q, s, disc) < 1e-6

    def test_matches_per_sample_oracle(self):
        rng = np.random.default_rng(18)
        cfg = small_cfg()
        disc = DiscriminatorParams.init(cfg.encoder_dim, cfg.disc_hidden, rng)
        q = [rng.normal(size=cfg.dim) for _ in range(5)]
        s = [rng.normal(size=cfg.dim) for _ in range(5)]
        want = 0.0
        for e in q:
            p = discriminate(e, disc)
            want += -math.log(p[0])   # query label
        for e in s:
            p = discriminate(e, disc)
            want += -math.log(p[1])   # source label
        want /= 10.0
        assert abs(batched_disc_loss(q, s, disc) - want) < 1e-12

    def test_size_mismatch_default_error(self):
        cfg = small_cfg()
        disc = zero_disc(cfg)
        q = [np.zeros(cfg.dim)] * 2
        s = [np.zeros(cfg.dim)] * 3
        # the per-sample oracle mirrors an episode's equal batches; the
        # batched loss averages over whatever rows it is given
        with pytest.raises(ValueError, match="mismatch"):
            disc_loss(q, s, disc)
        assert abs(batched_disc_loss(q, s, disc) - LN2) < 1e-12

    def test_swap_with_label_convention_identical(self):
        rng = np.random.default_rng(19)
        cfg = small_cfg()
        disc = DiscriminatorParams.init(cfg.encoder_dim, cfg.disc_hidden, rng)
        q = [rng.normal(size=cfg.dim) for _ in range(4)]
        s = [rng.normal(size=cfg.dim) for _ in range(4)]
        swapped = copy.deepcopy(disc)
        w3, b3 = swapped.layers[2]
        w3.value[:] = w3.value[::-1].copy()
        b3.value[:] = b3.value[::-1].copy()
        # per-sample terms are bit-identical; the sum runs in a different
        # order, so allow one ulp
        assert math.isclose(batched_disc_loss(q, s, disc),
                            batched_disc_loss(s, q, swapped), rel_tol=1e-14)


class TestGenLoss:
    def setup_episode(self, seed=0, n_way=5):
        rng = np.random.default_rng(seed)
        cfg = small_cfg()
        gen = GeneratorParams.init(cfg, rng)
        items = []
        for j in range(n_way * 2):
            m = int(rng.integers(2, 6))
            ex = Example(token_ids=tuple(int(t) for t in rng.integers(0, 10, size=m)),
                         label=j % n_way)
            items.append((ex, j % n_way))
        source = [ex for ex, _ in self.shift(items)]
        table = EmbeddingTable(matrix=rng.normal(size=(10, cfg.dim)), dim=cfg.dim)
        return cfg, gen, items, source, table

    @staticmethod
    def shift(items):
        return items[1:] + items[:1]

    @staticmethod
    def batched(items, source, clf, gen, disc, cfg, table):
        """generator_loss_and_grads on these query items and source set."""
        feats, cache = gen_forward([ex for ex, _ in items] + list(source), gen, table, cfg)
        fwd = EpisodeForward(feats=feats, cache=cache,
                             support_labels=np.zeros(0, dtype=np.intp),
                             query_labels=np.array([y for _, y in items]),
                             n_way=clf.theta.shape[1])
        return generator_loss_and_grads(fwd, clf, gen, disc, cfg)[0]

    def test_chance_discriminator_decomposition(self):
        cfg, gen, items, source, table = self.setup_episode()
        disc = zero_disc(cfg)
        rng = np.random.default_rng(20)
        clf = RidgeClassifier(theta=rng.normal(size=(cfg.dim + 1, 5)), lam=1.0)
        got = self.batched(items, source, clf, gen, disc, cfg, table)
        ce = np.mean([cross_entropy(
            ridge_predict(clf, with_bias(oracle_feature(ex, gen, cfg, table))), y)
            for ex, y in items])
        assert abs(got - (ce - LN2)) < 1e-12

    def test_uniform_scores_five_way_anchor(self):
        cfg, gen, items, source, table = self.setup_episode(n_way=5)
        disc = zero_disc(cfg)
        clf = RidgeClassifier(theta=np.zeros((cfg.dim + 1, 5)), lam=1.0)
        got = self.batched(items, source, clf, gen, disc, cfg, table)
        assert abs(got - (LN5 - LN2)) < 1e-12

    def test_decomposition_oracle(self):
        cfg, gen, items, source, table = self.setup_episode(seed=3)
        rng = np.random.default_rng(21)
        disc = DiscriminatorParams.init(cfg.encoder_dim, cfg.disc_hidden, rng)
        clf = RidgeClassifier(theta=rng.normal(size=(cfg.dim + 1, 5)), lam=1.0)
        got = self.batched(items, source, clf, gen, disc, cfg, table)
        q_embs = [oracle_feature(ex, gen, cfg, table) for ex, _ in items]
        s_embs = [oracle_feature(ex, gen, cfg, table) for ex in source]
        ce = np.mean([cross_entropy(ridge_predict(clf, with_bias(f)), y)
                      for f, (_, y) in zip(q_embs, items)])
        ld = disc_loss(q_embs, s_embs, disc)
        assert abs(got - (ce - ld)) < 1e-12

    def test_unfit_classifier_rejected(self):
        cfg, gen, items, source, table = self.setup_episode()
        disc = zero_disc(cfg)
        with pytest.raises(ValueError, match="fit"):
            gen_loss(items, source, None, gen, disc, cfg, table)


def ragged_instance(seed, **cfg_kw):
    """A 3-way 2-shot 3-query episode over sentences of 1 to 7 tokens."""
    rng = np.random.default_rng(seed)
    vocab = Vocab.from_tokens([f"t{i}" for i in range(12)])
    table = EmbeddingTable(matrix=rng.normal(size=(len(vocab), 6)), dim=6)
    parsed = [(tuple(int(t) for t in rng.integers(0, 12, size=int(rng.integers(1, 8)))), c)
              for c in range(6) for _ in range(6)]
    dataset = make_dataset(parsed, [f"c{c}" for c in range(6)], vocab)
    cfg = small_cfg(**cfg_kw)
    episode = sample_episode(dataset, dataset.classes, EpisodeSpec(3, 2, 3), rng)
    gen = GeneratorParams.init(cfg, rng)
    disc = DiscriminatorParams.init(cfg.encoder_dim, cfg.disc_hidden, rng)
    return episode, gen, disc, cfg, table


class TestTrainedLossesMatchOracle:
    """The batched losses training runs against the per-sentence oracles."""

    @pytest.mark.parametrize("variant", ["default", "concat_fusion", "no_adversarial"])
    def test_losses_match_per_sentence_oracle(self, variant):
        for seed in range(4):
            kw = {} if variant == "default" else {variant: True}
            episode, gen, disc, cfg, table = ragged_instance(seed, **kw)
            assert len({len(ex.token_ids) for ex, _ in episode.query}) > 1
            fwd = episode_forward(episode, gen, cfg, table)
            clf, _ = fit_episode_classifier(fwd, cfg.lam)
            got, _ = generator_loss_and_grads(fwd, clf, gen, disc, cfg)
            want = gen_loss(episode.query, episode.source, clf, gen, disc, cfg, table)
            assert abs(got - want) < 1e-12
            if cfg.no_adversarial:
                continue
            q = [oracle_feature(ex, gen, cfg, table) for ex, _ in episode.query]
            s = [oracle_feature(ex, gen, cfg, table) for ex in episode.source]
            assert abs(discriminator_loss_and_grads(fwd, disc) - disc_loss(q, s, disc)) < 1e-12


def with_extremes(episode, cfg):
    """The episode with its first two queries replaced by a one-token
    sentence and a max_len one, so a batch spans every length."""
    (ex0, y0), (ex1, y1) = episode.query[:2]
    short = Example(token_ids=ex0.token_ids[:1], label=ex0.label)
    long = Example(token_ids=tuple(i % 12 for i in range(cfg.max_len)), label=ex1.label)
    return dataclasses.replace(episode, query=((short, y0), (long, y1)) + episode.query[2:])


def episode_examples(episode, cfg):
    """The sentences episode_forward encodes, in its row order."""
    out = [ex for ex, _ in episode.support + episode.query]
    return out if cfg.no_adversarial else out + list(episode.source)


def arrays_in(obj):
    """Every numpy array an object holds, through tuples, lists and dicts."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in arrays_in(item)]
    return []


class TestBatchedEncoder:
    """One padded BiLSTM pass per episode against the per-sentence oracle."""

    @pytest.mark.parametrize("variant", ["default", "concat_fusion", "no_adversarial"])
    def test_features_and_gradients_match_oracle(self, variant):
        for seed in range(4):
            kw = {} if variant == "default" else {variant: True}
            episode, gen, disc, cfg, table = ragged_instance(seed, **kw)
            episode = with_extremes(episode, cfg)
            examples = episode_examples(episode, cfg)
            lengths = [len(ex.token_ids) for ex in examples]
            T = max(lengths)
            # reversing each sentence within its length is no plain flip of
            # the batch, so a misaligned direction shows
            assert not np.array_equal(nn.reverse_index(lengths, T), np.broadcast_to(
                np.arange(T)[::-1, None], (T, len(lengths))))
            fwd = episode_forward(episode, gen, cfg, table)
            want = np.stack([oracle_feature(ex, gen, cfg, table) for ex in examples])
            assert fwd.feats.shape == want.shape
            assert np.abs(fwd.feats - want).max() < 1e-12
            if not cfg.no_adversarial:
                k = fwd.cache[4]
                for b, ex in enumerate(examples):
                    want_k, _ = oracles.generate_attention(embed_sentence(ex, table), gen)
                    assert np.abs(k[b, :lengths[b]] - want_k).max() < 1e-12

            clf, _ = fit_episode_classifier(fwd, cfg.lam)
            loss, _ = generator_loss_and_grads(fwd, clf, gen, disc, cfg)
            got = [p.grad.copy() for p in gen.params()]
            want_loss = oracles.gen_loss_and_grads(episode, clf, gen, disc, cfg, table)
            assert abs(loss - want_loss) < 1e-12
            # attn_b's gradient is zero up to rounding (softmax is shift
            # invariant), so the bar is relative to the largest gradient;
            # attn_w's covers both halves, one per direction
            scale = max(np.abs(p.grad).max() for p in gen.params())
            for g, p in zip(got, gen.params()):
                assert np.abs(g - p.grad).max() < 1e-12 * scale

    @pytest.mark.parametrize("variant", ["default", "concat_fusion", "no_adversarial"])
    def test_no_context_tensor_kept(self, variant):
        # 2H = 10 differs from d = 6, 4H = 20 and every length up to max_len 8
        kw = {} if variant == "default" else {variant: True}
        episode, gen, disc, cfg, table = ragged_instance(0, hidden=5, **kw)
        examples = episode_examples(with_extremes(episode, cfg), cfg)
        two_h = (2 * cfg.hidden,)
        E, rows, lengths = model._encoder_inputs(examples, table)
        for cache in (True, False):
            held = nn.bilstm_forward(E, rows, lengths, gen.fwd, gen.bwd, cache)
            assert [a.shape for a in arrays_in(held) if a.shape[-1:] == two_h] == []
        held = arrays_in(gen_forward(examples, gen, table, cfg)[1])
        # the plain encoder keeps its pooled (B, 2H) states for proj_w's
        # gradient; no array with a time axis is 2H wide
        allowed = [(len(examples),) + two_h] if cfg.no_adversarial else []
        assert [a.shape for a in held if a.shape[-1:] == two_h] == allowed

    def test_generator_gradient_finite_differences(self):
        episode, gen, disc, cfg, table = ragged_instance(5)
        episode = with_extremes(episode, cfg)
        clf, _ = fit_episode_classifier(episode_forward(episode, gen, cfg, table), cfg.lam)

        def loss_fn():
            fwd = episode_forward(episode, gen, cfg, table)
            return generator_loss_and_grads(fwd, clf, gen, disc, cfg)[0]

        # the step of run_gradient_checks' generator check (see its docstring)
        err = nn.grad_check(loss_fn, gen.values, gen.grads, eps=1e-4, n_coords=300,
                            rng=np.random.default_rng(5))
        assert err < 1e-5

    def test_batch_composition_does_not_matter(self):
        episode, gen, disc, cfg, table = ragged_instance(6)
        examples = episode_examples(with_extremes(episode, cfg), cfg)
        feats, _ = gen_forward(examples, gen, table, cfg)
        for j, ex in enumerate(examples):
            assert np.abs(gen_forward([ex], gen, table, cfg)[0][0] - feats[j]).max() < 1e-12

    def test_concat_fusion_rejects_overlong_sentence(self):
        episode, gen, disc, cfg, table = ragged_instance(7, concat_fusion=True)
        too_long = Example(token_ids=(1,) * (cfg.max_len + 1), label=0)
        with pytest.raises(ValueError, match="max_len"):
            gen_forward([too_long], gen, table, cfg)


class TestSplitDirections:
    """The BiLSTM's two directions forced onto two threads give the serial
    path's bits, through the encoder and through training."""

    @pytest.mark.parametrize("variant", ["default", "concat_fusion", "no_adversarial"])
    def test_features_and_gradients_equal_serial(self, variant, monkeypatch):
        kw = {} if variant == "default" else {variant: True}
        for seed in range(3):
            episode, gen, disc, cfg, table = ragged_instance(seed, **kw)
            examples = episode_examples(with_extremes(episode, cfg), cfg)
            dfeats = np.random.default_rng(seed).normal(size=(len(examples), cfg.encoder_dim))
            runs = []
            for split in (False, True):
                monkeypatch.setattr(nn, "_split_directions", lambda T, B, H, s=split: s)
                gen.grads.fill(0.0)
                feats, cache = gen_forward(examples, gen, table, cfg)
                gen_backward(dfeats, cache, gen, cfg)
                runs.append([feats] + [p.grad.copy() for p in gen.params()])
            for a, b in zip(*runs):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("variant", ["default", "concat_fusion", "no_adversarial"])
    def test_train_writes_same_files(self, variant, tmp_path, monkeypatch):
        ds, table, _ = gen_synthetic_corpus(8, 10, 8, 2, 6, 12, seed=0)
        split = split_classes(ds.classes, (4, 2, 2), np.random.default_rng(0))
        kw = {} if variant == "default" else {variant: True}
        mcfg = ModelConfig(dim=12, hidden=6, lam=0.5, max_len=8, disc_hidden=(12, 8), **kw)
        cfg = TrainConfig(spec=EpisodeSpec(2, 1, 2), epochs=2, episodes_per_epoch=4,
                          patience=5, seed=4, val_episodes=2, lr=0.01)
        for split_on in (False, True):
            monkeypatch.setattr(nn, "_split_directions", lambda T, B, H, s=split_on: s)
            train(ds, split, cfg, mcfg, table, out_dir=tmp_path / str(split_on))

        def records(run):
            lines = (tmp_path / run / "metrics.jsonl").read_text().splitlines()
            return [{k: v for k, v in json.loads(line).items() if k != "wall_time"}
                    for line in lines]
        assert len(records("True")) == 8
        assert records("False") == records("True")
        assert (tmp_path / "False" / "checkpoint.json").read_bytes() == \
            (tmp_path / "True" / "checkpoint.json").read_bytes()


class TestForwardOnlyEncoder:
    """gen_forward(..., cache=False), the encoder of every caller that never
    backpropagates: the cached pass's bits, and no cache."""

    @pytest.mark.parametrize("variant", ["default", "concat_fusion", "no_adversarial"])
    def test_features_equal_cached_pass(self, variant):
        kw = {} if variant == "default" else {variant: True}
        for seed in range(3):
            episode, gen, disc, cfg, table = ragged_instance(seed, **kw)
            examples = episode_examples(with_extremes(episode, cfg), cfg)
            want, cache = gen_forward(examples, gen, table, cfg)
            got, none = gen_forward(examples, gen, table, cfg, cache=False)
            assert cache is not None and none is None
            assert np.array_equal(got, want)

    def test_encode_and_attention_weights_keep_no_cache(self, monkeypatch):
        episode, gen, disc, cfg, table = ragged_instance(3)
        ex = episode.query[0][0]
        cached = with_bias(gen_forward([ex], gen, table, cfg)[0][0])

        def cached_kernel(*args):
            raise AssertionError("a forward-only caller ran the cached LSTM kernel")

        monkeypatch.setattr(nn, "lstm_forward", cached_kernel)
        assert np.array_equal(encode(ex, gen, table, cfg), cached)
        assert attention_weights(ex, gen, table, cfg).shape == (len(ex.token_ids),)

    @pytest.mark.parametrize("variant", ["default", "concat_fusion", "no_adversarial"])
    def test_no_padded_input_without_cache(self, variant, monkeypatch):
        kw = {} if variant == "default" else {variant: True}
        episode, gen, disc, cfg, table = ragged_instance(4, **kw)
        examples = episode_examples(with_extremes(episode, cfg), cfg)
        built = []   # the length T of every padded X (T, B, d) made
        real = model._padded

        def spy(E, rows):
            built.append(rows.shape[0])
            return real(E, rows)

        monkeypatch.setattr(model, "_padded", spy)
        gen_forward(examples, gen, table, cfg, cache=False)
        encode(examples[0], gen, table, cfg)
        if variant != "no_adversarial":
            attention_weights(examples[0], gen, table, cfg)
        assert built == []
        # a pass that keeps its cache builds X once, for the backward pass:
        # each sentence's word vectors from t = 0, zeros after its end
        X = gen_forward(examples, gen, table, cfg)[1][0]
        assert built == [cfg.max_len]
        for b, ex in enumerate(examples):
            m = len(ex.token_ids)
            assert np.array_equal(X[:m, b], embed_sentence(ex, table).T)
            assert not X[m:, b].any()


class TestFusion:
    """Each sentence is fused from its own word matrix; on padded batches of
    equal-length sentences that gives the bits of the padded forms it
    replaced (tests/oracles.py), and the mean word vector gives them on any
    batch."""

    @staticmethod
    def batch(rng, dim, lengths, **kw):
        cfg = ModelConfig(dim=dim, hidden=5, lam=1.0, max_len=12, disc_hidden=(8, 6), **kw)
        table = EmbeddingTable(matrix=rng.normal(size=(30, dim)), dim=dim)
        examples = [Example(tuple(int(t) for t in rng.integers(0, 30, size=m)), 0)
                    for m in lengths]
        return cfg, table, GeneratorParams.init(cfg, rng), examples

    @pytest.mark.parametrize("dim", [6, 40])
    @pytest.mark.parametrize("length", [1, 5, 12])
    def test_equal_lengths_match_stacked_fusion(self, dim, length):
        rng = np.random.default_rng(dim + length)
        cfg, table, gen, examples = self.batch(rng, dim, [length] * 17)
        X, _, _, _, k = gen_forward(examples, gen, table, cfg)[1]
        for cache in (True, False):
            feats, _ = gen_forward(examples, gen, table, cfg, cache=cache)
            assert np.array_equal(feats, oracles.fuse_padded(X, k))

    @pytest.mark.parametrize("dim", [6, 40])
    @pytest.mark.parametrize("ragged", [False, True], ids=["equal", "ragged"])
    def test_mean_matches_padded_sum(self, dim, ragged):
        rng = np.random.default_rng(dim)
        lengths = rng.integers(1, 13, size=17) if ragged else [12] * 17
        cfg, table, gen, examples = self.batch(rng, dim, lengths, concat_fusion=True)
        X, lengths = gen_forward(examples, gen, table, cfg)[1][:2]
        for cache in (True, False):
            feats, _ = gen_forward(examples, gen, table, cfg, cache=cache)
            assert np.array_equal(feats[:, cfg.max_len:], oracles.mean_padded(X, lengths))


class TestTokenProjection:
    """Input projections gathered by token: a one-token sentence, tokens
    repeated within and across sentences, and token 12, which only the
    third sentence holds."""

    BATCH = ((5,), (0, 1, 0, 1, 0), (2, 3, 12, 2), (1, 4, 5, 6, 7, 8, 0))

    def setup(self, variant):
        rng = np.random.default_rng(31)
        cfg = small_cfg(**({} if variant == "default" else {variant: True}))
        table = EmbeddingTable(matrix=rng.normal(size=(13, 6)), dim=6)
        gen = GeneratorParams.init(cfg, rng)
        return rng, cfg, table, gen, [Example(ids, 0) for ids in self.BATCH]

    @pytest.mark.parametrize("variant", ["default", "concat_fusion", "no_adversarial"])
    def test_features_and_gradients_match_oracle(self, variant):
        rng, cfg, table, gen, batch = self.setup(variant)
        dfeats = rng.normal(size=(len(batch), cfg.encoder_dim))
        feats, cache = gen_forward(batch, gen, table, cfg)
        gen_backward(dfeats, cache, gen, cfg)
        got = [p.grad.copy() for p in gen.params()]
        gen.grads.fill(0.0)
        for ex, f, df in zip(batch, feats, dfeats):
            want, c = oracles.gen_forward(embed_sentence(ex, table), gen, cfg)
            assert np.abs(f - want).max() < 1e-12
            oracles.gen_backward(df, c, gen, cfg)
        scale = max(np.abs(p.grad).max() for p in gen.params())
        for g, p in zip(got, gen.params()):
            assert np.abs(g - p.grad).max() < 1e-12 * scale

    def test_out_of_range_token_rejected(self):
        # a negative id must not wrap around to the table's last rows
        _, cfg, table, gen, _ = self.setup("default")
        for ids in ((3, 13), (-1, 2)):
            with pytest.raises(ValueError, match="out of range"):
                gen_forward([Example((5,), 0), Example(ids, 0)], gen, table, cfg)

    @pytest.mark.parametrize("cache", [True, False])
    def test_empty_sentence_rejected(self, cache):
        _, cfg, table, gen, _ = self.setup("default")
        for batch in ([], [Example((5,), 0), Example((), 0)]):
            with pytest.raises(ValueError, match="no sentences to encode, or an empty one"):
                gen_forward(batch, gen, table, cfg, cache=cache)


class TestEpisodePhases:
    def make(self, seed=0):
        return _tiny_instance(seed)

    def test_phase_isolation(self):
        episode, gen, disc, cfg, table = self.make()
        opt_g, opt_d = AdamState(lr=1e-3), AdamState(lr=1e-3)

        fwd = episode_forward(episode, gen, cfg, table)
        g0, d0 = params_digest(gen.params()), params_digest(disc.params())

        clf, l_rr = fit_episode_classifier(fwd, cfg.lam)
        assert params_digest(gen.params()) == g0
        assert params_digest(disc.params()) == d0
        assert math.isfinite(l_rr)

        l_d = discriminator_loss_and_grads(fwd, disc)
        nn.adam_step(opt_d, disc.values, disc.grads)
        assert params_digest(gen.params()) == g0
        d1 = params_digest(disc.params())
        assert d1 != d0
        theta_before = clf.theta.copy()

        l_g, acc = generator_loss_and_grads(fwd, clf, gen, disc, cfg)
        nn.adam_step(opt_g, gen.values, gen.grads)
        assert params_digest(disc.params()) == d1
        assert params_digest(gen.params()) != g0
        assert np.array_equal(clf.theta, theta_before)
        assert math.isfinite(l_d) and math.isfinite(l_g)
        assert 0.0 <= acc <= 1.0

    def test_sgd_descent_direction(self):
        # a small plain-gradient step must strictly decrease each phase loss
        episode, gen, disc, cfg, table = self.make(seed=1)
        fwd = episode_forward(episode, gen, cfg, table)
        clf, _ = fit_episode_classifier(fwd, cfg.lam)

        before = discriminator_loss_and_grads(fwd, disc)
        disc.values -= 1e-4 * disc.grads
        after = discriminator_loss_and_grads(fwd, disc)
        assert after < before

        loss0, _ = generator_loss_and_grads(fwd, clf, gen, disc, cfg)
        gen.values -= 1e-4 * gen.grads
        fwd2 = episode_forward(episode, gen, cfg, table)
        loss1, _ = generator_loss_and_grads(fwd2, clf, gen, disc, cfg)
        assert loss1 < loss0

    def test_episode_update_deterministic(self):
        m1 = None
        for _ in range(2):
            episode, gen, disc, cfg, table = self.make(seed=2)
            m = episode_update(episode, gen, disc, cfg, table,
                               AdamState(lr=1e-3), AdamState(lr=1e-3))
            if m1 is None:
                m1 = m
            else:
                assert m == m1

    @pytest.mark.parametrize("variant", ["default", "no_adversarial", "concat_fusion"])
    def test_episode_update_is_the_phase_sequence(self, variant):
        # encode, ridge fit, discriminator step, then the generator's step
        # against the updated discriminator: bitwise the same as these calls
        episode, _, _, cfg, table = self.make(seed=4)
        cfg = dataclasses.replace(cfg, **({} if variant == "default" else {variant: True}))

        def explicit(gen, disc, opt_g, opt_d):
            fwd = episode_forward(episode, gen, cfg, table)
            clf, l_rr = fit_episode_classifier(fwd, cfg.lam)
            l_d = 0.0
            if not cfg.no_adversarial:
                l_d = discriminator_loss_and_grads(fwd, disc)
                nn.adam_step(opt_d, disc.values, disc.grads)
            l_g, acc = generator_loss_and_grads(fwd, clf, gen, disc, cfg)
            nn.adam_step(opt_g, gen.values, gen.grads)
            return EpisodeMetrics(ridge_loss=l_rr, disc_loss=l_d, gen_loss=l_g,
                                  query_accuracy=acc)

        def run(update):
            rng = np.random.default_rng(4)
            gen = GeneratorParams.init(cfg, rng)
            disc = DiscriminatorParams.init(cfg.encoder_dim, cfg.disc_hidden, rng)
            opts = AdamState(lr=1e-2), AdamState(lr=1e-2)
            metrics = [update(gen, disc, *opts) for _ in range(2)]
            moments = [(o.t, None if o.m is None else (o.m.tobytes(), o.v.tobytes()))
                       for o in opts]
            return metrics, gen.values.tobytes(), disc.values.tobytes(), moments

        def update(gen, disc, opt_g, opt_d):
            return episode_update(episode, gen, disc, cfg, table, opt_g, opt_d)

        want = run(explicit)
        assert run(update) == want
        # two steps of each optimizer the variant trains
        assert [t for t, _ in want[3]] == [2, 0 if cfg.no_adversarial else 2]

    def test_no_adversarial_skips_discriminator(self):
        episode, gen, disc, cfg, table = self.make(seed=3)
        cfg2 = ModelConfig(dim=cfg.dim, hidden=cfg.hidden, lam=cfg.lam,
                           no_adversarial=True, max_len=cfg.max_len,
                           disc_hidden=cfg.disc_hidden)
        gen2 = GeneratorParams.init(cfg2, np.random.default_rng(3))
        d0 = params_digest(disc.params())
        m = episode_update(episode, gen2, disc, cfg2, table,
                           AdamState(lr=1e-3), AdamState(lr=1e-3))
        assert params_digest(disc.params()) == d0
        assert m.disc_loss == 0.0
        assert math.isfinite(m.gen_loss)

    def test_no_adversarial_skips_source_encodes(self, monkeypatch):
        # acceptance shape: 4-way 1-shot 5-query with 20 source sentences
        ds, table, _ = gen_synthetic_corpus(8, 10, 12, 2, 6, 32, seed=5)
        spec = EpisodeSpec(n_way=4, k_shot=1, l_query=5)
        calls = []   # the sentences of every encoder pass
        real = model.gen_forward

        def counting(examples, *args, **kwargs):
            calls.extend(examples)
            return real(examples, *args, **kwargs)

        monkeypatch.setattr(model, "gen_forward", counting)
        for no_adversarial, want in ((False, 44), (True, 24)):
            cfg = ModelConfig(dim=32, hidden=16, lam=0.1, max_len=12,
                              no_adversarial=no_adversarial)
            rng = np.random.default_rng(0)
            gen = GeneratorParams.init(cfg, rng)
            disc = DiscriminatorParams.init(cfg.encoder_dim, cfg.disc_hidden, rng)
            episode = sample_episode(ds, ds.classes, spec, rng)
            calls.clear()
            episode_update(episode, gen, disc, cfg, table,
                           AdamState(lr=1e-3), AdamState(lr=1e-3))
            assert len(calls) == want

    def test_full_pipeline_gradients(self):
        from metadapt.harness import run_gradient_checks
        errs = run_gradient_checks(seed=0, n_coords=80)
        assert errs["disc_loss_wrt_mu"] < 1e-5
        assert errs["gen_loss_wrt_beta"] < 1e-5

    def test_episode_accuracy_range_and_purity(self):
        episode, gen, disc, cfg, table = self.make(seed=4)
        g0 = params_digest(gen.params())
        items = zip(episode.support_indices + episode.query_indices,
                    episode.support + episode.query)
        features = {i: encode(ex, gen, table, cfg) for i, (ex, _) in items}
        scores = episode_scores([episode], features, cfg.lam)
        assert scores.shape == (1, len(episode.query), episode.n_way)
        acc = episode_accuracy(scores[0], [y for _, y in episode.query])
        assert acc == oracle_episode_accuracy(episode, gen, cfg, table)
        assert 0.0 <= acc <= 1.0
        assert params_digest(gen.params()) == g0

    def test_stacked_scores_match_per_episode_heads(self):
        # one stacked dual solve against a ridge_fit per episode, scored row by row
        ds, table, _ = gen_synthetic_corpus(6, 8, 6, 1, 8, 6, seed=26)
        cfg = small_cfg(lam=0.3)
        gen = GeneratorParams.init(cfg, np.random.default_rng(26))
        spec = EpisodeSpec(n_way=3, k_shot=2, l_query=3)
        rng = np.random.default_rng(27)
        episodes = [sample_episode(ds, ds.classes, spec, rng, with_source=False)
                    for _ in range(7)]
        features = {i: encode(ex, gen, table, cfg) for i, ex in enumerate(ds.examples)}
        scores = episode_scores(episodes, features, cfg.lam)
        for ep, got in zip(episodes, scores):
            X = np.stack([features[i] for i in ep.support_indices])
            clf = ridge_fit(X, nn.one_hot([y for _, y in ep.support], ep.n_way), cfg.lam)
            want = np.stack([ridge_predict(clf, features[i]) for i in ep.query_indices])
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_episode_accuracy_ties_break_low(self):
        scores = np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 2.0]])
        assert episode_accuracy(scores, [0, 1]) == 1.0
        assert episode_accuracy(scores, [1, 2]) == 0.0

    def test_non_finite_features_rejected(self):
        episode, gen, disc, cfg, table = self.make(seed=5)
        items = zip(episode.support_indices + episode.query_indices,
                    episode.support + episode.query)
        features = {i: encode(ex, gen, table, cfg) for i, (ex, _) in items}
        features[episode.support_indices[0]] = np.full(cfg.encoder_dim + 1, np.nan)
        with pytest.raises(nn.NumericalError):
            episode_scores([episode], features, cfg.lam)


class TestEncode:
    def test_default_is_fuse_of_attention(self):
        rng = np.random.default_rng(22)
        ds, table, vocab = gen_synthetic_corpus(3, 4, 6, 1, 8, 6, seed=22)
        cfg = small_cfg()
        gen = GeneratorParams.init(cfg, rng)
        ex = ds.examples[0]
        W = embed_sentence(ex, table)
        k = attention_weights(ex, gen, table, cfg)
        want = with_bias(fuse(W, k))
        assert np.array_equal(encode(ex, gen, table, cfg), want)

    def test_no_adversarial_zero_bilstm_gives_bias_only(self):
        cfg = small_cfg(no_adversarial=True)
        gen = GeneratorParams.init(cfg, np.random.default_rng(23))
        for p in gen.fwd.params() + gen.bwd.params():
            p.value[:] = 0.0
        gen.proj_b.value[:] = 0.0
        ds, table, vocab = gen_synthetic_corpus(3, 4, 6, 1, 8, 6, seed=23)
        feat = encode(ds.examples[0], gen, table, cfg)
        assert np.array_equal(feat[:-1], np.zeros(cfg.dim))
        assert feat[-1] == 1.0

    def test_concat_fusion_length(self):
        cfg = small_cfg(concat_fusion=True)
        gen = GeneratorParams.init(cfg, np.random.default_rng(24))
        ds, table, vocab = gen_synthetic_corpus(3, 4, 6, 1, 8, 6, seed=24)
        feat = encode(ds.examples[0], gen, table, cfg)
        assert feat.shape == (cfg.max_len + cfg.dim + 1,)

    def test_conflicting_flags_rejected(self):
        with pytest.raises(ValueError, match="conflicting"):
            small_cfg(no_adversarial=True, concat_fusion=True)


class TestNamedParams:
    def test_one_order_for_adam_and_checkpoint(self):
        rng = np.random.default_rng(25)
        for flags in ({}, {"no_adversarial": True}, {"concat_fusion": True}):
            cfg = small_cfg(**flags)
            gen = GeneratorParams.init(cfg, rng)
            disc = DiscriminatorParams.init(cfg.encoder_dim, cfg.disc_hidden, rng)
            for ps in (gen, disc):
                named = ps.named_params()
                assert [id(p) for p in named.values()] == [id(p) for p in ps.params()]
                assert list(named) == list(ps.named_arrays())
                assert all(a is named[k].value for k, a in ps.named_arrays().items())
            assert ("gen.proj_w" in gen.named_params()) == cfg.no_adversarial
            assert list(disc.named_params()) == [f"disc.layer{i}.{k}" for i in (1, 2, 3)
                                                 for k in ("w", "b")]


class TestFlatParams:
    """Each parameter set keeps its weights in one value vector and its
    gradients in one gradient vector; every Param is a view into both."""

    def sets(self, seed, **flags):
        cfg = small_cfg(**flags)
        rng = np.random.default_rng(seed)
        gen = GeneratorParams.init(cfg, rng)
        return gen, DiscriminatorParams.init(cfg.encoder_dim, cfg.disc_hidden, rng)

    @pytest.mark.parametrize("flags", [{}, {"no_adversarial": True}],
                             ids=["default", "no_adversarial"])
    def test_params_are_views_after_init(self, flags):
        for ps in self.sets(26, **flags):
            assert_views(ps)
            assert ps.values.size == sum(p.value.size for p in ps.params())

    @pytest.mark.parametrize("flags", [{}, {"no_adversarial": True}],
                             ids=["default", "no_adversarial"])
    def test_adam_bitwise_equal_to_per_param_oracle(self, flags):
        flat, ref = self.sets(27, **flags), self.sets(27, **flags)
        rng = np.random.default_rng(28)
        for ps, rs in zip(flat, ref):
            opt, opt_ref = AdamState(lr=1e-2), AdamState(lr=1e-2)
            for _ in range(4):
                # gradients over eight decades, some exactly zero
                g = rng.normal(size=ps.values.size) * 10.0 ** rng.uniform(-6, 2, ps.values.size)
                g[rng.random(g.size) < 0.1] = 0.0
                ps.grads[:] = g
                rs.grads[:] = g
                nn.adam_step(opt, ps.values, ps.grads)
                oracles.adam_step_per_param(opt_ref, rs.params())
                assert np.array_equal(ps.values, rs.values)
                assert np.array_equal(opt.m, np.concatenate([m.ravel() for m in opt_ref.m]))
                assert np.array_equal(opt.v, np.concatenate([v.ravel() for v in opt_ref.v]))
                assert not ps.grads.any()
            assert opt.t == opt_ref.t == 4

    def test_deepcopy_keeps_views(self):
        for ps in self.sets(29):
            ps.grads[:] = np.random.default_rng(30).normal(size=ps.grads.size)
            clone = copy.deepcopy(ps)
            assert_views(clone)
            assert np.array_equal(clone.values, ps.values)
            assert np.array_equal(clone.grads, ps.grads)
            assert not np.shares_memory(clone.values, ps.values)
            clone.values += 1.0   # the copy's vector drives its own Params only
            assert all(np.array_equal(c.value, p.value + 1.0)
                       for c, p in zip(clone.params(), ps.params()))
