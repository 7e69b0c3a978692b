import math

import numpy as np
import pytest

from metadapt import model, nn
from metadapt.corpus import (EmbeddingTable, Example, Vocab, embed_sentence,
                             make_dataset)
from metadapt.episodes import EpisodeSpec, sample_episode
from metadapt.harness import _tiny_instance, gen_synthetic_corpus
from metadapt.model import (DiscriminatorParams, EpisodeForward, GeneratorParams,
                            ModelConfig, RidgeClassifier,
                            discriminator_loss_and_grads, domain_loss, encode,
                            episode_accuracy, episode_forward, episode_update,
                            fit_episode_classifier, fuse, fuse_concat,
                            gen_forward, generate_attention,
                            generator_loss_and_grads, ridge_fit, ridge_grad,
                            ridge_loss, ridge_predict, update_discriminator,
                            update_generator, with_bias)
from metadapt.nn import AdamState, LstmParams, params_digest
from oracles import cross_entropy, disc_loss, discriminate, gen_loss
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
    for w, b, _ in disc.layers:
        w.value[:] = 0.0
        b.value[:] = 0.0
    return disc


class TestGenerateAttention:
    def test_zero_projection_uniform(self):
        rng = np.random.default_rng(0)
        cfg = small_cfg()
        gen = GeneratorParams.init(cfg, rng)
        gen.attn_w.value[:] = 0.0
        gen.attn_b.value[:] = 0.0
        W = rng.normal(size=(cfg.dim, 5))
        k, _ = generate_attention(W, gen)
        assert np.abs(k - 0.2).max() < 1e-15

    def test_single_position(self):
        rng = np.random.default_rng(1)
        cfg = small_cfg()
        gen = GeneratorParams.init(cfg, rng)
        k, _ = generate_attention(rng.normal(size=(cfg.dim, 1)), gen)
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
        k, _ = generate_attention(W, gen)
        m = W.shape[1]
        for i in range(m):
            assert abs(k[i] - k[m - 1 - i]) < 1e-12

    def test_distribution_invariant(self):
        rng = np.random.default_rng(3)
        cfg = small_cfg()
        gen = GeneratorParams.init(cfg, rng)
        for m in (1, 2, 7):
            k, _ = generate_attention(rng.normal(size=(cfg.dim, m)), gen)
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

    def test_bad_lambda(self):
        with pytest.raises(ValueError):
            ridge_fit(np.ones((2, 2)), np.ones((2, 2)), lam=0.0)

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
        (w1, b1, _), (w2, b2, _), (w3, b3, _) = disc.layers
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
        w1, b1, _ = disc.layers[0]
        w2, b2, _ = disc.layers[1]
        w3, b3, _ = disc.layers[2]
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
        swapped = disc.clone()
        w3, b3, act = swapped.layers[2]
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
        def enc(ex):
            return gen_forward(embed_sentence(ex, table), gen, cfg)
        fwd = EpisodeForward(support_feats=[], support_labels=np.zeros(0, dtype=np.intp),
                             query=[enc(ex) for ex, _ in items],
                             query_labels=np.array([y for _, y in items]),
                             source=[enc(ex) for ex in source], n_way=clf.theta.shape[1])
        return generator_loss_and_grads(fwd, clf, gen, disc, cfg)[0]

    def test_chance_discriminator_decomposition(self):
        cfg, gen, items, source, table = self.setup_episode()
        disc = zero_disc(cfg)
        rng = np.random.default_rng(20)
        clf = RidgeClassifier(theta=rng.normal(size=(cfg.dim + 1, 5)), lam=1.0)
        got = self.batched(items, source, clf, gen, disc, cfg, table)
        ce = np.mean([cross_entropy(
            ridge_predict(clf, with_bias(gen_forward(embed_sentence(ex, table), gen, cfg)[0])), y)
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
        q_embs = [gen_forward(embed_sentence(ex, table), gen, cfg)[0] for ex, _ in items]
        s_embs = [gen_forward(embed_sentence(ex, table), gen, cfg)[0] for ex in source]
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
            q = [gen_forward(embed_sentence(ex, table), gen, cfg)[0] for ex, _ in episode.query]
            s = [gen_forward(embed_sentence(ex, table), gen, cfg)[0] for ex in episode.source]
            assert abs(discriminator_loss_and_grads(fwd, disc) - disc_loss(q, s, disc)) < 1e-12


class TestEpisodePhases:
    def make(self, seed=0, **cfg_kw):
        episode, gen, disc, cfg, table = _tiny_instance(seed, **cfg_kw)
        return episode, gen, disc, cfg, table

    def test_phase_isolation(self):
        episode, gen, disc, cfg, table = self.make()
        opt_g, opt_d = AdamState(lr=1e-3), AdamState(lr=1e-3)

        fwd = episode_forward(episode, gen, cfg, table)
        g0, d0 = params_digest(gen.params()), params_digest(disc.params())

        clf, l_rr = fit_episode_classifier(fwd, cfg.lam)
        assert params_digest(gen.params()) == g0
        assert params_digest(disc.params()) == d0
        assert math.isfinite(l_rr)

        l_d = update_discriminator(fwd, disc, opt_d)
        assert params_digest(gen.params()) == g0
        d1 = params_digest(disc.params())
        assert d1 != d0
        theta_before = clf.theta.copy()

        l_g, acc = update_generator(fwd, clf, gen, disc, cfg, opt_g)
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
        for p in disc.params():
            p.value -= 1e-4 * p.grad
            p.zero_grad()
        after = discriminator_loss_and_grads(fwd, disc)
        assert after < before

        loss0, _ = generator_loss_and_grads(fwd, clf, gen, disc, cfg)
        for p in gen.params():
            p.value -= 1e-4 * p.grad
            p.zero_grad()
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
        calls = []
        real = model.gen_forward

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

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
        features = {}
        acc1 = episode_accuracy(episode, gen, cfg, table, features)
        assert features.keys() == set(episode.support_indices + episode.query_indices)
        acc2 = episode_accuracy(episode, gen, cfg, table, features)  # memo hits only
        assert acc1 == acc2 == oracle_episode_accuracy(episode, gen, cfg, table)
        assert 0.0 <= acc1 <= 1.0
        assert params_digest(gen.params()) == g0


class TestEncode:
    def test_default_is_fuse_of_attention(self):
        rng = np.random.default_rng(22)
        ds, table, vocab = gen_synthetic_corpus(3, 4, 6, 1, 8, 6, seed=22)
        cfg = small_cfg()
        gen = GeneratorParams.init(cfg, rng)
        ex = ds.examples[0]
        W = embed_sentence(ex, table)
        k, _ = generate_attention(W, gen)
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


class TestCheckpointRoundTrip:
    def test_named_arrays_reconstruct(self):
        rng = np.random.default_rng(25)
        cfg = small_cfg()
        gen = GeneratorParams.init(cfg, rng)
        disc = DiscriminatorParams.init(cfg.encoder_dim, cfg.disc_hidden, rng)
        arrays = dict(gen.named_arrays())
        arrays.update(disc.named_arrays())
        gen2 = GeneratorParams.from_named_arrays(arrays)
        disc2 = DiscriminatorParams.from_named_arrays(arrays)
        assert params_digest(gen2.params()) == params_digest(gen.params())
        assert params_digest(disc2.params()) == params_digest(disc.params())
        assert [a for _, _, a in disc2.layers] == ["relu", "relu", "linear"]
