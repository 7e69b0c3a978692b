"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (run with -s to
see them).  The end-to-end criteria share one trained model via module-scoped
fixtures, so the whole module runs in a few minutes.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from metadapt import nn
from metadapt.corpus import gen_synthetic_corpus, keyword_token_ids, split_classes
from metadapt.episodes import EpisodeSpec, relabel, sample_episode
from metadapt.harness import TrainConfig, meta_test, run_gradient_checks, train
from metadapt.model import (DiscriminatorParams, GeneratorParams, ModelConfig,
                            RidgeClassifier, attention_weights,
                            discriminator_loss_and_grads, domain_loss,
                            episode_forward, fit_episode_classifier,
                            generator_loss_and_grads, ridge_fit)
from metadapt.nn import AdamState, adam_step, softmax_cross_entropy
from oracles import params_digest, ridge_grad

LN2 = 0.6931471805599453
LN5 = 1.6094379124341003


def check(criterion, ok, detail):
    print(f"\nacceptance criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared end-to-end setup (criteria 3, 4, 6, 7, 9)


@dataclass
class LearningSetup:
    dataset: object
    table: object
    vocab: object
    split: object
    spec: EpisodeSpec
    model_cfg: ModelConfig
    train_cfg: TrainConfig


@pytest.fixture(scope="module")
def setup():
    ds, table, vocab = gen_synthetic_corpus(
        n_classes=24, examples_per_class=50, sentence_len=12,
        keywords_per_class=2, vocab_noise_size=6, d=32, seed=103)
    split = split_classes(ds.classes, (16, 4, 4), np.random.default_rng(0))
    spec = EpisodeSpec(n_way=4, k_shot=1, l_query=5)
    model_cfg = ModelConfig(dim=32, hidden=16, lam=0.1, max_len=12)
    train_cfg = TrainConfig(spec=spec, epochs=15, episodes_per_epoch=20,
                            patience=20, seed=7, val_episodes=30, lr=0.03)
    return LearningSetup(ds, table, vocab, split, spec, model_cfg, train_cfg)


@dataclass
class TrainedRun:
    result: object
    out_dir: object
    elapsed: float


def _train_once(s: LearningSetup, out_dir, seed=None, **model_kw):
    model_cfg = s.model_cfg
    if model_kw:
        model_cfg = ModelConfig(dim=32, hidden=16, lam=0.1, max_len=12, **model_kw)
    train_cfg = s.train_cfg
    if seed is not None and seed != train_cfg.seed:
        train_cfg = TrainConfig(spec=s.spec, epochs=15, episodes_per_epoch=20,
                                patience=20, seed=seed, val_episodes=30, lr=0.03)
    t0 = time.perf_counter()
    res = train(s.dataset, s.split, train_cfg, model_cfg, s.table,
                out_dir=out_dir, clock=lambda: 0.0)
    return TrainedRun(result=res, out_dir=out_dir, elapsed=time.perf_counter() - t0)


@pytest.fixture(scope="module")
def trained(setup, tmp_path_factory):
    return _train_once(setup, tmp_path_factory.mktemp("trained"))


def test_criterion_1_gradient_fidelity():
    t0 = time.perf_counter()
    errs = run_gradient_checks(seed=0, n_coords=200)
    elapsed = time.perf_counter() - t0
    ok = all(e < 1e-5 for e in errs.values()) and elapsed < 30.0
    check(1, ok, "disc %.3e, gen %.3e, %.1fs" % (errs["disc_loss_wrt_mu"],
                                                 errs["gen_loss_wrt_beta"], elapsed))


def test_criterion_2_ridge_oracle():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_grad = 0.0
    for _ in range(20):
        m = int(rng.integers(3, 13))
        p = int(rng.integers(2, 9))
        n = int(rng.integers(2, 5))
        lam = float(rng.uniform(0.05, 2.0))
        X = rng.normal(size=(m, p))
        Y = nn.one_hot(rng.integers(0, n, size=m), n)
        clf = ridge_fit(X, Y, lam)
        # independent oracle: 50k plain gradient-descent steps at 1/L, each
        # theta <- theta - lr * grad written as theta <- M theta + c
        theta = np.zeros((p, n))
        lr = 1.0 / (np.linalg.norm(X, 2) ** 2 / m + lam)
        M = np.eye(p) - lr * (X.T @ X / m + lam * np.eye(p))
        c = lr * (X.T @ Y) / m
        for _ in range(50_000):
            theta = M @ theta + c
        worst_gap = max(worst_gap, float(np.abs(clf.theta - theta).max()))
        worst_grad = max(worst_grad, float(np.abs(ridge_grad(X, Y, clf)).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_gap < 1e-6 and worst_grad < 1e-8 and elapsed < 10.0
    check(2, ok, "max |closed-gd| %.2e, max grad %.2e, %.1fs"
          % (worst_gap, worst_grad, elapsed))


def test_criterion_3_episode_protocol(setup):
    s = setup
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    violations = 0
    n_sup = s.spec.n_way * s.spec.k_shot
    n_qry = s.spec.n_way * s.spec.l_query
    for _ in range(10_000):
        ep = sample_episode(s.dataset, s.split.train_classes, s.spec, rng)
        if not (len(ep.support) == n_sup and len(ep.query) == n_qry
                and len(ep.source) == n_qry):
            violations += 1
            continue
        if set(ep.support_indices) & set(ep.query_indices):
            violations += 1
            continue
        mapping = relabel(ep)
        sup_counts = [0] * s.spec.n_way
        qry_counts = [0] * s.spec.n_way
        for _, y in ep.support:
            sup_counts[y] += 1
        for _, y in ep.query:
            qry_counts[y] += 1
        if (sup_counts != [s.spec.k_shot] * s.spec.n_way
                or qry_counts != [s.spec.l_query] * s.spec.n_way):
            violations += 1
            continue
        if any(ex.label in mapping for ex in ep.source):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10.0
    check(3, ok, "10,000 episodes, %d violations, %.1fs" % (violations, elapsed))


def test_criterion_4_phase_isolation(setup):
    s = setup
    rng = np.random.default_rng(404)
    init_rng = np.random.default_rng(44)
    gen = GeneratorParams.init(s.model_cfg, init_rng)
    disc = DiscriminatorParams.init(s.model_cfg.encoder_dim,
                                    s.model_cfg.disc_hidden, init_rng)
    opt_g, opt_d = AdamState(lr=0.01), AdamState(lr=0.01)
    violations = 0
    for _ in range(50):
        ep = sample_episode(s.dataset, s.split.train_classes, s.spec, rng)
        fwd = episode_forward(ep, gen, s.model_cfg, s.table)
        g0, d0 = params_digest(gen.params()), params_digest(disc.params())

        clf, _ = fit_episode_classifier(fwd, s.model_cfg.lam)
        if params_digest(gen.params()) != g0 or params_digest(disc.params()) != d0:
            violations += 1
        theta0 = clf.theta.copy()

        discriminator_loss_and_grads(fwd, disc)
        adam_step(opt_d, disc.values, disc.grads)
        d1 = params_digest(disc.params())
        if params_digest(gen.params()) != g0 or d1 == d0 \
                or not np.array_equal(clf.theta, theta0):
            violations += 1

        generator_loss_and_grads(fwd, clf, gen, disc, s.model_cfg)
        adam_step(opt_g, gen.values, gen.grads)
        if params_digest(disc.params()) != d1 or params_digest(gen.params()) == g0 \
                or not np.array_equal(clf.theta, theta0):
            violations += 1
    check(4, violations == 0, "50 episode updates, %d violations" % violations)


def test_criterion_5_analytic_anchors(setup):
    s = setup
    # chance discriminator: all-zero weights score every sample 0.5
    disc = DiscriminatorParams.init(s.model_cfg.encoder_dim,
                                    s.model_cfg.disc_hidden,
                                    np.random.default_rng(55))
    for w, b in disc.layers:
        w.value[:] = 0.0
        b.value[:] = 0.0
    rng = np.random.default_rng(505)
    q = [rng.normal(size=s.model_cfg.dim) for _ in range(10)]
    src = [rng.normal(size=s.model_cfg.dim) for _ in range(10)]
    ld_gap = abs(domain_loss(np.vstack(q + src), [0] * 10 + [1] * 10, disc)[0] - LN2)

    ce_gap = abs(softmax_cross_entropy(np.zeros((1, 5)), [3])[0] - LN5)
    # and through the ridge path: a zero-weight classifier yields uniform scores
    clf = RidgeClassifier(theta=np.zeros((s.model_cfg.dim + 1, 5)), lam=1.0)
    from metadapt.model import ridge_predict, with_bias
    scores = ridge_predict(clf, with_bias(q[0]))
    ce_gap = max(ce_gap, abs(softmax_cross_entropy(scores[None], [0])[0] - LN5))

    ok = ld_gap < 1e-9 and ce_gap < 1e-9
    check(5, ok, "|L_D - ln2| = %.1e, |CE - ln5| = %.1e" % (ld_gap, ce_gap))


def test_criterion_6_end_to_end_learning(setup, trained):
    s = setup
    t0 = time.perf_counter()
    res = trained.result

    untrained = GeneratorParams.init(s.model_cfg, np.random.default_rng(7))
    rep0 = meta_test(untrained, s.model_cfg, s.table, s.dataset,
                     s.split.test_classes, s.spec, n_episodes=200, seeds=(11,))
    rep1 = meta_test(res.gen, s.model_cfg, s.table, s.dataset,
                     s.split.test_classes, s.spec, n_episodes=200, seeds=(11,),
                     train_classes=s.split.train_classes)

    kw = keyword_token_ids(s.vocab)
    hits = total = 0
    for c in sorted(s.split.test_classes):
        for i in s.dataset.class_index[c]:
            ex = s.dataset.examples[i]
            k = attention_weights(ex, res.gen, s.table, s.model_cfg)
            hits += ex.token_ids[int(np.argmax(k))] in kw[c]
            total += 1
    hit_rate = hits / total

    elapsed = trained.elapsed + (time.perf_counter() - t0)
    gain = rep1.mean_accuracy - rep0.mean_accuracy
    # training curve sanity: validation accuracy after 10 epochs beats epoch 0
    curve_ok = res.val_accuracies[10] > res.val_accuracies[0]
    ok = (rep1.mean_accuracy >= 0.75 and gain >= 0.30 and hit_rate >= 0.70
          and curve_ok and elapsed < 600.0)
    check(6, ok, "trained %.3f, untrained %.3f (+%.1f pts), "
          "keyword hit rate %.2f, %.0fs"
          % (rep1.mean_accuracy, rep0.mean_accuracy, 100 * gain, hit_rate, elapsed))


def test_criterion_7_ablation_ordering(setup, trained, tmp_path_factory):
    s = setup
    t0 = time.perf_counter()
    seeds = (7, 8, 9)

    def mean_acc(runs):
        accs = []
        for r in runs:
            rep = meta_test(r.result.gen, r.result.model_cfg, s.table, s.dataset,
                            s.split.test_classes, s.spec, n_episodes=200, seeds=(11,))
            accs.append(rep.mean_accuracy)
        return float(np.mean(accs))

    full_runs = [trained] + [
        _train_once(s, tmp_path_factory.mktemp(f"full{seed}"), seed=seed)
        for seed in seeds[1:]]
    noadv_runs = [_train_once(s, tmp_path_factory.mktemp(f"noadv{seed}"),
                              seed=seed, no_adversarial=True) for seed in seeds]
    concat_runs = [_train_once(s, tmp_path_factory.mktemp(f"concat{seed}"),
                               seed=seed, concat_fusion=True) for seed in seeds]

    full = mean_acc(full_runs)
    noadv = mean_acc(noadv_runs)
    concat = mean_acc(concat_runs)
    elapsed = (time.perf_counter() - t0) + trained.elapsed
    ok = full >= noadv and full >= concat and elapsed < 1800.0
    check(7, ok, "full %.3f >= no_adversarial %.3f and >= concat_fusion %.3f, %.0fs"
          % (full, noadv, concat, elapsed))


def test_criterion_8_chance_level_sanity():
    # keywords outnumber their occurrences, so support and query of a class
    # essentially never share one: an untrained encoder sees pure noise
    ds, table, vocab = gen_synthetic_corpus(
        n_classes=8, examples_per_class=60, sentence_len=12,
        keywords_per_class=200, vocab_noise_size=100, d=32, seed=5)
    cfg = ModelConfig(dim=32, hidden=16, lam=0.1, max_len=12)
    gen = GeneratorParams.init(cfg, np.random.default_rng(0))
    spec = EpisodeSpec(n_way=5, k_shot=1, l_query=5)
    rep = meta_test(gen, cfg, table, ds, ds.classes, spec,
                    n_episodes=1000, seeds=(0,))
    ok = abs(rep.mean_accuracy - 0.20) <= 0.03
    check(8, ok, "untrained 5-way accuracy %.4f over 1000 episodes"
          % rep.mean_accuracy)


def test_criterion_9_determinism(setup, trained, tmp_path_factory):
    rerun = _train_once(setup, tmp_path_factory.mktemp("rerun"))
    same_metrics = ((trained.out_dir / "metrics.jsonl").read_bytes()
                    == (rerun.out_dir / "metrics.jsonl").read_bytes())
    same_ckpt = ((trained.out_dir / "checkpoint.json").read_bytes()
                 == (rerun.out_dir / "checkpoint.json").read_bytes())
    same_params = (params_digest(trained.result.gen.params())
                   == params_digest(rerun.result.gen.params()))
    ok = same_metrics and same_ckpt and same_params
    check(9, ok, "metrics files identical: %s, checkpoints identical: %s"
          % (same_metrics, same_ckpt))
