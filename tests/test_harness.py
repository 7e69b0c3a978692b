import csv
import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

import oracles
from metadapt import model, nn
from metadapt.corpus import (DataError, load_embeddings, load_jsonl_dataset, make_dataset,
                             split_classes)
from metadapt.episodes import EpisodeSpec, sample_episode
from metadapt import harness
from metadapt.harness import (TrainConfig, dump_attention,
                              dump_embeddings, evaluate_episodes,
                              gen_synthetic_corpus, keyword_token_ids,
                              load_checkpoint, meta_test, sample_eval_episodes,
                              save_checkpoint, train, write_corpus_files)
from metadapt.model import (DiscriminatorParams, EpisodeMetrics,
                            GeneratorParams, ModelConfig, encode)
from metadapt.nn import NumericalError
from oracles import assert_views, params_digest


def small_setup(corpus_seed=0, n_classes=8, per_class=10):
    ds, table, vocab = gen_synthetic_corpus(n_classes, per_class, 8, 2, 6, 12,
                                            seed=corpus_seed)
    split = split_classes(ds.classes, (4, 2, 2), np.random.default_rng(0))
    spec = EpisodeSpec(n_way=2, k_shot=1, l_query=2)
    mcfg = ModelConfig(dim=12, hidden=6, lam=0.5, max_len=8, disc_hidden=(12, 8))
    return ds, table, vocab, split, spec, mcfg


class TestSyntheticCorpus:
    def test_counts(self):
        ds, table, vocab = gen_synthetic_corpus(16, 50, 12, 2, 10, 16, seed=1)
        assert len(ds.examples) == 800
        assert len(ds.classes) == 16
        assert table.matrix.shape == (len(vocab), 16)

    def test_every_sentence_has_own_keyword(self):
        ds, table, vocab = gen_synthetic_corpus(6, 20, 10, 3, 8, 8, seed=2)
        kw = keyword_token_ids(vocab)
        for ex in ds.examples:
            assert any(t in kw[ex.label] for t in ex.token_ids)

    def test_keyword_sets_disjoint(self):
        ds, table, vocab = gen_synthetic_corpus(6, 5, 8, 3, 8, 8, seed=3)
        kw = keyword_token_ids(vocab)
        classes = sorted(kw)
        for i in classes:
            for j in classes:
                if i != j:
                    assert not kw[i] & kw[j]

    def test_no_foreign_keywords_in_sentences(self):
        ds, table, vocab = gen_synthetic_corpus(5, 10, 8, 2, 8, 8, seed=4)
        kw = keyword_token_ids(vocab)
        for ex in ds.examples:
            for c, ids in kw.items():
                if c != ex.label:
                    assert not set(ex.token_ids) & ids

    def test_unit_vector_embeddings(self):
        ds, table, vocab = gen_synthetic_corpus(4, 5, 8, 2, 8, 16, seed=5)
        norms = np.linalg.norm(table.matrix, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_deterministic(self):
        a = gen_synthetic_corpus(4, 5, 8, 2, 8, 16, seed=6)
        b = gen_synthetic_corpus(4, 5, 8, 2, 8, 16, seed=6)
        assert a[0].examples == b[0].examples
        assert np.array_equal(a[1].matrix, b[1].matrix)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            gen_synthetic_corpus(0, 5, 8, 2, 8, 16, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic_corpus(4, 5, 3, 2, 8, 16, seed=0)

    def test_round_trip_through_files(self, tmp_path):
        ds, table, vocab = gen_synthetic_corpus(4, 6, 8, 2, 6, 8, seed=7)
        corpus_path, vec_path = write_corpus_files(ds, table, tmp_path)
        ds2 = load_jsonl_dataset(corpus_path)
        assert len(ds2.examples) == len(ds.examples)
        assert len(ds2.classes) == len(ds.classes)
        table2 = load_embeddings(vec_path, ds2.vocab)
        assert table2.dim == table.dim
        assert table2.oov_count == 0
        # same text -> same embedding row, independent of id assignment
        for tok in ds.vocab.tokens:
            assert np.array_equal(table2.matrix[ds2.vocab.index[tok]],
                                  table.matrix[ds.vocab.index[tok]])


class TestTrain:
    def test_patience_zero_single_epoch(self, tmp_path):
        ds, table, vocab, split, spec, mcfg = small_setup()
        cfg = TrainConfig(spec=spec, epochs=5, episodes_per_epoch=4, patience=0,
                          seed=1, val_episodes=2, lr=0.01)
        res = train(ds, split, cfg, mcfg, table, out_dir=tmp_path)
        assert res.epochs_run == 1
        assert len(res.history) == 4
        with open(tmp_path / "metrics.jsonl") as fh:
            assert sum(1 for _ in fh) == 4

    def test_unservable_split_refused_before_output(self, tmp_path):
        ds, table, vocab, split, spec, mcfg = small_setup()   # 2 validation classes
        cfg = TrainConfig(spec=EpisodeSpec(n_way=3, k_shot=1, l_query=2), epochs=1,
                          episodes_per_epoch=1, val_episodes=1)
        with pytest.raises(ValueError, match="validation split: need 3 classes"):
            train(ds, split, cfg, mcfg, table, out_dir=tmp_path / "o")
        assert not (tmp_path / "o").exists()

    def test_history_bookkeeping(self):
        ds, table, vocab, split, spec, mcfg = small_setup()
        cfg = TrainConfig(spec=spec, epochs=3, episodes_per_epoch=5, patience=10,
                          seed=2, val_episodes=2, lr=0.01)
        res = train(ds, split, cfg, mcfg, table)
        assert res.epochs_run == 3
        assert len(res.history) == 15
        assert len(res.val_accuracies) == 3
        for i, rec in enumerate(res.history):
            assert rec.epoch == i // 5
            assert rec.episode == i % 5
            m = rec.metrics
            for v in (m.ridge_loss, m.disc_loss, m.gen_loss):
                assert math.isfinite(v)
            assert list(rec.to_dict()) == ["epoch", "episode", "ridge_loss", "disc_loss",
                                           "gen_loss", "query_accuracy", "wall_time"]
            assert rec.to_dict()["gen_loss"] == m.gen_loss

    def test_best_checkpoint_dominates_later_epochs(self):
        ds, table, vocab, split, spec, mcfg = small_setup()
        cfg = TrainConfig(spec=spec, epochs=4, episodes_per_epoch=5, patience=10,
                          seed=3, val_episodes=4, lr=0.01)
        res = train(ds, split, cfg, mcfg, table)
        best = res.val_accuracies[res.best_epoch]
        assert best == res.best_val_accuracy
        for later in res.val_accuracies[res.best_epoch + 1:]:
            assert best >= later

    def test_best_epoch_restored_in_place(self, tmp_path):
        # the best epoch (1) comes before the last (3): the returned sets
        # hold what a run stopped after the best epoch ends with, their
        # Params still views into their vectors, and the checkpoint agrees
        ds, table, vocab, split, spec, mcfg = small_setup()
        kw = dict(spec=spec, episodes_per_epoch=5, patience=10, seed=3, val_episodes=4,
                  lr=0.01)
        res = train(ds, split, TrainConfig(epochs=4, **kw), mcfg, table, out_dir=tmp_path)
        assert res.best_epoch == 1 and res.epochs_run == 4
        short = train(ds, split, TrainConfig(epochs=2, **kw), mcfg, table)
        gen, disc, _ = load_checkpoint(tmp_path / "checkpoint.json")
        for ps, want, loaded in ((res.gen, short.gen, gen), (res.disc, short.disc, disc)):
            assert_views(ps)
            assert np.array_equal(ps.values, want.values)
            assert np.array_equal(ps.values, loaded.values)

    def test_deterministic_runs(self, tmp_path):
        ds, table, vocab, split, spec, mcfg = small_setup()
        outs = []
        for name in ("a", "b"):
            cfg = TrainConfig(spec=spec, epochs=2, episodes_per_epoch=4, patience=10,
                              seed=4, val_episodes=2, lr=0.01)
            res = train(ds, split, cfg, mcfg, table, out_dir=tmp_path / name,
                        clock=lambda: 0.0)
            outs.append(res)
        assert params_digest(outs[0].gen.params()) == params_digest(outs[1].gen.params())
        assert (tmp_path / "a" / "metrics.jsonl").read_bytes() == \
            (tmp_path / "b" / "metrics.jsonl").read_bytes()
        assert (tmp_path / "a" / "checkpoint.json").read_bytes() == \
            (tmp_path / "b" / "checkpoint.json").read_bytes()

    def test_csv_summary_written(self, tmp_path):
        ds, table, vocab, split, spec, mcfg = small_setup()
        cfg = TrainConfig(spec=spec, epochs=2, episodes_per_epoch=3, patience=10,
                          seed=5, val_episodes=2, lr=0.01)
        train(ds, split, cfg, mcfg, table, out_dir=tmp_path)
        with open(tmp_path / "metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "ridge_loss", "disc_loss", "gen_loss",
                           "train_accuracy", "val_accuracy"]
        assert len(rows) == 3

    def test_non_finite_loss_aborts_with_diagnostic(self, tmp_path, monkeypatch):
        ds, table, vocab, split, spec, mcfg = small_setup()

        def poisoned(*args, **kwargs):
            return EpisodeMetrics(ridge_loss=float("nan"), disc_loss=0.0,
                                  gen_loss=0.0, query_accuracy=0.0)

        import metadapt.harness as H
        monkeypatch.setattr(H.model, "episode_update", poisoned)
        cfg = TrainConfig(spec=spec, epochs=1, episodes_per_epoch=2, patience=0,
                          seed=6, val_episodes=2, lr=0.01)
        with pytest.raises(NumericalError, match="non-finite"):
            train(ds, split, cfg, mcfg, table, out_dir=tmp_path)
        assert (tmp_path / "diagnostic_checkpoint.json").exists()

    def test_numerical_error_in_update_writes_diagnostic(self, tmp_path, monkeypatch):
        ds, table, vocab, split, spec, mcfg = small_setup()

        def failing(*args, **kwargs):
            raise NumericalError("non-finite inputs to ridge_fit")

        import metadapt.harness as H
        monkeypatch.setattr(H.model, "episode_update", failing)
        cfg = TrainConfig(spec=spec, epochs=1, episodes_per_epoch=2, patience=0,
                          seed=6, val_episodes=2, lr=0.01)
        with pytest.raises(NumericalError, match="ridge_fit at epoch 0 episode 0"):
            train(ds, split, cfg, mcfg, table, out_dir=tmp_path)
        gen, disc, cfg2 = load_checkpoint(tmp_path / "diagnostic_checkpoint.json")
        assert cfg2 == mcfg

    def test_no_adversarial_training_runs(self):
        ds, table, vocab, split, spec, _ = small_setup()
        mcfg = ModelConfig(dim=12, hidden=6, lam=0.5, max_len=8,
                           no_adversarial=True, disc_hidden=(12, 8))
        cfg = TrainConfig(spec=spec, epochs=2, episodes_per_epoch=3, patience=10,
                          seed=7, val_episodes=2, lr=0.01)
        res = train(ds, split, cfg, mcfg, table)
        assert all(rec.metrics.disc_loss == 0.0 for rec in res.history)


class TestMetaTest:
    def test_single_episode_ci_zero(self):
        ds, table, vocab, split, spec, mcfg = small_setup()
        gen = GeneratorParams.init(mcfg, np.random.default_rng(0))
        rep = meta_test(gen, mcfg, table, ds, split.test_classes, spec,
                        n_episodes=1, seeds=(0,))
        assert rep.ci95 == 0.0
        assert rep.std == 0.0
        assert len(rep.per_episode) == 1

    def test_never_touches_parameters(self):
        ds, table, vocab, split, spec, mcfg = small_setup()
        gen = GeneratorParams.init(mcfg, np.random.default_rng(1))
        g0 = params_digest(gen.params())
        meta_test(gen, mcfg, table, ds, split.test_classes, spec,
                  n_episodes=5, seeds=(0, 1))
        assert params_digest(gen.params()) == g0

    def test_small_class_reported_once(self, caplog):
        ds, table, vocab, split, spec, mcfg = small_setup()
        # class 8 holds 2 examples, one fewer than a 1-shot 2-query draw takes
        parsed = [(ex.token_ids, ex.label) for ex in ds.examples]
        parsed += [(ds.examples[0].token_ids, 8)] * 2
        ds = make_dataset(parsed, list(ds.label_names) + ["small"], vocab)
        gen = GeneratorParams.init(mcfg, np.random.default_rng(2))
        with caplog.at_level("WARNING"):
            rep = meta_test(gen, mcfg, table, ds, split.test_classes | {8}, spec,
                            n_episodes=400, seeds=(0,))
        assert len(rep.per_episode) == 400
        assert [r.getMessage() for r in caplog.records if "excluding" in r.getMessage()] == [
            "excluding 1 class(es) with fewer than 3 examples"]

    def test_disjointness_asserted(self):
        ds, table, vocab, split, spec, mcfg = small_setup()
        gen = GeneratorParams.init(mcfg, np.random.default_rng(2))
        with pytest.raises(ValueError, match="overlap"):
            meta_test(gen, mcfg, table, ds, split.test_classes, spec,
                      n_episodes=1, seeds=(0,),
                      train_classes=split.test_classes)

    def test_aggregates_over_seeds(self):
        ds, table, vocab, split, spec, mcfg = small_setup()
        gen = GeneratorParams.init(mcfg, np.random.default_rng(3))
        rep = meta_test(gen, mcfg, table, ds, split.test_classes, spec,
                        n_episodes=3, seeds=(0, 1, 2))
        assert len(rep.per_episode) == 9
        n = 9
        want_ci = 1.96 * rep.std / math.sqrt(n)
        assert abs(rep.ci95 - want_ci) < 1e-15

    def test_deterministic(self):
        ds, table, vocab, split, spec, mcfg = small_setup()
        gen = GeneratorParams.init(mcfg, np.random.default_rng(4))
        a = meta_test(gen, mcfg, table, ds, split.test_classes, spec,
                      n_episodes=4, seeds=(5,))
        b = meta_test(gen, mcfg, table, ds, split.test_classes, spec,
                      n_episodes=4, seeds=(5,))
        assert a.per_episode == b.per_episode


class TestDumps:
    def test_attention_dump_uniform_model(self, tmp_path):
        ds, table, vocab, split, spec, mcfg = small_setup()
        gen = GeneratorParams.init(mcfg, np.random.default_rng(5))
        gen.attn_w.value[:] = 0.0
        gen.attn_b.value[:] = 0.0
        ex = ds.examples[0]
        out = tmp_path / "attn.tsv"
        pairs = dump_attention(gen, mcfg, ex, table, vocab, out=out)
        m = len(ex.token_ids)
        assert len(pairs) == m
        for tok, w in pairs:
            assert abs(w - 1.0 / m) < 1e-12
        lines = out.read_text().strip().split("\n")
        assert len(lines) == m
        tok0, w0 = lines[0].split("\t")
        assert tok0 == vocab.tokens[ex.token_ids[0]]
        assert float(w0) == pairs[0][1]

    def test_attention_weights_sum_to_one(self):
        ds, table, vocab, split, spec, mcfg = small_setup()
        gen = GeneratorParams.init(mcfg, np.random.default_rng(6))
        for ex in ds.examples[:5]:
            pairs = dump_attention(gen, mcfg, ex, table, vocab)
            assert abs(sum(w for _, w in pairs) - 1.0) < 1e-9

    def test_embedding_dump_format_and_precision(self, tmp_path):
        ds, table, vocab, split, spec, mcfg = small_setup()
        gen = GeneratorParams.init(mcfg, np.random.default_rng(7))
        ep = sample_episode(ds, split.test_classes, spec,
                            np.random.default_rng(0), with_source=False)
        out = tmp_path / "emb.csv"
        dump_embeddings(gen, mcfg, ep, table, out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["label"] + [f"s{i + 1}" for i in range(mcfg.dim)]
        assert len(rows) - 1 == spec.n_way * spec.l_query
        for row, (ex, y) in zip(rows[1:], ep.query):
            assert int(row[0]) == y
            feat = encode(ex, gen, table, mcfg)[:-1]
            got = np.array([float(v) for v in row[1:]])
            assert np.array_equal(got, feat)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        ds, table, vocab, split, spec, mcfg = small_setup()
        rng = np.random.default_rng(8)
        gen = GeneratorParams.init(mcfg, rng)
        disc = DiscriminatorParams.init(mcfg.encoder_dim, mcfg.disc_hidden, rng)
        path = tmp_path / "ck.json"
        save_checkpoint(path, gen, disc, mcfg)
        gen2, disc2, cfg2 = load_checkpoint(path)
        assert cfg2 == mcfg
        assert params_digest(gen2.params()) == params_digest(gen.params())
        assert params_digest(disc2.params()) == params_digest(disc.params())
        assert_views(gen2)
        assert_views(disc2)
        assert [act for _, _, act in disc2.layers] == ["relu", "relu", "linear"]

    def test_round_trip_with_proj(self, tmp_path):
        mcfg = ModelConfig(dim=6, hidden=4, lam=1.0, no_adversarial=True,
                           max_len=8, disc_hidden=(8, 8))
        rng = np.random.default_rng(9)
        gen = GeneratorParams.init(mcfg, rng)
        disc = DiscriminatorParams.init(mcfg.encoder_dim, mcfg.disc_hidden, rng)
        path = tmp_path / "ck.json"
        save_checkpoint(path, gen, disc, mcfg)
        gen2, _, cfg2 = load_checkpoint(path)
        assert cfg2.no_adversarial
        assert gen2.proj_w is not None
        assert np.array_equal(gen2.proj_w.value, gen.proj_w.value)

    @pytest.mark.parametrize("variant", ["default", "concat_fusion", "no_adversarial"])
    def test_save_load_save_identical(self, variant, tmp_path):
        mcfg = variant_cfg(variant)
        rng = np.random.default_rng(15)
        gen = GeneratorParams.init(mcfg, rng)
        disc = DiscriminatorParams.init(mcfg.encoder_dim, mcfg.disc_hidden, rng)
        save_checkpoint(tmp_path / "a.json", gen, disc, mcfg)
        save_checkpoint(tmp_path / "b.json", *load_checkpoint(tmp_path / "a.json"))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestCheckpointContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        mcfg = variant_cfg("default")
        rng = np.random.default_rng(19)
        gen = GeneratorParams.init(mcfg, rng)
        disc = DiscriminatorParams.init(mcfg.encoder_dim, mcfg.disc_hidden, rng)
        gen.values[...] = rng.normal(size=gen.values.size) * 1e-13
        disc.values[...] = rng.normal(size=disc.values.size) * 1e13
        disc.values[:3] = (math.pi, -0.1, 1 / 3)
        path = tmp_path / "ck.json"
        save_checkpoint(path, gen, disc, mcfg)
        gen2, disc2, cfg2 = load_checkpoint(path)
        assert cfg2 == mcfg
        assert gen2.values.tobytes() == gen.values.tobytes()
        assert disc2.values.tobytes() == disc.values.tobytes()

    @pytest.mark.parametrize("variant", ["default", "concat_fusion", "no_adversarial"])
    def test_streamed_bytes_equal_one_dump(self, variant, tmp_path):
        mcfg = variant_cfg(variant)
        rng = np.random.default_rng(34)
        gen = GeneratorParams.init(mcfg, rng)
        disc = DiscriminatorParams.init(mcfg.encoder_dim, mcfg.disc_hidden, rng)
        path = tmp_path / "ck.json"
        save_checkpoint(path, gen, disc, mcfg)
        want = oracles.checkpoint_json({**gen.named_arrays(), **disc.named_arrays()},
                                       dataclasses.asdict(mcfg))
        assert path.read_bytes() == want.encode("utf-8")

    def test_version_checked(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text('{"format_version": 99, "arrays": {}}')
        with pytest.raises(DataError, match="unsupported checkpoint format version 99"):
            load_checkpoint(path)

    def test_malformed_container(self, tmp_path):
        path = tmp_path / "ck.json"
        for text, match in (("[]", "container"),
                            ('{"format_version": 1, "arrays": []}', "container"),
                            ('{"format_version": 1, "arrays": {"a": {"shape": [2]}}}',
                             "malformed array a"),
                            ('{"format_version": 1, "arrays": {"a": {"shape": [2], '
                             '"data": [1.0, 2.0, 3.0]}}}', "malformed array a")):
            path.write_text(text)
            with pytest.raises(DataError, match=match):
                load_checkpoint(path)

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{nope")
        with pytest.raises(DataError, match="invalid checkpoint JSON"):
            load_checkpoint(path)


class TestEvaluateEpisodes:
    def test_matches_meta_test_single_seed(self):
        ds, table, vocab, split, spec, mcfg = small_setup()
        gen = GeneratorParams.init(mcfg, np.random.default_rng(10))
        episodes = sample_eval_episodes(ds, split.test_classes, spec, 6,
                                        np.random.default_rng(42))
        accs = evaluate_episodes(gen, mcfg, table, episodes)
        rep = meta_test(gen, mcfg, table, ds, split.test_classes, spec,
                        n_episodes=6, seeds=(42,))
        assert tuple(accs) == rep.per_episode


VARIANTS = {"default": {}, "concat_fusion": {"concat_fusion": True},
            "no_adversarial": {"no_adversarial": True}}


def variant_cfg(variant):
    return ModelConfig(dim=12, hidden=6, lam=0.5, max_len=8, disc_hidden=(12, 8),
                       **VARIANTS[variant])


def sampled_episodes(ds, classes, spec, n_episodes, seeds):
    """The episodes meta_test samples for these seeds, in its order."""
    out = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        out += [sample_episode(ds, classes, spec, rng, with_source=False)
                for _ in range(n_episodes)]
    return out


def oracle_accuracies(gen, mcfg, table, episodes):
    return tuple(oracles.episode_accuracy(ep, gen, mcfg, table) for ep in episodes)


class TestEvaluationMemo:
    """Evaluation encodes each distinct example once per call and fits every
    head in one stacked dual solve; the accuracies must equal those of
    encoding every sentence of every episode afresh and fitting each head
    in the primal form."""

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_meta_test_matches_oracle(self, variant):
        ds, table, vocab, split, spec, _ = small_setup()
        mcfg = variant_cfg(variant)
        gen = GeneratorParams.init(mcfg, np.random.default_rng(11))
        rep = meta_test(gen, mcfg, table, ds, split.test_classes, spec,
                        n_episodes=8, seeds=(3, 4))
        episodes = sampled_episodes(ds, split.test_classes, spec, 8, (3, 4))
        assert rep.per_episode == oracle_accuracies(gen, mcfg, table, episodes)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_train_matches_oracle_validation(self, variant, tmp_path, monkeypatch):
        ds, table, vocab, split, spec, _ = small_setup()
        mcfg = variant_cfg(variant)
        cfg = TrainConfig(spec=spec, epochs=3, episodes_per_epoch=3, patience=5,
                          seed=2, val_episodes=4, lr=0.05)
        memo = train(ds, split, cfg, mcfg, table, out_dir=tmp_path / "memo",
                     clock=lambda: 0.0)
        monkeypatch.setattr(harness, "evaluate_episodes",
                            lambda gen, mcfg, table, episodes:
                            list(oracle_accuracies(gen, mcfg, table, episodes)))
        oracle = train(ds, split, cfg, mcfg, table, out_dir=tmp_path / "oracle",
                       clock=lambda: 0.0)
        assert memo.val_accuracies == oracle.val_accuracies
        for name in ("checkpoint.json", "metrics.jsonl", "metrics.csv"):
            assert (tmp_path / "memo" / name).read_bytes() == \
                (tmp_path / "oracle" / name).read_bytes()

    def test_encodes_each_distinct_example_once(self, monkeypatch):
        ds, table, vocab, split, spec, mcfg = small_setup()
        gen = GeneratorParams.init(mcfg, np.random.default_rng(12))
        calls = []   # one embed_sentence call per sentence encoded
        real = model.embed_sentence

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(model, "embed_sentence", counting)
        meta_test(gen, mcfg, table, ds, split.test_classes, spec,
                  n_episodes=10, seeds=(5, 6))
        episodes = sampled_episodes(ds, split.test_classes, spec, 10, (5, 6))
        sampled = [i for ep in episodes for i in ep.support_indices + ep.query_indices]
        assert len(sampled) > len(set(sampled))  # examples recur across episodes
        assert len(calls) == len(set(sampled))

    def test_encode_batches_hold_at_most_one_training_batch(self, monkeypatch):
        # a training episode of the same shape (2-way 1-shot 2-query)
        # encodes N(K+2L) = 10 sentences in one pass, N(K+L) = 6 without
        # its source set under no_adversarial
        ds, table, vocab, split, spec, _ = small_setup()
        index = {id(ex): i for i, ex in enumerate(ds.examples)}
        batches = []   # dataset indices of every gen_forward call's sentences
        real = model.gen_forward

        def recording(examples, *args, **kwargs):
            assert kwargs == {"cache": False}
            batches.append([index[id(ex)] for ex in examples])
            return real(examples, *args, **kwargs)

        monkeypatch.setattr(model, "gen_forward", recording)
        for variant, bound in (("default", 10), ("no_adversarial", 6)):
            mcfg = variant_cfg(variant)
            gen = GeneratorParams.init(mcfg, np.random.default_rng(17))
            batches.clear()
            meta_test(gen, mcfg, table, ds, split.test_classes, spec,
                      n_episodes=10, seeds=(5, 6))
            episodes = sampled_episodes(ds, split.test_classes, spec, 10, (5, 6))
            distinct = list(dict.fromkeys(i for ep in episodes
                                          for i in ep.support_indices + ep.query_indices))
            # each example once, in first-seen order over both seeds; only
            # the last batch may be short, so batches span the seeds
            assert [i for b in batches for i in b] == distinct
            assert len(batches) > 1 and all(len(b) == bound for b in batches[:-1])
            assert len(batches[-1]) <= bound

    def test_seeds_share_one_call_in_seed_order(self, monkeypatch):
        ds, table, vocab, split, spec, mcfg = small_setup()
        gen = GeneratorParams.init(mcfg, np.random.default_rng(18))
        alone = [meta_test(gen, mcfg, table, ds, split.test_classes, spec,
                           n_episodes=6, seeds=(seed,)).per_episode for seed in (3, 4, 5)]
        calls = []
        real = harness.evaluate_episodes

        def counting(*args):
            calls.append(len(args[3]))
            return real(*args)

        monkeypatch.setattr(harness, "evaluate_episodes", counting)
        rep = meta_test(gen, mcfg, table, ds, split.test_classes, spec,
                        n_episodes=6, seeds=(3, 4, 5))
        assert calls == [18]
        assert rep.per_episode == alone[0] + alone[1] + alone[2]

    def test_invalid_later_seed_raises_before_encoding(self, monkeypatch):
        ds, table, vocab, split, spec, mcfg = small_setup()
        gen = GeneratorParams.init(mcfg, np.random.default_rng(19))
        calls = []
        real = model.embed_sentence

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(model, "embed_sentence", counting)
        with pytest.raises(ValueError):
            meta_test(gen, mcfg, table, ds, split.test_classes, spec,
                      n_episodes=4, seeds=(1, -1))
        assert calls == []

    def test_train_samples_each_validation_episode_once(self, monkeypatch):
        ds, table, vocab, split, spec, mcfg = small_setup()
        draws = []
        real = harness.sample_episode

        def counting(*args, **kwargs):
            draws.append(kwargs.get("with_source", True))
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "sample_episode", counting)
        cfg = TrainConfig(spec=spec, epochs=3, episodes_per_epoch=4, patience=10,
                          seed=8, val_episodes=5, lr=0.01)
        assert train(ds, split, cfg, mcfg, table).epochs_run == 3
        assert len(draws) == 3 * 4 + 5
        assert draws.count(False) == 5   # the validation episodes carry no source set

    def test_tables_hold_one_batch(self, monkeypatch):
        # each batch projects its own distinct tokens, so a token table has
        # at most one batch's distinct tokens + 1 rows, whatever the call's size
        ds, table, vocab, split, spec, mcfg = small_setup()
        gen = GeneratorParams.init(mcfg, np.random.default_rng(15))
        projected = []   # (inputs, table rows) of every nn.project_inputs call
        real = nn.project_inputs

        def recording(E, p):
            P = real(E, p)
            projected.append((E.copy(), P.shape[0]))
            return P

        monkeypatch.setattr(nn, "project_inputs", recording)
        episodes = sampled_episodes(ds, split.test_classes, spec, 10, (6,))
        evaluate_episodes(gen, mcfg, table, episodes)
        # the sentences of a training episode: support, query and source
        batch = len(episodes[0].support) + 2 * len(episodes[0].query)
        pending = list(dict.fromkeys(i for ep in episodes
                                     for i in ep.support_indices + ep.query_indices))
        chunks = [pending[s:s + batch] for s in range(0, len(pending), batch)]
        assert len(chunks) > 1 and len(projected) == 2 * len(chunks)   # one per direction
        for k, chunk in enumerate(chunks):
            tokens = sorted({t for i in chunk for t in ds.examples[i].token_ids})
            for E, n_rows in projected[2 * k:2 * k + 2]:
                assert np.array_equal(E, table.matrix[tokens])
                assert n_rows == len(tokens) + 1

    def test_no_features_outlive_a_call(self, monkeypatch):
        ds, table, vocab, split, spec, mcfg = small_setup()
        gen = GeneratorParams.init(mcfg, np.random.default_rng(13))
        episodes = sampled_episodes(ds, split.test_classes, spec, 10, (9,))
        tables = []   # weak references to every token table made
        real = nn.project_inputs

        def watched(E, p):
            P = real(E, p)
            tables.append(weakref.ref(P))
            return P

        monkeypatch.setattr(nn, "project_inputs", watched)
        accs = []
        for step in range(2):
            accs.append(tuple(evaluate_episodes(gen, mcfg, table, episodes)))
            assert accs[-1] == oracle_accuracies(gen, mcfg, table, episodes)
            gc.collect()
            assert tables and all(r() is None for r in tables)
            perturb = np.random.default_rng(14)
            for p in gen.params():
                p.value += perturb.normal(scale=0.5, size=p.value.shape)
        assert accs[0] != accs[1]  # the perturbation shows in the accuracies
