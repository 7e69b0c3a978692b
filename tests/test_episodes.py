import itertools

import numpy as np
import pytest

from metadapt.corpus import gen_synthetic_corpus, make_dataset, Vocab
from metadapt.episodes import (Episode, EpisodeSpec, check_classes, relabel,
                               sample_episode)
import oracles


def toy_dataset(n_classes=6, per_class=8, tokens=5):
    vocab = Vocab.from_tokens([f"t{i}" for i in range(10)])
    rng = np.random.default_rng(0)
    parsed = []
    for c in range(n_classes):
        for _ in range(per_class):
            ids = tuple(int(i) for i in rng.integers(0, 10, size=tokens))
            parsed.append((ids, c))
    return make_dataset(parsed, [f"c{i}" for i in range(n_classes)], vocab)


def sized_dataset(sizes):
    """Class c holds sizes[c] one-token examples."""
    parsed = [((0,), c) for c, n in enumerate(sizes) for _ in range(n)]
    return make_dataset(parsed, [f"c{c}" for c in range(len(sizes))],
                        Vocab.from_tokens(["t0"]))


class TestEpisodeSpec:
    def test_n_way_one_rejected(self):
        with pytest.raises(ValueError):
            EpisodeSpec(n_way=1, k_shot=1, l_query=1)

    def test_zero_counts_rejected(self):
        with pytest.raises(ValueError):
            EpisodeSpec(n_way=2, k_shot=0, l_query=1)
        with pytest.raises(ValueError):
            EpisodeSpec(n_way=2, k_shot=1, l_query=0)


class TestRelabel:
    def make_episode(self, classes):
        return Episode(support=(), query=(), source=(),
                       episode_classes=tuple(classes),
                       support_indices=(), query_indices=(), source_indices=())

    def test_sorted_order(self):
        ep = self.make_episode([7, 2, 9])
        assert relabel(ep) == {2: 0, 7: 1, 9: 2}

    def test_round_trip_identity(self):
        ep = self.make_episode([11, 3, 5, 8])
        mapping = relabel(ep)
        inverse = {v: k for k, v in mapping.items()}
        for c in ep.episode_classes:
            assert inverse[mapping[c]] == c
        assert sorted(mapping.values()) == list(range(4))


class TestSampleEpisode:
    @pytest.mark.parametrize("source_excludes", ["all", "current"])
    def test_matches_array_choice_oracle(self, source_excludes):
        # the same episode and generator state after the draw as choice on
        # each pool array; class sizes are uneven, so pools differ in size
        vocab = Vocab.from_tokens(["t"])
        sizes = [5, 9, 6, 14, 7, 8, 11]
        ds = make_dataset([((0,), c) for c, n in enumerate(sizes) for _ in range(n)],
                          [f"c{c}" for c in range(len(sizes))], vocab)
        allowed = [0, 1, 2, 3, 4, 6]
        for seed in range(300):
            spec = EpisodeSpec(n_way=2 + seed % 2, k_shot=1 + seed % 2, l_query=2)
            for with_source in (True, False):
                got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = sample_episode(ds, allowed, spec, got_rng, source_excludes, with_source)
                want = oracles.sample_episode(ds, allowed, spec, want_rng, source_excludes,
                                              with_source)
                assert got == want
                assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_sizes_n3_k2_l1(self):
        ds = toy_dataset(n_classes=6)
        spec = EpisodeSpec(n_way=3, k_shot=2, l_query=1)
        ep = sample_episode(ds, ds.classes, spec, np.random.default_rng(0))
        assert len(ep.support) == 6
        assert len(ep.query) == 3
        assert len(ep.source) == 3

    def test_deterministic_under_seed(self):
        ds = toy_dataset()
        spec = EpisodeSpec(n_way=3, k_shot=2, l_query=2)
        a = sample_episode(ds, ds.classes, spec, np.random.default_rng(42))
        b = sample_episode(ds, ds.classes, spec, np.random.default_rng(42))
        assert a == b

    def test_different_seeds_differ(self):
        ds = toy_dataset()
        spec = EpisodeSpec(n_way=3, k_shot=1, l_query=1)
        r1, r2 = np.random.default_rng(1), np.random.default_rng(2)
        eps1 = [sample_episode(ds, ds.classes, spec, r1) for _ in range(10)]
        eps2 = [sample_episode(ds, ds.classes, spec, r2) for _ in range(10)]
        assert eps1 != eps2

    def test_invariants_bulk(self):
        ds = toy_dataset(n_classes=8, per_class=10)
        spec = EpisodeSpec(n_way=4, k_shot=2, l_query=3)
        rng = np.random.default_rng(5)
        for _ in range(200):
            ep = sample_episode(ds, ds.classes, spec, rng)
            assert len(ep.support) == spec.n_way * spec.k_shot
            assert len(ep.query) == spec.n_way * spec.l_query
            assert len(ep.source) == spec.n_way * spec.l_query
            assert not set(ep.support_indices) & set(ep.query_indices)
            # per-class counts
            for c in ep.episode_classes:
                local = relabel(ep)[c]
                assert sum(1 for _, y in ep.support if y == local) == spec.k_shot
                assert sum(1 for _, y in ep.query if y == local) == spec.l_query
            # source classes outside the episode
            for ex in ep.source:
                assert ex.label not in ep.episode_classes
            # labels consistent with the sorted-global mapping
            mapping = relabel(ep)
            for (ex, y), idx in zip(ep.support, ep.support_indices):
                assert ds.examples[idx] is ex
                assert mapping[ex.label] == y

    def test_source_excludes_current_only(self):
        # the literal per-class draw may place other episode classes in the pool
        ds = toy_dataset(n_classes=4, per_class=10)
        spec = EpisodeSpec(n_way=3, k_shot=1, l_query=4)
        rng = np.random.default_rng(0)
        saw_episode_class = False
        for _ in range(50):
            ep = sample_episode(ds, ds.classes, spec, rng, source_excludes="current")
            assert len(ep.source) == spec.n_way * spec.l_query
            for i, ex in enumerate(ep.source):
                current = ep.episode_classes[i // spec.l_query]
                assert ex.label != current
                if ex.label in ep.episode_classes:
                    saw_episode_class = True
        assert saw_episode_class

    def test_without_source(self):
        ds = toy_dataset()
        spec = EpisodeSpec(n_way=3, k_shot=1, l_query=1)
        ep = sample_episode(ds, ds.classes, spec, np.random.default_rng(0),
                            with_source=False)
        assert ep.source == ()

    @pytest.mark.parametrize("with_source", [True, False])
    def test_bad_source_excludes_raises_before_drawing(self, with_source):
        ds = toy_dataset()
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="source_excludes must be 'all' or 'current'"):
            sample_episode(ds, ds.classes, EpisodeSpec(n_way=3, k_shot=1, l_query=1), rng,
                           source_excludes="none", with_source=with_source)
        assert rng.bit_generator.state == before

    def test_insufficient_classes(self):
        ds = toy_dataset(n_classes=3)
        spec = EpisodeSpec(n_way=4, k_shot=1, l_query=1)
        with pytest.raises(ValueError, match="classes"):
            sample_episode(ds, ds.classes, spec, np.random.default_rng(0))

    def test_small_classes_excluded_with_warning(self, caplog):
        ds = toy_dataset(n_classes=5, per_class=3)
        spec = EpisodeSpec(n_way=2, k_shot=2, l_query=2)  # needs 4 per class
        # add two big classes so sampling can proceed
        parsed = [(ex.token_ids, ex.label) for ex in ds.examples]
        parsed += [((0, 1, 2), c) for c in (5, 6) for _ in range(6)]
        ds2 = make_dataset(parsed, [f"c{i}" for i in range(7)], ds.vocab)
        rng = np.random.default_rng(0)
        with caplog.at_level("WARNING"):
            check_classes(ds2, ds2.classes, spec)
            episodes = [sample_episode(ds2, ds2.classes, spec, rng) for _ in range(20)]
        assert all(set(ep.episode_classes) <= {5, 6} for ep in episodes)
        # reported once for the split; the draws themselves log nothing
        assert [r.getMessage() for r in caplog.records] == [
            "excluding 5 class(es) with fewer than 4 examples"]

    def test_insufficient_source_pool(self):
        ds = toy_dataset(n_classes=4, per_class=3)
        spec = EpisodeSpec(n_way=3, k_shot=1, l_query=2)
        # only one class (3 examples) remains outside the episode; need 6
        with pytest.raises(ValueError, match="source pool"):
            sample_episode(ds, ds.classes, spec, np.random.default_rng(0))

    def test_class_frequency_matches_hypergeometric(self):
        # drawing 5 of 8 classes: each class should appear in 62.5% of episodes
        ds, _, _ = gen_synthetic_corpus(10, 12, 6, 1, 12, 8, seed=0)
        allowed = sorted(ds.classes)[:8]
        spec = EpisodeSpec(n_way=5, k_shot=1, l_query=1)
        rng = np.random.default_rng(123)
        counts = {c: 0 for c in allowed}
        n = 10_000
        for _ in range(n):
            ep = sample_episode(ds, ds.classes & set(allowed), spec, rng,
                                with_source=False)
            for c in ep.episode_classes:
                counts[c] += 1
        for c in allowed:
            assert abs(counts[c] / n - 0.625) < 0.02


class TestCheckClasses:
    def test_too_few_eligible_classes(self):
        ds = sized_dataset([3, 2, 5, 1])
        with pytest.raises(ValueError, match="need 3 classes with >= 3 examples, have 2"):
            check_classes(ds, ds.classes, EpisodeSpec(n_way=3, k_shot=1, l_query=2))

    def test_smallest_pool_refused(self):
        # classes of 3, 3 and 10: a draw of the 10-example class leaves 3 of
        # the 4 source examples it takes; excluding only the current class
        # leaves at least 6 for the 2 each draw takes
        ds = sized_dataset([3, 3, 10])
        spec = EpisodeSpec(n_way=2, k_shot=1, l_query=2)
        with pytest.raises(ValueError, match="source pool can have as few as 3 examples, need 4"):
            check_classes(ds, ds.classes, spec, "all")
        check_classes(ds, ds.classes, spec, "current")
        check_classes(ds, ds.classes, spec)   # no source set: the pool is not checked
        with pytest.raises(ValueError, match="source_excludes"):
            check_classes(ds, ds.classes, spec, "none")

    def test_matches_every_draw(self):
        # refused exactly when some choice of episode classes leaves a pool
        # smaller than its draw; found by enumerating every choice
        rng = np.random.default_rng(5)
        for _ in range(60):
            sizes = rng.integers(1, 9, size=int(rng.integers(3, 7))).tolist()
            spec = EpisodeSpec(n_way=int(rng.integers(2, 4)), k_shot=1,
                               l_query=int(rng.integers(1, 4)))
            ds = sized_dataset(sizes)
            eligible = [n for n in sizes if n >= spec.k_shot + spec.l_query]
            if len(eligible) < spec.n_way:
                continue
            for excludes in ("all", "current"):
                if excludes == "all":
                    short = any(sum(sizes) - sum(chosen) < spec.n_way * spec.l_query
                                for chosen in itertools.combinations(eligible, spec.n_way))
                else:
                    short = any(sum(sizes) - n < spec.l_query for n in eligible)
                try:
                    check_classes(ds, ds.classes, spec, excludes)
                    refused = False
                except ValueError:
                    refused = True
                assert refused == short, (sizes, spec, excludes)
