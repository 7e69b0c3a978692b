"""The benchmark's tracer (benchmarks/tracing.py) wrapped around loading a
corpus, a short training run, loading its checkpoint and a meta-test, with
the span extras and per-layer figures of benchmarks/workloads.py.  A traced
benchmark run (``--trace 1``) depends on the argument lists those extras
read and on the spans the figures count; this catches a change that would
break it in a second or two, where the benchmark's own self-test takes most
of a minute.  A timed function moved out of the modules the tracer wraps
leaves its figure at 0 without an error, so every span name the figures
read must occur."""

import math
import sys
from pathlib import Path

import numpy as np

from metadapt import corpus, harness
from metadapt.corpus import gen_synthetic_corpus, split_classes, write_corpus_files
from metadapt.episodes import EpisodeSpec
from metadapt.harness import TrainConfig
from metadapt.model import ModelConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import workloads  # noqa: E402
from tracing import SpanTable, Tracer  # noqa: E402


class ReadNames(SpanTable):
    """A SpanTable that records every span name it is asked about."""

    def __init__(self, tracer):
        super().__init__(tracer)
        self.read = set()

    def where(self, name):
        self.read.add(name)
        return super().where(name)

    def grouped(self, name, ancestors):
        self.read |= set(ancestors)
        return super().grouped(name, ancestors)


def test_traced_train_and_meta_test(tmp_path):
    corpus_path, vec_path = write_corpus_files(
        *gen_synthetic_corpus(8, 10, 8, 2, 6, 12, seed=0)[:2], tmp_path / "corpus")
    spec = EpisodeSpec(n_way=2, k_shot=1, l_query=2)
    mcfg = ModelConfig(dim=12, hidden=6, lam=0.5, max_len=8, disc_hidden=(12, 8))
    cfg = TrainConfig(spec=spec, epochs=2, episodes_per_epoch=3, patience=5, seed=0,
                      val_episodes=4, lr=0.01)
    tracer = Tracer()
    tracer.install(workloads.LAYERS, workloads.SPAN_EXTRAS)
    try:
        # through the module, as the benchmark calls them: the tracer
        # rebinds the package's own names, not this file's
        ds = corpus.load_jsonl_dataset(corpus_path, max_len=mcfg.max_len)
        table = corpus.load_embeddings(vec_path, ds.vocab)
        split = split_classes(ds.classes, (4, 2, 2), np.random.default_rng(0))
        res = harness.train(ds, split, cfg, mcfg, table, out_dir=tmp_path / "run")
        gen, _, loaded_cfg = harness.load_checkpoint(tmp_path / "run" / "checkpoint.json")
        rep = harness.meta_test(gen, loaded_cfg, table, ds, split.test_classes, spec,
                                n_episodes=5, seeds=(1, 2))
    finally:
        tracer.uninstall()
    spans = ReadNames(tracer)
    assert res.epochs_run == 2 and len(rep.per_episode) == 10
    assert spans.count("model.episode_update") == 2 * 3
    # each phase is a direct call of episode_update, so its own span; the
    # update's self time is what lies between them
    update = spans.where("model.episode_update")[0]
    assert [spans.name[i] for i, p in enumerate(spans.parent) if p == update] == [
        "model.episode_forward", "model.fit_episode_classifier",
        "model.discriminator_loss_and_grads", "nn.adam_step",
        "model.generator_loss_and_grads", "nn.adam_step"]
    # one scoring span per evaluated episode: validation and meta-test
    assert spans.count("model.episode_accuracy") == 2 * 4 + 10
    spans.read.clear()
    figures = workloads.per_layer(spans, {"train_episodes_per_s": 1.0,
                                          "eval_episodes_per_s": 1.0, "run_s": 1.0})
    read = set(spans.read)
    assert {"model.ridge_fit", "harness.load_checkpoint", "corpus.load_embeddings"} <= read
    assert sorted(name for name in read if not spans.count(name)) == []
    assert all(math.isfinite(value) for value, _ in figures.values())
    assert figures["model.encode.unique_ratio"][0] == 1.0
    # one LSTM call per direction and training episode, forward and back:
    # the per-layer LSTM figures see every kernel call
    assert figures["nn.lstm_forward.calls_per_episode"][0] == 2
    assert figures["nn.lstm_backward.calls_per_episode"][0] == 2
    # evaluation runs the forward-only kernel, so a traced meta_test holds
    # lstm_states spans and no cached forward pass
    assert spans.grouped("nn.lstm_states", {"harness.meta_test"})
    assert not spans.grouped("nn.lstm_forward", {"harness.meta_test"})
    # the meta-test's 20 or fewer distinct 8-token sentences fit one
    # evaluation batch (3 training batches of 10 sentences): one encoder
    # pass, with one recurrence per direction
    for name, calls in (("model.gen_forward", 1), ("nn.lstm_states", 2)):
        assert [len(v) for v in spans.grouped(name, {"harness.meta_test"}).values()] == [calls]
