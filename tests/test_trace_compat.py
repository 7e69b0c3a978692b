"""The benchmark's tracer (benchmarks/tracing.py) wrapped around a short
training run and a meta-test, with the span extras and per-layer figures of
benchmarks/workloads.py.  A traced benchmark run (``--trace 1``) depends on
the argument lists those extras read and on the spans the figures count;
this catches a change that would break it in a second or two, where the
benchmark's own self-test takes most of a minute."""

import math
import sys
from pathlib import Path

import numpy as np

from metadapt import harness
from metadapt.corpus import split_classes
from metadapt.episodes import EpisodeSpec
from metadapt.harness import TrainConfig, gen_synthetic_corpus
from metadapt.model import ModelConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import workloads  # noqa: E402
from tracing import SpanTable, Tracer  # noqa: E402


def test_traced_train_and_meta_test(tmp_path):
    ds, table, _ = gen_synthetic_corpus(8, 10, 8, 2, 6, 12, seed=0)
    split = split_classes(ds.classes, (4, 2, 2), np.random.default_rng(0))
    spec = EpisodeSpec(n_way=2, k_shot=1, l_query=2)
    mcfg = ModelConfig(dim=12, hidden=6, lam=0.5, max_len=8, disc_hidden=(12, 8))
    cfg = TrainConfig(spec=spec, epochs=2, episodes_per_epoch=3, patience=5, seed=0,
                      val_episodes=4, lr=0.01)
    tracer = Tracer()
    tracer.install(workloads.LAYERS, workloads.SPAN_EXTRAS)
    try:
        # through the module, as the benchmark calls them: the tracer
        # rebinds the package's own names, not this file's
        res = harness.train(ds, split, cfg, mcfg, table, out_dir=tmp_path)
        rep = harness.meta_test(res.gen, mcfg, table, ds, split.test_classes, spec,
                                n_episodes=5, seeds=(1, 2))
    finally:
        tracer.uninstall()
    spans = SpanTable(tracer)
    assert res.epochs_run == 2 and len(rep.per_episode) == 10
    assert spans.count("model.episode_update") == 2 * 3
    # one scoring span per evaluated episode: validation and meta-test
    assert spans.count("model.episode_accuracy") == 2 * 4 + 10
    figures = workloads.per_layer(spans, {"train_episodes_per_s": 1.0,
                                          "eval_episodes_per_s": 1.0, "run_s": 1.0})
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
