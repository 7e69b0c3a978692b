"""The benchmark's workloads: inputs, set-up, timed rounds, metrics, checks.

Every workload drives the program through the functions its command line
calls: `corpus.load_jsonl_dataset`, `corpus.load_embeddings`,
`corpus.split_classes`, `harness.train` (which writes `metrics.jsonl` and
the checkpoint through `harness.save_checkpoint`), `harness.load_checkpoint`
and `harness.meta_test`.  A run repeats whole rounds of the same seeded
computation.  An untraced run makes at least two, and more while the next
round, taking as long as the last, would end within `--seconds` of the
run's start.  A traced run makes exactly two, so that its per-layer
figures do not depend on the host's speed.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from metadapt import corpus, episodes, harness, model, nn

import checks
import oracle
from inputs import CorpusShape, write_corpus, workload_rng
from tracing import SpanTable, Tracer

MIN_ROUNDS = 2
INSTANCE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: CorpusShape
    split: tuple          # train, val, test class counts
    spec: tuple           # n_way, k_shot, l_query
    model: dict           # ModelConfig fields besides dim
    train: dict           # TrainConfig fields besides spec and seed
    test_episodes: int    # meta_test episodes per seed
    test_seeds: int
    eval_only: bool = False      # rounds evaluate a checkpoint trained before set-up
    learning_bars: bool = False  # apply acceptance criterion 6's bars
    encode_samples: int = 16     # sentences checked against the reference encoder


ACCEPTANCE_CORPUS = CorpusShape(n_classes=24, examples_per_class=50, sentence_len=12,
                                keywords_per_class=2, noise_vocab=6,
                                extra_vectors=40_000, dim=32)
PAPER_CORPUS = CorpusShape(n_classes=20, examples_per_class=30, sentence_len=40,
                           keywords_per_class=2, noise_vocab=1000,
                           extra_vectors=3000, dim=300, keyword_hits=(4, 8))

WORKLOADS = {w.name: w for w in (
    # the acceptance suite's shape and schedule (criterion 6)
    Workload("train-small", ACCEPTANCE_CORPUS, split=(16, 4, 4), spec=(4, 1, 5),
             model=dict(hidden=16, lam=0.1, max_len=12),
             train=dict(epochs=15, episodes_per_epoch=20, patience=20,
                        val_episodes=30, lr=0.03),
             test_episodes=200, test_seeds=1, learning_bars=True),
    Workload("eval-paper", PAPER_CORPUS, split=(10, 5, 5), spec=(5, 1, 5),
             model=dict(hidden=128, lam=1.0, max_len=40),
             train=dict(epochs=1, episodes_per_epoch=4, patience=1,
                        val_episodes=1, lr=0.001),
             test_episodes=10, test_seeds=2, eval_only=True, encode_samples=6),
)}

LAYERS = {"corpus": corpus, "episodes": episodes, "nn": nn, "model": model,
          "harness": harness}
# stored with each span: computed operation counts of the two recurrences
# (the four matrix products per time step) and the identity of the example
# each sentence embedding is made from
SPAN_EXTRAS = {
    "nn.lstm_forward": lambda X, p: 8 * p.hidden_size * (X.shape[0] + p.hidden_size) * X.shape[1],
    "nn.lstm_backward": lambda dH, cache, p: (16 * p.hidden_size
                                              * (cache["X"].shape[0] + p.hidden_size)
                                              * dH.shape[1]),
    "corpus.embed_sentence": lambda example, table: id(example),
}


@dataclass
class State:
    dataset: object
    table: object
    split: object
    checkpoint: tuple = None   # (gen, disc, model_cfg) for eval-only workloads


@dataclass
class Round:
    seconds: float
    eval_seconds: float
    report: object
    records: list = field(default_factory=list)  # metrics.jsonl of the round's training
    epochs_run: int = 0
    trained: object = None                        # TrainResult
    loaded: tuple = None                          # load_checkpoint of what train wrote


def setup(wl: Workload, inputs, split_seed: int, checkpoint=None) -> State:
    dataset = corpus.load_jsonl_dataset(inputs.corpus_path, max_len=wl.model["max_len"])
    table = corpus.load_embeddings(inputs.embeddings_path, dataset.vocab)
    split = corpus.split_classes(dataset.classes, wl.split, np.random.default_rng(split_seed))
    loaded = harness.load_checkpoint(checkpoint) if checkpoint is not None else None
    return State(dataset, table, split, loaded)


def read_records(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def train_round(state: State, spec, train_cfg, model_cfg, wl: Workload, test_seeds,
                out_dir: Path) -> Round:
    t0 = time.perf_counter()
    trained = harness.train(state.dataset, state.split, train_cfg, model_cfg, state.table,
                            out_dir=out_dir)
    loaded = harness.load_checkpoint(out_dir / "checkpoint.json")
    t1 = time.perf_counter()
    report = harness.meta_test(loaded[0], loaded[2], state.table, state.dataset,
                               state.split.test_classes, spec, wl.test_episodes, test_seeds,
                               train_classes=state.split.train_classes)
    t2 = time.perf_counter()
    return Round(seconds=t2 - t0, eval_seconds=t2 - t1, report=report,
                 records=read_records(out_dir / "metrics.jsonl"),
                 epochs_run=trained.epochs_run, trained=trained, loaded=loaded)


def eval_round(state: State, spec, wl: Workload, test_seeds) -> Round:
    gen, _, cfg = state.checkpoint
    t0 = time.perf_counter()
    report = harness.meta_test(gen, cfg, state.table, state.dataset,
                               state.split.test_classes, spec, wl.test_episodes, test_seeds,
                               train_classes=state.split.train_classes)
    seconds = time.perf_counter() - t0
    return Round(seconds=seconds, eval_seconds=seconds, report=report)


def episode_intervals(records: list) -> list:
    """Seconds per training episode, sampling included, from the wall-time
    stamps `train` writes after each episode.  The first episode of every
    epoch after the first also spans the previous epoch's validation, so
    it is left out."""
    out = [records[0]["wall_time"]]
    for prev, rec in zip(records, records[1:]):
        if rec["episode"] != 0:
            out.append(rec["wall_time"] - prev["wall_time"])
    return out


def validation_windows(records: list, val_episodes: int, train_interval: float) -> list:
    """(seconds, episodes) of each validation pass but the last epoch's: the
    gap before an epoch's first episode covers the previous epoch's
    validation and one training episode, taken as the mean one."""
    return [(rec["wall_time"] - prev["wall_time"] - train_interval, val_episodes)
            for prev, rec in zip(records, records[1:]) if rec["episode"] == 0]


def end_to_end(setup_times, train_records, val_episodes, rounds, peak_rss_mib) -> dict:
    """Rates are episodes over the seconds they took, summed over the run.
    On a shared machine the speed can shift for seconds at a time; a total
    weighs every stretch of the run alike, where a median follows whichever
    speed held for most of it."""
    intervals = [t for recs in train_records for t in episode_intervals(recs)]
    windows = [(r.eval_seconds, len(r.report.per_episode)) for r in rounds]
    windows += [w for recs in train_records
                for w in validation_windows(recs, val_episodes, statistics.mean(intervals))]
    return {
        "setup_s": statistics.median(setup_times),
        "train_episodes_per_s": len(intervals) / sum(intervals),
        "eval_episodes_per_s": sum(n for _, n in windows) / sum(t for t, _ in windows),
        "run_s": statistics.mean(r.seconds for r in rounds),
        "test_accuracy": rounds[-1].report.mean_accuracy,
        "peak_rss_mib": peak_rss_mib,
    }


E2E_UNITS = {"setup_s": "s", "train_episodes_per_s": "episodes/s",
             "eval_episodes_per_s": "episodes/s", "run_s": "s",
             "test_accuracy": "fraction", "peak_rss_mib": "MiB"}


def per_layer(spans: SpanTable, traced_e2e: dict) -> dict:
    """Per-layer figures from one traced run.  A layer's "per episode" divides
    by the episodes that call it: the training episodes for the layers only
    training runs (BPTT, the discriminator, Adam, the update's self time),
    every episode the run made for those that training, validation and
    meta-test all run (sampling, the forward pass, the ridge solve)."""
    n_train = spans.count("model.episode_update")
    n_all = n_train + spans.count("model.episode_accuracy")

    def ms_per_episode(name, self_only=False, n_eps=n_all):
        return 1e3 * spans.total(name, self_only) / n_eps

    def ms_per_train_episode(name, self_only=False):
        return ms_per_episode(name, self_only, n_train)

    def calls_per_train_episode(name):
        return sum(len(ix) for ix in
                   spans.grouped(name, {"model.episode_update"}).values()) / n_train

    def gflop_per_s(name):
        busy = spans.total(name)
        return sum(spans.extra[i] for i in spans.where(name)) / busy / 1e9 if busy else 0.0

    def median_s(name, self_only=False):
        return spans.median(name, self_only) if spans.count(name) else 0.0

    # the generator is frozen within one evaluation call (a meta_test, or a
    # validation pass inside train), so an example encoded twice there is
    # encoded again for nothing
    evals = spans.grouped("corpus.embed_sentence",
                          {"harness.meta_test", "harness.evaluate_episodes"}).values()
    encodes = sum(len(ix) for ix in evals)
    distinct = sum(len({spans.extra[i] for i in ix}) for ix in evals)
    validation = [sum(spans.dur[i] for i in ix) for ix in
                  spans.grouped("harness.evaluate_episodes", {"harness.train"}).values()]
    out = {
        "corpus.load_jsonl_dataset.s": (median_s("corpus.load_jsonl_dataset"), "s"),
        "corpus.load_embeddings.s": (median_s("corpus.load_embeddings"), "s"),
        "episodes.sample_episode.ms_per_episode": (
            ms_per_episode("episodes.sample_episode"), "ms"),
        "nn.lstm_forward.calls_per_episode": (calls_per_train_episode("nn.lstm_forward"),
                                              "count"),
        "nn.lstm_backward.calls_per_episode": (calls_per_train_episode("nn.lstm_backward"),
                                               "count"),
        "nn.lstm_forward.ms_per_episode": (ms_per_episode("nn.lstm_forward"), "ms"),
        "nn.lstm_forward.gflop_per_s": (gflop_per_s("nn.lstm_forward"), "GFLOP/s"),
        "nn.lstm_backward.ms_per_episode": (ms_per_train_episode("nn.lstm_backward"), "ms"),
        "nn.lstm_backward.gflop_per_s": (gflop_per_s("nn.lstm_backward"), "GFLOP/s"),
        "nn.ffn_forward_cached.ms_per_episode": (
            ms_per_train_episode("nn.ffn_forward_cached"), "ms"),
        "nn.ffn_backward.ms_per_episode": (ms_per_train_episode("nn.ffn_backward"), "ms"),
        "nn.adam_step.ms_per_episode": (ms_per_train_episode("nn.adam_step"), "ms"),
        "model.episode_forward.ms_per_episode": (ms_per_episode("model.episode_forward"), "ms"),
        "model.ridge_fit.ms_per_episode": (ms_per_episode("model.ridge_fit"), "ms"),
        "model.discriminator_loss_and_grads.ms_per_episode": (
            ms_per_train_episode("model.discriminator_loss_and_grads"), "ms"),
        "model.generator_loss_and_grads.self_ms_per_episode": (
            ms_per_train_episode("model.generator_loss_and_grads", self_only=True), "ms"),
        "model.episode_update.self_ms_per_episode": (
            ms_per_train_episode("model.episode_update", self_only=True), "ms"),
        "model.encode.sentences_per_episode": (spans.count("model.gen_forward") / n_all,
                                               "count"),
        "model.encode.unique_ratio": (distinct / encodes if encodes else 0.0, "ratio"),
        "harness.evaluate_episodes.s": (statistics.median(validation), "s"),
        "harness.meta_test.s": (median_s("harness.meta_test"), "s"),
        "harness.train.self_s": (median_s("harness.train", self_only=True), "s"),
        "harness.save_checkpoint.s": (median_s("harness.save_checkpoint"), "s"),
        "harness.load_checkpoint.s": (median_s("harness.load_checkpoint"), "s"),
    }
    for name in ("train_episodes_per_s", "eval_episodes_per_s", "run_s"):
        out[f"traced.{name}"] = (traced_e2e[name], E2E_UNITS[name])
    return out


def run(name: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> tuple:
    """One run of one workload; returns the result line and a run report."""
    start = time.perf_counter()
    wl = WORKLOADS[name]
    if work_dir.exists():
        shutil.rmtree(work_dir)
    # the corpus, its class split and the training seed are the same for
    # every --seed, which picks the meta-test episodes (see README)
    instance_rng = workload_rng(name, INSTANCE_SEED)
    inputs = write_corpus(wl.corpus, instance_rng, work_dir / "inputs")
    split_seed, train_seed = (int(s) for s in instance_rng.integers(0, 2**31 - 1, size=2))
    seed_rng = workload_rng(name, seed)
    test_seeds = [int(s) for s in seed_rng.integers(0, 2**31 - 1, size=wl.test_seeds)]
    spec = episodes.EpisodeSpec(*wl.spec)
    model_cfg = model.ModelConfig(dim=wl.corpus.dim, **wl.model)
    train_cfg = harness.TrainConfig(spec=spec, seed=train_seed, **wl.train)

    # episodes of one training call (every epoch runs: patience is never
    # reached) and of one meta_test call
    train_episodes = wl.train["epochs"] * (wl.train["episodes_per_epoch"]
                                           + wl.train["val_episodes"])
    test_episodes = wl.test_episodes * wl.test_seeds
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install(LAYERS, SPAN_EXTRAS)
    checkpoint, prep_records, prep_epochs, rounds = None, [], 0, []
    in_flight = failed = 0   # episodes of the call running; of the call that raised
    error = None
    try:
        # untimed: the first set-up of a process reads cold files and code
        state = setup(wl, inputs, split_seed)
        if wl.eval_only:
            in_flight = train_episodes
            prep_epochs = harness.train(state.dataset, state.split, train_cfg, model_cfg,
                                        state.table, out_dir=work_dir / "prepare").epochs_run
            in_flight = 0
            checkpoint = work_dir / "prepare" / "checkpoint.json"
            prep_records = read_records(work_dir / "prepare" / "metrics.jsonl")
        # set up before the first round and after every round: the host's
        # speed shifts within a run, so the set-up times are spread over it
        setup_times = []
        while True:
            state = None   # or the old and the new set-up are both held at its peak
            t0 = time.perf_counter()
            state = setup(wl, inputs, split_seed, checkpoint)
            setup_times.append(time.perf_counter() - t0)
            if len(rounds) >= MIN_ROUNDS and (
                    trace or time.perf_counter() - start + rounds[-1].seconds > seconds):
                break
            if rounds:
                # only the last round's models are checked; holding earlier
                # ones would make peak memory grow with the round count
                rounds[-1].trained = rounds[-1].loaded = None
            if wl.eval_only:
                in_flight = test_episodes
                rounds.append(eval_round(state, spec, wl, test_seeds))
            else:
                in_flight = train_episodes + test_episodes
                rounds.append(train_round(state, spec, train_cfg, model_cfg, wl, test_seeds,
                                          work_dir / "round"))
            in_flight = 0
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except Exception as exc:
        # an episode raised (a non-finite loss, say): every episode of the
        # training or meta_test call it was part of counts as failed
        if not in_flight:
            raise
        failed, error = in_flight, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer:
            tracer.uninstall()

    train_records = [prep_records] if wl.eval_only else [r.records for r in rounds]
    attempted = failed + sum(len(recs) for recs in train_records)
    attempted += sum(len(r.report.per_episode) for r in rounds)
    attempted += wl.train["val_episodes"] * (prep_epochs + sum(r.epochs_run for r in rounds))
    report = {"workload": name, "seed": seed, "trace": trace, "rounds": len(rounds),
              "failures": [f"an episode raised {error}; {failed} episodes counted as failed"]
              if error else []}
    metrics = {}
    if not error:
        e2e = end_to_end(setup_times, train_records, wl.train["val_episodes"], rounds,
                         peak_rss_mib)
        failures, facts = run_checks(wl, inputs, state, rounds, prep_records, model_cfg,
                                     train_seed, test_seeds, seed_rng,
                                     checkpoint or work_dir / "round" / "checkpoint.json")
        if tracer:
            metrics = per_layer(SpanTable(tracer), e2e)
            tracer.write(work_dir / "trace.json.gz")
        else:
            metrics = {k: (v, E2E_UNITS[k]) for k, v in e2e.items()}
        report.update(setup_times_s=setup_times, end_to_end=e2e, checked=facts,
                      failures=failures)
    for sub in ("inputs", "prepare", "round"):
        shutil.rmtree(work_dir / sub, ignore_errors=True)
    result = {"correct": not report["failures"], "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, report


# ---------------------------------------------------------------------------
# checks


def run_checks(wl: Workload, inputs, state: State, rounds, prep_records, model_cfg,
               train_seed: int, test_seeds, rng, checkpoint_path) -> tuple:
    failures, facts = [], {}
    last = rounds[-1]
    rep = last.report
    failures += checks.check_same("meta_test per_episode", [r.report.per_episode for r in rounds])
    failures += checks.check_same(
        "metrics.jsonl", [[{k: v for k, v in rec.items() if k != "wall_time"}
                           for rec in r.records] for r in rounds])
    if wl.eval_only:
        failures += checks.check_metrics_log(prep_records, 1, wl.train["episodes_per_epoch"])
        gen, _, cfg = state.checkpoint
        if cfg != model_cfg:
            failures.append("checkpoint config differs from the one trained with")
    else:
        failures += checks.check_metrics_log(last.records, last.epochs_run,
                                             wl.train["episodes_per_epoch"])
        gen, disc, cfg = last.loaded
        saved = {**last.trained.gen.named_arrays(), **last.trained.disc.named_arrays()}
        loaded = {**gen.named_arrays(), **disc.named_arrays()}
        if saved.keys() != loaded.keys() or any(
                not np.array_equal(saved[k], loaded[k]) for k in saved):
            failures.append("load_checkpoint does not return the parameters train saved")
    failures += checks.check_summary(rep.per_episode, rep.mean_accuracy, rep.std, rep.ci95)

    dataset, table = state.dataset, state.table
    failures += checks.check_inputs_read_back(inputs, dataset, table)
    weights = oracle.read_checkpoint_weights(checkpoint_path)
    ref_cache = {}

    def reference(i):
        if i not in ref_cache:
            ref_cache[i] = oracle.encode(inputs.sentences[i], inputs.vectors,
                                         weights["arrays"])
        return ref_cache[i]

    sample = rng.choice(len(dataset), size=wl.encode_samples, replace=False)
    failures += checks.check_features(
        {int(i): model.encode(dataset.examples[i], gen, table, cfg) for i in sample},
        {int(i): reference(int(i))[0] for i in sample})

    # replay meta_test's episodes: every head and every accuracy is recomputed
    spec = episodes.EpisodeSpec(*wl.spec)
    recomputed, pos = {}, 0
    for s in test_seeds:
        ep_rng = np.random.default_rng(s)
        for _ in range(wl.test_episodes):
            ep = episodes.sample_episode(dataset, state.split.test_classes, spec, ep_rng,
                                         with_source=False)
            failures += checks.check_episode_protocol(ep, spec, state.split.test_classes)
            support = [(i, y) for i, (_, y) in zip(ep.support_indices, ep.support)]
            query = [(i, y) for i, (_, y) in zip(ep.query_indices, ep.query)]
            X = np.stack([model.encode(ex, gen, table, cfg) for ex, _ in ep.support])
            Y = oracle.one_hot([y for _, y in support], ep.n_way)
            failures += checks.check_ridge(X, Y, cfg.lam, model.ridge_fit(X, Y, cfg.lam).theta)
            recomputed[pos] = oracle.episode_accuracy(support, query, ep.n_way,
                                                      lambda i: reference(i)[0], weights["lam"])
            pos += 1
    failures += checks.check_accuracies(dict(enumerate(rep.per_episode)), recomputed)

    if wl.learning_bars:
        untrained = model.GeneratorParams.init(model_cfg, np.random.default_rng(train_seed))
        rep0 = harness.meta_test(untrained, model_cfg, table, dataset,
                                 state.split.test_classes, spec, wl.test_episodes, test_seeds)
        hits = total = 0
        for c in state.split.test_classes:
            for i in dataset.class_index[c]:
                k = reference(i)[1]
                hits += inputs.sentences[i][int(np.argmax(k))] in inputs.keywords[inputs.labels[i]]
                total += 1
        facts.update(untrained_accuracy=rep0.mean_accuracy, keyword_hit_rate=hits / total)
        failures += checks.check_learning(rep.mean_accuracy, rep0.mean_accuracy, hits / total)
    # dedupe repeated per-episode messages
    return list(dict.fromkeys(failures)), facts

