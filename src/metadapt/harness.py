"""Meta-training with early stopping, episodic evaluation, metric
persistence, attention/embedding dumps, and the files a run writes and reads
back: ``split.json`` and the checkpoint."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import itertools
import json
import logging
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import model, nn
from .corpus import (ClassSplit, DataError, Dataset, EmbeddingTable, Example, Vocab,
                     make_dataset, parse_json, read_utf8)
from .episodes import Episode, EpisodeSpec, check_classes, sample_episode
from .model import DiscriminatorParams, EpisodeMetrics, GeneratorParams, ModelConfig
from .nn import AdamState, NumericalError

logger = logging.getLogger(__name__)

CHECKPOINT_FORMAT_VERSION = 1


@dataclass
class TrainConfig:
    """Meta-training schedule."""

    spec: EpisodeSpec
    epochs: int = 50
    episodes_per_epoch: int = 100
    patience: int = 20
    seed: int = 0
    val_episodes: int = 100
    lr: float = 0.001
    source_excludes: str = "all"

    def __post_init__(self):
        if self.epochs < 1 or self.episodes_per_epoch < 1 or self.val_episodes < 1:
            raise ValueError("epochs, episodes_per_epoch, and val_episodes must be >= 1")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr!r}")
        if self.source_excludes not in ("all", "current"):
            raise ValueError("source_excludes must be 'all' or 'current', "
                             f"got {self.source_excludes!r}")


@dataclass
class MetricsRecord:
    """One training episode's metrics, where and when it ran."""

    epoch: int
    episode: int
    metrics: EpisodeMetrics
    wall_time: float

    def to_dict(self) -> dict:
        """The ``metrics.jsonl`` line: epoch, episode, the metrics' fields in
        their declared order, then wall_time."""
        return {"epoch": self.epoch, "episode": self.episode,
                **dataclasses.asdict(self.metrics), "wall_time": self.wall_time}


@dataclass
class TrainResult:
    gen: GeneratorParams          # best-validation checkpoint
    disc: DiscriminatorParams
    model_cfg: ModelConfig
    history: list                 # MetricsRecord per training episode
    val_accuracies: list          # one per epoch run
    best_epoch: int
    best_val_accuracy: float
    epochs_run: int


@dataclass
class EvalReport:
    """Episodic accuracy aggregated over episodes and seeds."""

    mean_accuracy: float
    std: float
    ci95: float                   # 1.96 * std / sqrt(n); 0 when n == 1
    per_episode: tuple
    n_episodes: int               # episodes per seed
    seeds: tuple

    def to_dict(self) -> dict:
        return {"mean_accuracy": self.mean_accuracy, "std": self.std, "ci95": self.ci95,
                "n_episodes": self.n_episodes, "seeds": list(self.seeds),
                "total_episodes": len(self.per_episode)}


# Evaluation batches hold EVAL_BATCH_FACTOR times the sentences of a training
# batch.  Per padded position, a forward-only pass holds each direction's
# states, H each, in that direction's own time order: 2H doubles.  It makes
# no padded word vectors; each sentence's word vectors are gathered on
# their own while it is fused.  A split training update holds 2d + 14H per
# position (the d + 12H BPTT cache, the reversed input copy, d, and each
# direction's state gradients, 2H), at least 7 times as much at any d, so at
# the same padded length such a batch holds less than one update; 3 leaves
# room for the per-token tables and the features, and eval-paper's call
# already fits one batch, so no workload would show a wider one.
EVAL_BATCH_FACTOR = 3


def evaluate_episodes(gen: GeneratorParams, cfg: ModelConfig, table: EmbeddingTable,
                      episodes) -> list[float]:
    """Per-episode query accuracies of already sampled episodes of one shape,
    with frozen generator parameters.

    The call's distinct examples are encoded once each, in first-seen
    order and forward only (``gen_forward(..., cache=False)`` keeps nothing
    for BPTT).  Its batches hold ``EVAL_BATCH_FACTOR`` times the sentences
    one training episode of the same shape encodes in its single pass,
    N(K+2L) with the source set or N(K+L) under ``no_adversarial``.  The
    features (dataset index -> classifier input, bias appended) live for
    this call only.  Every ridge head is then fit in one stacked dual
    solve, and each episode is scored on its own.
    """
    if not episodes:
        return []
    first = episodes[0]
    batch = EVAL_BATCH_FACTOR * (len(first.support)
                                 + len(first.query) * (1 if cfg.no_adversarial else 2))
    examples: dict = {}   # dataset index -> example, in first-seen order
    for ep in episodes:
        examples.update(zip(ep.support_indices + ep.query_indices,
                            [ex for ex, _ in ep.support + ep.query]))
    indices, pending = list(examples), list(examples.values())
    features = {}
    for start in range(0, len(pending), batch):
        feats, _ = model.gen_forward(pending[start:start + batch], gen, table, cfg,
                                     cache=False)
        features.update(zip(indices[start:start + batch], model.with_bias(feats)))
    scores = model.episode_scores(episodes, features, cfg.lam)
    return [model.episode_accuracy(sc, [y for _, y in ep.query])
            for sc, ep in zip(scores, episodes)]


class SplitError(DataError, ValueError):
    """A split whose classes cannot serve the episode shape."""


def train(dataset: Dataset, split: ClassSplit, cfg: TrainConfig, model_cfg: ModelConfig,
          table: EmbeddingTable, out_dir=None, clock=time.perf_counter) -> TrainResult:
    """Episode-based meta-training with validation early stopping.

    Each epoch runs ``episodes_per_epoch`` three-phase episode updates on the
    train classes, then measures episodic accuracy on the validation classes
    with the generator frozen (the ridge head is refit per episode); the
    validation episodes are sampled once, before the first epoch.  The
    best-validation weights are restored at the end; training stops once
    validation accuracy has not improved for ``patience`` consecutive epochs.

    A non-finite loss, or a NumericalError raised inside an episode update,
    aborts with a diagnostic checkpoint rather than being skipped.  ``clock``
    supplies wall-time stamps for the metrics records.  A split from which
    some training draw (with its source set) or validation draw could not
    be served is refused before any output (SplitError; see
    ``check_classes``); ``out_dir`` then gets ``split.json`` first.
    """
    for name, classes, excludes in (("train", split.train_classes, cfg.source_excludes),
                                    ("validation", split.val_classes, None)):
        try:
            check_classes(dataset, classes, cfg.spec, excludes)
        except ValueError as exc:
            raise SplitError(f"{name} split: {exc}") from None
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "split.json", "w", encoding="utf-8") as fh:
            json.dump({**{k: sorted(v) for k, v in dataclasses.asdict(split).items()},
                       "label_names": list(dataset.label_names)}, fh, indent=2)

    ss = np.random.SeedSequence(cfg.seed)
    s_init, s_train, s_val = ss.spawn(3)
    init_rng = np.random.default_rng(s_init)
    train_rng = np.random.default_rng(s_train)
    # the same validation episodes every epoch, so accuracies are comparable
    val_rng = np.random.default_rng(s_val.generate_state(1)[0])
    val_episodes = [sample_episode(dataset, split.val_classes, cfg.spec, val_rng,
                                   with_source=False) for _ in range(cfg.val_episodes)]

    gen = GeneratorParams.init(model_cfg, init_rng)
    disc = DiscriminatorParams.init(model_cfg.encoder_dim, model_cfg.disc_hidden, init_rng)
    opt_gen = AdamState(lr=cfg.lr)
    opt_disc = AdamState(lr=cfg.lr)

    history: list[MetricsRecord] = []
    val_accuracies: list[float] = []
    best = (gen.values.copy(), disc.values.copy())
    best_epoch = -1
    t0 = clock()

    with (open(out / "metrics.jsonl", "w", encoding="utf-8") if out
          else contextlib.nullcontext()) as metrics_fh:
        for epoch in range(cfg.epochs):
            for j in range(cfg.episodes_per_epoch):
                ep = sample_episode(dataset, split.train_classes, cfg.spec, train_rng,
                                    source_excludes=cfg.source_excludes)
                try:
                    m = model.episode_update(ep, gen, disc, model_cfg, table,
                                             opt_gen, opt_disc)
                    rec = MetricsRecord(epoch=epoch, episode=j, metrics=m,
                                        wall_time=clock() - t0)
                    history.append(rec)
                    if metrics_fh:
                        metrics_fh.write(json.dumps(rec.to_dict()) + "\n")
                    if not all(math.isfinite(v) for v in
                               (m.ridge_loss, m.disc_loss, m.gen_loss)):
                        raise NumericalError("non-finite loss")
                except NumericalError as exc:
                    msg = f"{exc} at epoch {epoch} episode {j}"
                    if out is not None:
                        save_checkpoint(out / "diagnostic_checkpoint.json", gen, disc,
                                        model_cfg)
                        msg += "; diagnostic checkpoint written"
                    raise NumericalError(msg) from exc

            val_acc = float(np.mean(evaluate_episodes(gen, model_cfg, table, val_episodes)))
            val_accuracies.append(val_acc)
            if metrics_fh:
                metrics_fh.flush()

            if best_epoch < 0 or val_acc > val_accuracies[best_epoch]:
                best_epoch = epoch
                best = (gen.values.copy(), disc.values.copy())
            logger.info("epoch %d: val accuracy %.4f (best %.4f at epoch %d)",
                        epoch, val_acc, val_accuracies[best_epoch], best_epoch)
            if epoch - best_epoch >= cfg.patience:
                logger.info("early stop after epoch %d", epoch)
                break

    gen.values[...], disc.values[...] = best
    if out is not None:
        _write_csv_summary(out / "metrics.csv", history, val_accuracies)
        save_checkpoint(out / "checkpoint.json", gen, disc, model_cfg)

    return TrainResult(gen=gen, disc=disc, model_cfg=model_cfg,
                       history=history, val_accuracies=val_accuracies,
                       best_epoch=best_epoch,
                       best_val_accuracy=val_accuracies[best_epoch],
                       epochs_run=len(val_accuracies))


def load_split(path) -> tuple[set, set]:
    """(test classes, train classes) from a ``split.json`` that ``train``
    wrote; anything but an object whose two keys list integer class ids
    raises DataError naming the file."""
    split = parse_json(read_utf8(path, "split file"), path, "split")
    if not isinstance(split, dict):
        raise DataError(f"{path}: a split must be a JSON object, got {type(split).__name__}")

    def classes(key):
        ids = split.get(key)
        if not isinstance(ids, list) or not all(
                isinstance(c, int) and not isinstance(c, bool) for c in ids):
            raise DataError(f"{path}: {key} must be a list of integer class ids, got {ids!r}")
        return set(ids)

    return classes("test_classes"), classes("train_classes")


def _write_csv_summary(path, history, val_accuracies):
    """One row per epoch: its episodes' mean metrics, then its validation accuracy."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "ridge_loss", "disc_loss", "gen_loss",
                    "train_accuracy", "val_accuracy"])
        for (epoch, recs), val_acc in zip(itertools.groupby(history, lambda r: r.epoch),
                                          val_accuracies):
            rows = [r.metrics for r in recs]
            w.writerow([epoch,
                        float(np.mean([r.ridge_loss for r in rows])),
                        float(np.mean([r.disc_loss for r in rows])),
                        float(np.mean([r.gen_loss for r in rows])),
                        float(np.mean([r.query_accuracy for r in rows])),
                        val_acc])


def meta_test(gen: GeneratorParams, cfg: ModelConfig, table: EmbeddingTable,
              dataset: Dataset, test_classes, spec: EpisodeSpec,
              n_episodes: int = 1000, seeds=(0,), train_classes=None) -> EvalReport:
    """Episodic evaluation over ``n_episodes`` per seed.

    The generator is frozen; only the ridge head is refit per episode.
    Every seed's episodes are sampled before any sentence is encoded, and
    one evaluate_episodes call over all of them encodes each distinct
    example once; ``per_episode`` lists the accuracies in seed order.  If
    ``train_classes`` is given, disjointness from the test classes is
    asserted first.
    """
    if train_classes is not None:
        overlap = set(test_classes) & set(train_classes)
        if overlap:
            raise ValueError(f"test classes overlap train classes: {sorted(overlap)}")
    if not seeds:
        raise ValueError("at least one seed is required")
    if n_episodes < 1:
        raise ValueError(f"n_episodes must be >= 1, got {n_episodes}")
    check_classes(dataset, test_classes, spec)
    episodes = [sample_episode(dataset, test_classes, spec, rng, with_source=False)
                for rng in map(np.random.default_rng, seeds) for _ in range(n_episodes)]
    arr = np.asarray(evaluate_episodes(gen, cfg, table, episodes))
    n = arr.size
    std = float(arr.std(ddof=1)) if n > 1 else 0.0
    ci = 1.96 * std / math.sqrt(n) if n > 1 else 0.0
    return EvalReport(mean_accuracy=float(arr.mean()), std=std, ci95=ci,
                      per_episode=tuple(float(a) for a in arr),
                      n_episodes=n_episodes, seeds=tuple(seeds))


# ---------------------------------------------------------------------------
# dumps


def dump_attention(gen: GeneratorParams, cfg: ModelConfig, example: Example,
                   table: EmbeddingTable, vocab: Vocab, out=None):
    """Per-token attention weights in sentence order; optionally written as
    tab-separated ``token<TAB>weight`` lines.  Returns the (token, weight) list."""
    k = model.attention_weights(example, gen, table, cfg)
    pairs = [(vocab.tokens[tid], float(w)) for tid, w in zip(example.token_ids, k)]
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            for tok, w in pairs:
                fh.write(f"{tok}\t{w:.17g}\n")
    return pairs


def dump_embeddings(gen: GeneratorParams, cfg: ModelConfig, episode: Episode,
                    table: EmbeddingTable, out):
    """CSV of (local label, classifier input representation) for the query set."""
    rows = [(y, model.encode(ex, gen, table, cfg)[:-1]) for ex, y in episode.query]
    width = len(rows[0][1])
    with open(out, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["label"] + [f"s{i + 1}" for i in range(width)])
        for y, feat in rows:
            w.writerow([y] + [f"{v:.17g}" for v in feat])
    return rows


# ---------------------------------------------------------------------------
# gradient checking


def _tiny_instance(seed: int):
    """A small random episode + model for finite-difference checks: a 2-way
    1-shot 2-query episode from 4 classes of 5 sentences, d = 6, H = 4."""
    rng = np.random.default_rng(seed)
    vocab = Vocab.from_tokens([f"t{i}" for i in range(12)])
    table = EmbeddingTable(matrix=rng.normal(size=(len(vocab), 6)), dim=6)
    # full-length (5-token) sentences keep recurrent-weight gradients well
    # away from the float64 noise floor of the difference quotient
    parsed = [(tuple(int(i) for i in rng.integers(0, len(vocab), size=5)), c)
              for c in range(4) for _ in range(5)]
    dataset = make_dataset(parsed, [f"c{c}" for c in range(4)], vocab)
    cfg = ModelConfig(dim=6, hidden=4, lam=1.0, max_len=5, disc_hidden=(16, 8))
    spec = EpisodeSpec(n_way=2, k_shot=1, l_query=2)
    episode = sample_episode(dataset, dataset.classes, spec, rng)
    gen = GeneratorParams.init(cfg, rng)
    disc = DiscriminatorParams.init(cfg.encoder_dim, cfg.disc_hidden, rng)
    return episode, gen, disc, cfg, table


def run_gradient_checks(seed: int = 0, n_coords: int = 200) -> dict[str, float]:
    """Finite-difference checks of the two trained losses on a tiny instance.

    Returns max relative errors keyed by loss name; both must come in under
    1e-5 for the analytic backward passes to be trusted.  The steps differ
    per loss: the generator objective has coordinates with gradients near
    1e-7 where a 1e-5 step leaves the difference quotient dominated by
    float64 cancellation, so it uses 1e-4; the discriminator keeps the small
    step, which also avoids straddling its ReLU kinks.  A wrong backward
    pass shows errors orders of magnitude above the bar either way.
    """
    episode, gen, disc, cfg, table = _tiny_instance(seed)
    fwd = model.episode_forward(episode, gen, cfg, table)
    clf, _ = model.fit_episode_classifier(fwd, cfg.lam)
    rng = np.random.default_rng(seed + 1)

    def disc_loss_fn():
        # re-forward so perturbed discriminator weights are observed
        return model.discriminator_loss_and_grads(fwd, disc)

    def gen_loss_fn():
        # generator weights may have been perturbed: recompute the features
        f = model.episode_forward(episode, gen, cfg, table)
        loss, _ = model.generator_loss_and_grads(f, clf, gen, disc, cfg)
        return loss

    return {
        "disc_loss_wrt_mu": nn.grad_check(disc_loss_fn, disc.values, disc.grads,
                                          eps=1e-5, n_coords=n_coords, rng=rng),
        "gen_loss_wrt_beta": nn.grad_check(gen_loss_fn, gen.values, gen.grads,
                                           eps=1e-4, n_coords=n_coords, rng=rng),
    }


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, gen: GeneratorParams, disc: DiscriminatorParams,
                    model_cfg: ModelConfig):
    """Write generator + discriminator + config as one JSON container,
    ``{"format_version", "arrays": {name: {"shape", "data"}}, "config"}``.
    Floats are shortest round-trip decimals, so a load is bit-exact.  Each
    array is encoded on its own by ``json.dumps`` (the C encoder), in the
    bytes one ``json.dumps`` of the whole payload gives."""
    params = {**gen.named_params(), **disc.named_params()}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"format_version": {CHECKPOINT_FORMAT_VERSION}, "arrays": {{')
        for n, (name, p) in enumerate(params.items()):
            fh.write(f"{', ' if n else ''}{json.dumps(name)}: ")
            fh.write(json.dumps({"shape": list(p.value.shape),
                                 "data": p.value.ravel().tolist()}))
        fh.write('}, "config": ' + json.dumps(dataclasses.asdict(model_cfg)) + "}")


_CONFIG_TYPES = {"dim": (int,), "hidden": (int,), "lam": (int, float), "max_len": (int,),
                 "no_adversarial": (bool,), "concat_fusion": (bool,), "disc_hidden": (list,)}


def _read_model_config(d: dict) -> ModelConfig:
    """The config ``save_checkpoint`` wrote.  A value of another JSON type
    than its field is written as (a bool is no number; disc_hidden lists
    integers) raises TypeError naming the key; keys that are no field raise
    ValueError naming them."""
    for key, allowed in _CONFIG_TYPES.items():
        if type(d[key]) not in allowed or (
                key == "disc_hidden" and {type(h) for h in d[key]} - {int}):
            raise TypeError(f"{key} has a value of the wrong type: {d[key]!r}")
    unknown = sorted(d.keys() - _CONFIG_TYPES.keys())
    if unknown:
        raise ValueError(f"unknown keys {unknown}")
    return ModelConfig(**{**d, "disc_hidden": tuple(d["disc_hidden"])})


def _read_array(spec: dict) -> np.ndarray:
    """An array as ``save_checkpoint`` writes it: ``data`` a flat list of
    numbers and ``shape`` non-negative integers that it fills.  Strings,
    booleans or nested lists in ``data``, or a -1 in ``shape``, which
    reshape would infer, raise ValueError."""
    data, shape = np.asarray(spec["data"]), spec["shape"]
    if data.ndim != 1 or data.dtype.kind not in "iuf" or (
            {type(n) for n in shape} - {int} or min(shape, default=0) < 0):
        raise ValueError(f"need flat numeric data and a non-negative integer shape, "
                         f"got {data.ndim}-d {data.dtype} data and shape {shape!r}")
    return data.astype(np.float64, copy=False).reshape(shape)


def _parse_array(obj: dict) -> dict:
    """``parse_json``'s object_hook for a checkpoint: a well-formed
    ``{shape, data}`` object's list becomes its flat float64 array as soon
    as it is parsed, so no more than one array's Python floats are alive at
    once.  Anything else stays as parsed, for load_checkpoint's checks."""
    try:
        obj["data"] = _read_array(obj).ravel()
    except (KeyError, TypeError, ValueError):
        pass
    return obj


def load_checkpoint(path):
    """Read a checkpoint; returns (gen, disc, model_cfg), the parameters
    built for the stored config.  Every fault in the container, its arrays
    or its config raises DataError naming the file."""
    payload = parse_json(read_utf8(path, "checkpoint"), path, "checkpoint", _parse_array)
    if not isinstance(payload, dict) or not isinstance(payload.get("arrays", {}), dict):
        raise DataError(f"{path}: checkpoint is not a named-array container")
    version = payload.get("format_version")
    if type(version) is not int or version != CHECKPOINT_FORMAT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint format version {version!r}")
    arrays = payload.get("arrays", {})
    for name, spec in arrays.items():   # each list becomes an array in place
        try:
            arrays[name] = _read_array(spec)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed array {name}: {exc!r}") from None
    try:  # a config no parameters can be built for is bad too
        model_cfg = _read_model_config(payload.get("config") or {})
        rng = np.random.default_rng(0)
        gen = GeneratorParams.init(model_cfg, rng)
        disc = DiscriminatorParams.init(model_cfg.encoder_dim, model_cfg.disc_hidden, rng)
    except (KeyError, TypeError, ValueError, OverflowError, MemoryError) as exc:
        raise DataError(f"{path}: bad model config: {exc!r}") from None
    params = {**gen.named_params(), **disc.named_params()}
    for name in sorted(params.keys() | arrays.keys()):
        if name not in arrays:
            raise DataError(f"{path}: missing array {name}")
        if name not in params:
            raise DataError(f"{path}: unexpected array {name}")
        if arrays[name].shape != params[name].value.shape:
            raise DataError(f"{path}: array {name} has shape {arrays[name].shape}, "
                            f"its config needs {params[name].value.shape}")
        if not np.isfinite(arrays[name]).all():
            raise DataError(f"{path}: array {name} holds a non-finite weight")
        params[name].value[...] = arrays[name]
    return gen, disc, model_cfg
