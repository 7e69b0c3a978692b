"""Meta-training with early stopping, episodic evaluation, synthetic corpora,
metric persistence, and attention/embedding dumps."""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import model, nn
from .corpus import (ClassSplit, DataError, Dataset, EmbeddingTable, Example, Vocab,
                     make_dataset)
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


def sample_eval_episodes(dataset: Dataset, classes, spec: EpisodeSpec, n_episodes: int,
                         rng: np.random.Generator) -> list[Episode]:
    """``n_episodes`` evaluation episodes (no source set) drawn in order from ``rng``."""
    return [sample_episode(dataset, classes, spec, rng, with_source=False)
            for _ in range(n_episodes)]


def evaluate_episodes(gen: GeneratorParams, cfg: ModelConfig, table: EmbeddingTable,
                      episodes) -> list[float]:
    """Per-episode query accuracies of already sampled episodes of one shape,
    with frozen generator parameters.

    The call's distinct examples are encoded once each, in first-seen
    order and forward only (``gen_forward(..., cache=False)`` keeps nothing
    for BPTT).  Its batches hold at most the sentences one training episode
    of the same shape encodes in its single pass, N(K+2L) with the source
    set or N(K+L) under ``no_adversarial``, so no batch is larger than a
    training batch.  The features (dataset index -> classifier input, bias
    appended) live for this call only.  Every ridge head is then fit in one
    stacked dual solve, and each episode is scored on its own.
    """
    if not episodes:
        return []
    first = episodes[0]
    batch = len(first.support) + len(first.query) * (1 if cfg.no_adversarial else 2)
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


def check_split(dataset: Dataset, split: ClassSplit, cfg: TrainConfig):
    """ValueError, naming the split, if some training draw (with its source
    set) or validation draw could not be served; see ``check_classes``."""
    for name, classes, excludes in (("train", split.train_classes, cfg.source_excludes),
                                    ("validation", split.val_classes, None)):
        try:
            check_classes(dataset, classes, cfg.spec, excludes)
        except ValueError as exc:
            raise ValueError(f"{name} split: {exc}") from None


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
    supplies wall-time stamps for the metrics records.  A split whose
    classes cannot serve ``cfg.spec`` is refused before any output
    (``check_split``).
    """
    check_split(dataset, split, cfg)
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    ss = np.random.SeedSequence(cfg.seed)
    s_init, s_train, s_val = ss.spawn(3)
    init_rng = np.random.default_rng(s_init)
    train_rng = np.random.default_rng(s_train)
    # the same validation episodes every epoch, so accuracies are comparable
    val_episodes = sample_eval_episodes(dataset, split.val_classes, cfg.spec,
                                        cfg.val_episodes,
                                        np.random.default_rng(s_val.generate_state(1)[0]))

    gen = GeneratorParams.init(model_cfg, init_rng)
    disc = DiscriminatorParams.init(model_cfg.encoder_dim, model_cfg.disc_hidden, init_rng)
    opt_gen = AdamState(lr=cfg.lr)
    opt_disc = AdamState(lr=cfg.lr)

    history: list[MetricsRecord] = []
    val_accuracies: list[float] = []
    best = (gen.values.copy(), disc.values.copy())
    best_acc = -math.inf
    best_epoch = -1
    since_improved = 0
    t0 = clock()

    metrics_fh = open(out / "metrics.jsonl", "w", encoding="utf-8") if out else None
    try:
        epochs_run = 0
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
            epochs_run = epoch + 1

            val_acc = float(np.mean(evaluate_episodes(gen, model_cfg, table, val_episodes)))
            val_accuracies.append(val_acc)
            if metrics_fh:
                metrics_fh.flush()

            if val_acc > best_acc:
                best_acc = val_acc
                best_epoch = epoch
                best = (gen.values.copy(), disc.values.copy())
                since_improved = 0
            else:
                since_improved += 1
            logger.info("epoch %d: val accuracy %.4f (best %.4f at epoch %d)",
                        epoch, val_acc, best_acc, best_epoch)
            if since_improved >= cfg.patience:
                logger.info("early stop after epoch %d", epoch)
                break
    finally:
        if metrics_fh:
            metrics_fh.close()

    gen.values[...], disc.values[...] = best
    if out is not None:
        _write_csv_summary(out / "metrics.csv", history, val_accuracies,
                           cfg.episodes_per_epoch)
        save_checkpoint(out / "checkpoint.json", gen, disc, model_cfg)

    return TrainResult(gen=gen, disc=disc, model_cfg=model_cfg,
                       history=history, val_accuracies=val_accuracies,
                       best_epoch=best_epoch, best_val_accuracy=best_acc,
                       epochs_run=epochs_run)


def _write_csv_summary(path, history, val_accuracies, episodes_per_epoch):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "ridge_loss", "disc_loss", "gen_loss",
                    "train_accuracy", "val_accuracy"])
        for epoch, val_acc in enumerate(val_accuracies):
            rows = [r.metrics for r in
                    history[epoch * episodes_per_epoch:(epoch + 1) * episodes_per_epoch]]
            if not rows:
                break
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
    episodes = [ep for seed in seeds
                for ep in sample_eval_episodes(dataset, test_classes, spec, n_episodes,
                                               np.random.default_rng(seed))]
    arr = np.asarray(evaluate_episodes(gen, cfg, table, episodes))
    n = arr.size
    std = float(arr.std(ddof=1)) if n > 1 else 0.0
    ci = 1.96 * std / math.sqrt(n) if n > 1 else 0.0
    return EvalReport(mean_accuracy=float(arr.mean()), std=std, ci95=ci,
                      per_episode=tuple(float(a) for a in arr),
                      n_episodes=n_episodes, seeds=tuple(seeds))


# ---------------------------------------------------------------------------
# synthetic corpus


def gen_synthetic_corpus(n_classes: int, examples_per_class: int, sentence_len: int,
                         keywords_per_class: int, vocab_noise_size: int, d: int,
                         seed: int):
    """Desk-scale corpus whose class signal lives only in per-class keywords.

    Each class owns a disjoint keyword set; every sentence carries 1-3
    keyword occurrences from its own class at random positions, surrounded
    by distractor tokens shared across classes.  Embeddings are seeded
    random unit vectors, so an encoder must attend to the keywords to
    separate classes.  Returns (Dataset, EmbeddingTable, Vocab).
    """
    if min(n_classes, examples_per_class, sentence_len, keywords_per_class,
           vocab_noise_size, d) < 1:
        raise ValueError("all synthetic-corpus parameters must be >= 1")
    if sentence_len < 4:
        raise ValueError("sentence_len must be >= 4 to fit keywords and distractors")

    rng = np.random.default_rng(seed)
    kw_tokens = [[f"kw{c}_{j}" for j in range(keywords_per_class)]
                 for c in range(n_classes)]
    noise_tokens = [f"w{i}" for i in range(vocab_noise_size)]
    vocab = Vocab.from_tokens([t for kws in kw_tokens for t in kws] + noise_tokens)

    matrix = rng.normal(size=(len(vocab), d))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    table = EmbeddingTable(matrix=matrix, dim=d)

    noise_ids = np.array([vocab.index[t] for t in noise_tokens], dtype=np.intp)
    parsed = []
    for c in range(n_classes):
        kw_ids = np.array([vocab.index[t] for t in kw_tokens[c]], dtype=np.intp)
        for _ in range(examples_per_class):
            sent = noise_ids[rng.integers(0, vocab_noise_size, size=sentence_len)].copy()
            n_kw = int(rng.integers(1, 4))
            pos = rng.choice(sentence_len, size=n_kw, replace=False)
            # cycle a shuffled keyword order so occurrences cover distinct
            # keywords before repeating any
            order = rng.permutation(keywords_per_class)
            for idx, p in enumerate(pos):
                sent[p] = kw_ids[order[idx % keywords_per_class]]
            parsed.append((tuple(int(t) for t in sent), c))
    label_names = [f"class_{c}" for c in range(n_classes)]
    return make_dataset(parsed, label_names, vocab), table, vocab


def keyword_token_ids(vocab: Vocab) -> dict[int, frozenset[int]]:
    """Class id -> keyword token ids for a synthetic corpus, parsed from the
    ``kw{class}_{j}`` naming convention."""
    out: dict[int, set[int]] = {}
    for i, t in enumerate(vocab.tokens):
        if t.startswith("kw") and "_" in t:
            head = t[2:t.index("_")]
            if head.isdigit():
                out.setdefault(int(head), set()).add(i)
    return {c: frozenset(ids) for c, ids in out.items()}


def write_corpus_files(dataset: Dataset, table: EmbeddingTable, out_dir,
                       text_field: str = "text", label_field: str = "label"):
    """Write a dataset as corpus.jsonl + embeddings.vec in the standard formats."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for ex in dataset.examples:
            text = " ".join(dataset.vocab.tokens[i] for i in ex.token_ids)
            fh.write(json.dumps({text_field: text,
                                 label_field: dataset.label_names[ex.label]}) + "\n")
    with open(out / "embeddings.vec", "w", encoding="utf-8") as fh:
        fh.write(f"{len(dataset.vocab)} {table.dim}\n")
        for i, tok in enumerate(dataset.vocab.tokens):
            vals = " ".join(f"{v:.17g}" for v in table.matrix[i])
            fh.write(f"{tok} {vals}\n")
    return out / "corpus.jsonl", out / "embeddings.vec"


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


def _tiny_instance(seed: int, dim: int = 6, hidden: int = 4, n_way: int = 2,
                   k_shot: int = 1, l_query: int = 2, max_tokens: int = 5):
    """A small random episode + model for finite-difference checks."""
    rng = np.random.default_rng(seed)
    n_classes = n_way + 2
    per_class = k_shot + l_query + 2
    vocab = Vocab.from_tokens([f"t{i}" for i in range(12)])
    matrix = rng.normal(size=(len(vocab), dim))
    table = EmbeddingTable(matrix=matrix, dim=dim)
    parsed = []
    for c in range(n_classes):
        for _ in range(per_class):
            # full-length sentences keep recurrent-weight gradients well away
            # from the float64 noise floor of the difference quotient
            ids = tuple(int(i) for i in rng.integers(0, len(vocab), size=max_tokens))
            parsed.append((ids, c))
    dataset = make_dataset(parsed, [f"c{c}" for c in range(n_classes)], vocab)
    cfg = ModelConfig(dim=dim, hidden=hidden, lam=1.0, max_len=max_tokens,
                      disc_hidden=(16, 8))
    spec = EpisodeSpec(n_way=n_way, k_shot=k_shot, l_query=l_query)
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


def load_checkpoint(path):
    """Read a checkpoint; returns (gen, disc, model_cfg), the parameters
    built for the stored config.  Every fault in the container, its arrays
    or its config raises DataError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot open checkpoint {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid checkpoint JSON: {exc.msg}") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("arrays", {}), dict):
        raise DataError(f"{path}: checkpoint is not a named-array container")
    version = payload.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint format version {version!r}")
    arrays = payload.get("arrays", {})
    for name, spec in arrays.items():   # each list becomes an array in place
        try:
            arrays[name] = np.asarray(spec["data"], dtype=np.float64).reshape(spec["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed array {name}: {exc!r}") from None
    try:
        model_cfg = ModelConfig.from_dict(payload.get("config") or {})
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad model config: {exc!r}") from None
    rng = np.random.default_rng(0)
    gen = GeneratorParams.init(model_cfg, rng)
    disc = DiscriminatorParams.init(model_cfg.encoder_dim, model_cfg.disc_hidden, rng)
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
