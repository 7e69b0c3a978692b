"""Command-line interface.

Exit codes: 0 success, 1 usage error or an output that cannot be written,
2 data error, 3 numerical failure.
A data error is an unreadable or malformed input, or a config or episode
shape that the corpus cannot serve; ``train``, ``eval`` and
``sample-episodes`` refuse both before any output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import harness
from .corpus import (DataError, Vocab, gen_synthetic_corpus, keyword_token_ids,
                     load_embeddings, load_jsonl_dataset, make_dataset, parse_json,
                     read_utf8, split_classes, tokenize, write_corpus_files)
from .episodes import EpisodeSpec, check_classes, sample_episode
from .harness import TrainConfig
from .model import ModelConfig
from .nn import NumericalError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_config_file(path) -> dict:
    """Config as JSON or key=value lines."""
    text = read_utf8(path, "config")
    if text.lstrip().startswith("{"):
        return parse_json(text, path, "config")
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value")
        key, val = (s.strip() for s in line.split("=", 1))
        out[key] = val
    return out


def _field_defaults(cls, skip: str) -> dict:
    """A dataclass's field defaults, all but field ``skip``'s."""
    return {f.name: f.default for f in dataclasses.fields(cls) if f.name != skip}


# the episode shape's defaults: config keys of train, options of eval and
# sample-episodes
_SHAPE_DEFAULTS = {"n_way": 5, "k_shot": 1, "l_query": 5}
_SPLIT_KEYS = ("n_train_classes", "n_val_classes", "n_test_classes")
_DISC_KEYS = ("disc_hidden1", "disc_hidden2")
_TRAIN_DEFAULTS = _field_defaults(TrainConfig, "spec")
_MODEL_DEFAULTS = _field_defaults(ModelConfig, "dim")
_DISC_DEFAULTS = dict(zip(_DISC_KEYS, _MODEL_DEFAULTS.pop("disc_hidden")))
_CONFIG_DEFAULTS = {**_TRAIN_DEFAULTS, **_SHAPE_DEFAULTS, **dict.fromkeys(_SPLIT_KEYS),
                    **_MODEL_DEFAULTS, **_DISC_DEFAULTS}
_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _coerce_value(key: str, val):
    """``val`` as the type of config key ``key``'s default (int for a None
    default); DataError if it has another type."""
    default = _CONFIG_DEFAULTS[key]
    kind = int if default is None else type(default)
    if kind is bool:
        if isinstance(val, int) and val in (0, 1):  # True and False are ints too
            return bool(val)
        if isinstance(val, str) and val.lower() in _TRUE + _FALSE:
            return val.lower() in _TRUE
    elif kind is str:
        if isinstance(val, str):
            return val
    elif not isinstance(val, bool):
        if isinstance(val, (str, int, float) if kind is float else (str, int)):
            try:
                return kind(val)
            except (ValueError, OverflowError):  # float() of a huge JSON integer
                pass
    raise DataError(f"config key '{key}' has a value of the wrong type: {val!r}")


def _coerce_config(raw: dict) -> dict:
    cfg = dict(_CONFIG_DEFAULTS)
    for key, val in raw.items():
        if key not in cfg:
            raise DataError(f"unknown config key '{key}'")
        cfg[key] = _coerce_value(key, val)
    return cfg


def _default_split_counts(n_classes: int) -> tuple[int, int, int]:
    n_val = max(1, n_classes // 5)
    n_test = max(1, n_classes // 4)
    return n_classes - n_val - n_test, n_val, n_test


def _cmd_train(args) -> int:
    raw = _parse_config_file(args.config) if args.config else {}
    cfg = _coerce_config(raw)
    try:  # the constructors and loaders check the values' ranges
        missing = [k for k in _SPLIT_KEYS if cfg[k] is None]
        if 0 < len(missing) < len(_SPLIT_KEYS):
            raise ValueError(f"give all or none of {', '.join(_SPLIT_KEYS)}; "
                             f"missing {', '.join(missing)}")
        dataset = load_jsonl_dataset(args.data, label_field=args.label_field,
                                     text_field=args.text_field, max_len=cfg["max_len"])
        table = load_embeddings(args.embeddings, dataset.vocab)
        counts = (_default_split_counts(len(dataset.classes)) if missing
                  else tuple(cfg[k] for k in _SPLIT_KEYS))
        split = split_classes(dataset.classes, counts, np.random.default_rng(cfg["seed"]))
        spec = EpisodeSpec(**{k: cfg[k] for k in _SHAPE_DEFAULTS})
        train_cfg = TrainConfig(spec=spec, **{k: cfg[k] for k in _TRAIN_DEFAULTS})
        model_cfg = ModelConfig(dim=table.dim, **{k: cfg[k] for k in _MODEL_DEFAULTS},
                                disc_hidden=tuple(cfg[k] for k in _DISC_KEYS))
    except ValueError as exc:
        raise DataError(f"config: {exc}") from None

    # a split that cannot serve the episode shape is a SplitError, a DataError
    out = Path(args.out)
    result = harness.train(dataset, split, train_cfg, model_cfg, table, out_dir=out)
    print(json.dumps({"best_epoch": result.best_epoch,
                      "best_val_accuracy": result.best_val_accuracy,
                      "epochs_run": result.epochs_run,
                      "checkpoint": str(out / "checkpoint.json")}))
    return EXIT_OK


def _load_model(args, read_text):
    """The checkpoint, then ``read_text(model_cfg)``'s Dataset, its sentences
    cut to the checkpoint's ``max_len``, then the embeddings of its
    vocabulary, which must have the checkpoint's dimension.  Returns
    (gen, model_cfg, dataset, table)."""
    gen, _, model_cfg = harness.load_checkpoint(args.checkpoint)
    dataset = read_text(model_cfg)
    table = load_embeddings(args.embeddings, dataset.vocab)
    if table.dim != model_cfg.dim:
        raise DataError(f"embedding dimension {table.dim} does not match "
                        f"checkpoint dimension {model_cfg.dim}")
    return gen, model_cfg, dataset, table


def _cmd_eval(args) -> int:
    gen, model_cfg, dataset, table = _load_model(args, lambda cfg: load_jsonl_dataset(
        args.data, label_field=args.label_field, text_field=args.text_field,
        max_len=cfg.max_len))

    train_classes = None
    if args.split:
        test_classes, train_classes = harness.load_split(args.split)
        unknown = (test_classes | train_classes) - dataset.classes
        if unknown:
            raise DataError(f"{args.split}: class ids {sorted(unknown)} are not in the "
                            f"corpus, which has {len(dataset.classes)} classes")
    else:
        test_classes = set(dataset.classes)

    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    # EpisodeSpec and meta_test check the request before any sentence is
    # encoded, so a ValueError from either is one the corpus cannot serve
    try:
        spec = EpisodeSpec(n_way=args.n_way, k_shot=args.k_shot, l_query=args.l_query)
        report = harness.meta_test(gen, model_cfg, table, dataset, test_classes, spec,
                                   n_episodes=args.n_episodes, seeds=seeds,
                                   train_classes=train_classes)
    except ValueError as exc:
        raise DataError(f"eval: {exc}") from None
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK


def _cmd_synth(args) -> int:
    dataset, table, vocab = gen_synthetic_corpus(
        n_classes=args.n_classes, examples_per_class=args.examples_per_class,
        sentence_len=args.sentence_len, keywords_per_class=args.keywords_per_class,
        vocab_noise_size=args.noise_vocab, d=args.dim, seed=args.seed)
    corpus_path, vec_path = write_corpus_files(dataset, table, args.out)
    keywords = {dataset.label_names[c]: sorted(vocab.tokens[i] for i in ids)
                for c, ids in keyword_token_ids(vocab).items()}
    kw_path = Path(args.out) / "keywords.json"
    with open(kw_path, "w", encoding="utf-8") as fh:
        json.dump(keywords, fh, indent=2, sort_keys=True)
    print(json.dumps({"corpus": str(corpus_path), "embeddings": str(vec_path),
                      "keywords": str(kw_path), "examples": len(dataset),
                      "classes": len(dataset.classes)}))
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    errs = harness.run_gradient_checks(seed=args.seed)
    ok = True
    for name, err in errs.items():
        status = "ok" if err < 1e-5 else "FAIL"
        ok = ok and err < 1e-5
        print(f"{name}: max relative error {err:.3e} [{status}]")
    if not ok:
        print("gradient check failed", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_dump_attention(args) -> int:
    def read_text(cfg):  # as load_jsonl_dataset cuts a corpus line
        if cfg.no_adversarial:
            raise DataError("the plain-encoder ablation produces no attention weights")
        toks = tokenize(args.text)[:cfg.max_len]
        if not toks:
            raise DataError("text tokenizes to nothing")
        vocab = Vocab.from_tokens(dict.fromkeys(toks))
        return make_dataset([([vocab.index[t] for t in toks], 0)], ["text"], vocab)

    gen, model_cfg, text, table = _load_model(args, read_text)
    pairs = harness.dump_attention(gen, model_cfg, text.examples[0], table, text.vocab,
                                   out=args.out)
    for tok, w in pairs:
        print(f"{tok}\t{w:.6f}")
    return EXIT_OK


def _cmd_sample_episodes(args) -> int:
    dataset = load_jsonl_dataset(args.data, label_field=args.label_field,
                                 text_field=args.text_field)
    try:  # sample every episode before printing any
        if args.n < 1:
            raise ValueError(f"--n must be >= 1, got {args.n}")
        spec = EpisodeSpec(n_way=args.n_way, k_shot=args.k_shot, l_query=args.l_query)
        check_classes(dataset, dataset.classes, spec)
        rng = np.random.default_rng(args.seed)
        episodes = [sample_episode(dataset, dataset.classes, spec, rng)
                    for _ in range(args.n)]
    except ValueError as exc:
        raise DataError(f"sample-episodes: {exc}") from None
    for i, ep in enumerate(episodes):
        names = [dataset.label_names[c] for c in ep.episode_classes]
        print(f"episode {i}: classes={names} "
              f"support={list(ep.support_indices)} query={list(ep.query_indices)} "
              f"source={list(ep.source_indices)}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="metadapt",
                     description="Episodic meta-training with an adversarial "
                                 "domain-adaptation network for few-shot text "
                                 "classification.")
    sub = parser.add_subparsers(dest="command", required=True)
    fields = argparse.ArgumentParser(add_help=False)   # a JSON-lines corpus's fields
    fields.add_argument("--label-field", default="label")
    fields.add_argument("--text-field", default="text")
    shape = argparse.ArgumentParser(add_help=False)    # the episode shape
    for key, default in _SHAPE_DEFAULTS.items():
        shape.add_argument("--" + key.replace("_", "-"), type=int, default=default)

    p = sub.add_parser("train", parents=[fields], help="meta-train on a JSON-lines corpus")
    p.add_argument("--data", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--config", default=None, help="JSON or key=value file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", parents=[fields, shape],
                       help="episodic evaluation of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--split", default=None,
                   help="split.json from training; defaults to all classes")
    p.add_argument("--n-episodes", type=int, default=1000)
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="write a synthetic corpus + embeddings")
    p.add_argument("--out", required=True)
    p.add_argument("--n-classes", type=int, default=24)
    p.add_argument("--examples-per-class", type=int, default=50)
    p.add_argument("--sentence-len", type=int, default=12)
    p.add_argument("--keywords-per-class", type=int, default=2)
    p.add_argument("--noise-vocab", type=int, default=30)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("dump-attention",
                       help="attention weights for a sentence, cut to max_len tokens")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_dump_attention)

    p = sub.add_parser("sample-episodes", parents=[fields, shape],
                       help="print sampled episode composition")
    p.add_argument("--data", required=True)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sample_episodes)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, MemoryError) as exc:
        # every input loader turns a file it cannot open, decode or parse
        # into a DataError, so an OSError here is an output that cannot be
        # written, a ValueError an argument the command cannot serve and a
        # MemoryError a model too large for this machine
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
