"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
A data error is an unreadable or malformed input, or a config or episode
shape that the corpus cannot serve; ``train``, ``eval`` and
``sample-episodes`` refuse both before any output.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import harness
from .corpus import (DataError, Example, Vocab, load_embeddings,
                     load_jsonl_dataset, split_classes, tokenize)
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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open config {path}: {exc}") from None
    text_stripped = text.strip()
    if text_stripped.startswith("{"):
        try:
            return json.loads(text_stripped)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid config JSON: {exc.msg}") from None
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


_CONFIG_DEFAULTS = {
    "epochs": 50, "episodes_per_epoch": 100, "patience": 20, "seed": 0,
    "val_episodes": 100, "lr": 0.001, "source_excludes": "all",
    "n_way": 5, "k_shot": 1, "l_query": 5,
    "n_train_classes": None, "n_val_classes": None, "n_test_classes": None,
    "hidden": 128, "lam": 1.0, "max_len": 500,
    "no_adversarial": False, "concat_fusion": False,
    "disc_hidden1": 256, "disc_hidden2": 128,
}
_SPLIT_KEYS = ("n_train_classes", "n_val_classes", "n_test_classes")

_BOOL_KEYS = {"no_adversarial", "concat_fusion"}
_FLOAT_KEYS = {"lr", "lam"}
_STR_KEYS = {"source_excludes"}
_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _coerce_value(key: str, val):
    """``val`` as the type of config key ``key``; DataError if it has another type."""
    if key in _BOOL_KEYS:
        if isinstance(val, int) and val in (0, 1):  # True and False are ints too
            return bool(val)
        if isinstance(val, str) and val.lower() in _TRUE + _FALSE:
            return val.lower() in _TRUE
    elif key in _STR_KEYS:
        if isinstance(val, str):
            return val
    elif not isinstance(val, bool):
        conv, types = (float, (str, int, float)) if key in _FLOAT_KEYS else (int, (str, int))
        if isinstance(val, types):
            try:
                return conv(val)
            except ValueError:
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
        spec = EpisodeSpec(n_way=cfg["n_way"], k_shot=cfg["k_shot"], l_query=cfg["l_query"])
        train_cfg = TrainConfig(spec=spec, epochs=cfg["epochs"],
                                episodes_per_epoch=cfg["episodes_per_epoch"],
                                patience=cfg["patience"], seed=cfg["seed"],
                                val_episodes=cfg["val_episodes"], lr=cfg["lr"],
                                source_excludes=cfg["source_excludes"])
        model_cfg = ModelConfig(dim=table.dim, hidden=cfg["hidden"], lam=cfg["lam"],
                                no_adversarial=cfg["no_adversarial"],
                                concat_fusion=cfg["concat_fusion"], max_len=cfg["max_len"],
                                disc_hidden=(cfg["disc_hidden1"], cfg["disc_hidden2"]))
    except ValueError as exc:
        raise DataError(f"config: {exc}") from None
    try:  # the shape every draw from each split must serve, before any output
        harness.check_split(dataset, split, train_cfg)
    except ValueError as exc:
        raise DataError(str(exc)) from None

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "split.json", "w", encoding="utf-8") as fh:
        json.dump({"train_classes": sorted(split.train_classes),
                   "val_classes": sorted(split.val_classes),
                   "test_classes": sorted(split.test_classes),
                   "label_names": list(dataset.label_names)}, fh, indent=2)

    result = harness.train(dataset, split, train_cfg, model_cfg, table, out_dir=out)
    print(json.dumps({"best_epoch": result.best_epoch,
                      "best_val_accuracy": result.best_val_accuracy,
                      "epochs_run": result.epochs_run,
                      "checkpoint": str(out / "checkpoint.json")}))
    return EXIT_OK


def _read_split(path) -> tuple[set, set]:
    """(test classes, train classes) from a split.json written by ``train``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            split = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise DataError(f"cannot read split file {path}: {exc}") from None
    if not isinstance(split, dict):
        raise DataError(f"{path}: a split must be a JSON object, got {type(split).__name__}")

    def classes(key):
        ids = split.get(key)
        if not isinstance(ids, list) or not all(
                isinstance(c, int) and not isinstance(c, bool) for c in ids):
            raise DataError(f"{path}: {key} must be a list of integer class ids, got {ids!r}")
        return set(ids)

    return classes("test_classes"), classes("train_classes")


def _cmd_eval(args) -> int:
    gen, disc, model_cfg = harness.load_checkpoint(args.checkpoint)
    dataset = load_jsonl_dataset(args.data, label_field=args.label_field,
                                 text_field=args.text_field, max_len=model_cfg.max_len)
    table = load_embeddings(args.embeddings, dataset.vocab)
    if table.dim != model_cfg.dim:
        raise DataError(f"embedding dimension {table.dim} does not match "
                        f"checkpoint dimension {model_cfg.dim}")

    train_classes = None
    if args.split:
        test_classes, train_classes = _read_split(args.split)
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
    dataset, table, vocab = harness.gen_synthetic_corpus(
        n_classes=args.n_classes, examples_per_class=args.examples_per_class,
        sentence_len=args.sentence_len, keywords_per_class=args.keywords_per_class,
        vocab_noise_size=args.noise_vocab, d=args.dim, seed=args.seed)
    corpus_path, vec_path = harness.write_corpus_files(dataset, table, args.out)
    keywords = {dataset.label_names[c]: sorted(vocab.tokens[i] for i in ids)
                for c, ids in harness.keyword_token_ids(vocab).items()}
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
    gen, disc, model_cfg = harness.load_checkpoint(args.checkpoint)
    toks = tokenize(args.text)
    if not toks:
        raise DataError("text tokenizes to nothing")
    vocab = Vocab.from_tokens(dict.fromkeys(toks))
    table = load_embeddings(args.embeddings, vocab)
    if table.dim != model_cfg.dim:
        raise DataError(f"embedding dimension {table.dim} does not match "
                        f"checkpoint dimension {model_cfg.dim}")
    example = Example(token_ids=tuple(vocab.index[t] for t in toks), label=0)
    pairs = harness.dump_attention(gen, model_cfg, example, table, vocab, out=args.out)
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

    p = sub.add_parser("train", help="meta-train on a JSON-lines corpus")
    p.add_argument("--data", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--config", default=None, help="JSON or key=value file")
    p.add_argument("--out", required=True)
    p.add_argument("--label-field", default="label")
    p.add_argument("--text-field", default="text")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="episodic evaluation of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--split", default=None,
                   help="split.json from training; defaults to all classes")
    p.add_argument("--n-episodes", type=int, default=1000)
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("--n-way", type=int, default=5)
    p.add_argument("--k-shot", type=int, default=1)
    p.add_argument("--l-query", type=int, default=5)
    p.add_argument("--label-field", default="label")
    p.add_argument("--text-field", default="text")
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

    p = sub.add_parser("dump-attention", help="attention weights for a sentence")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_dump_attention)

    p = sub.add_parser("sample-episodes", help="print sampled episode composition")
    p.add_argument("--data", required=True)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--n-way", type=int, default=5)
    p.add_argument("--k-shot", type=int, default=1)
    p.add_argument("--l-query", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--label-field", default="label")
    p.add_argument("--text-field", default="text")
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
