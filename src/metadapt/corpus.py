"""Text corpora, vocabularies, and pretrained word embeddings.

Datasets are JSON-lines files (one object per line, configurable text/label
fields).  Embeddings are plain-text files in the common ``token f1 ... fd``
format with an optional ``V d`` header line.  This module reads and writes
both formats, and makes seeded synthetic keyword corpora.  Everything here
is immutable after construction and safe to share between threads read-only.
"""

from __future__ import annotations

import json
import logging
import string
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

_STRIP = string.punctuation


class DataError(Exception):
    """Malformed or missing input data."""


def read_utf8(path, what: str) -> str:
    """The whole of a UTF-8 text file, line breaks read as ``\\n``; raises
    DataError as _text_lines does."""
    return "".join(line for _, line in _text_lines(path, what))


def parse_json(text: str, where, what: str, object_hook=None):
    """``text`` parsed as JSON.  Every parse failure raises DataError naming
    ``where`` (a file, or ``file:line``): bad syntax, an integer longer than
    Python converts, and nesting deeper than the parser recurses."""
    try:
        return json.loads(text, object_hook=object_hook)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise DataError(f"{where}: invalid {what} JSON: {getattr(exc, 'msg', exc)}") from None


def _text_lines(path, what: str):
    """(line number, line) of a UTF-8 text file, counted from 1 as text-mode
    iteration breaks lines; a file that cannot be opened or decoded raises
    DataError naming it, and the first line that does not decode."""
    try:
        fh = open(path, "r", encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise DataError(f"cannot open {what} {path}: {exc}") from None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                # a byte that does not decode was read as a lone surrogate,
                # which turns back into that byte and fails again
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DataError(f"{path}:{lineno}: not UTF-8 text: {exc}") from None
            yield lineno, line


@dataclass(frozen=True)
class Vocab:
    """Unique token strings with contiguous 0-based ids."""

    tokens: tuple[str, ...]
    index: dict[str, int] = field(repr=False)

    @classmethod
    def from_tokens(cls, tokens) -> "Vocab":
        toks = tuple(tokens)
        index = {t: i for i, t in enumerate(toks)}
        if len(index) != len(toks):
            raise ValueError("duplicate tokens in vocabulary")
        return cls(tokens=toks, index=index)

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class EmbeddingTable:
    """Word-vector matrix, one row per vocab token."""

    matrix: np.ndarray  # V x d, float64
    dim: int
    oov_count: int = 0


@dataclass(frozen=True)
class Example:
    """One sentence as vocab ids plus its global class id."""

    token_ids: tuple[int, ...]
    label: int


@dataclass(frozen=True)
class Dataset:
    examples: tuple[Example, ...]
    classes: frozenset[int]
    # class id -> read-only intp array of its examples' positions
    class_index: dict[int, np.ndarray] = field(repr=False, compare=False)
    vocab: Vocab = field(repr=False)
    label_names: tuple[str, ...] = ()
    skipped: int = 0

    def __len__(self) -> int:
        return len(self.examples)


@dataclass(frozen=True)
class ClassSplit:
    """Pairwise-disjoint train/val/test class-id sets."""

    train_classes: frozenset[int]
    val_classes: frozenset[int]
    test_classes: frozenset[int]

    def __post_init__(self):
        if (self.train_classes & self.val_classes
                or self.train_classes & self.test_classes
                or self.val_classes & self.test_classes):
            raise ValueError("class split sets must be pairwise disjoint")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip surrounding punctuation per token.

    Tokens that are empty after stripping are dropped.
    """
    out = []
    for raw in text.lower().split():
        tok = raw.strip(_STRIP)
        if tok:
            out.append(tok)
    return out


def make_dataset(parsed, label_names, vocab, skipped=0) -> Dataset:
    """Assemble a Dataset from (token_ids, label) pairs."""
    examples = tuple(Example(token_ids=tuple(ids), label=lab) for ids, lab in parsed)
    positions: dict[int, list[int]] = {}
    for i, ex in enumerate(examples):
        positions.setdefault(ex.label, []).append(i)
    class_index = {c: np.array(ix, dtype=np.intp) for c, ix in positions.items()}
    for ix in class_index.values():
        ix.flags.writeable = False
    return Dataset(
        examples=examples,
        classes=frozenset(class_index),
        class_index=class_index,
        vocab=vocab,
        label_names=tuple(label_names),
        skipped=skipped,
    )


def load_jsonl_dataset(path, label_field: str = "label", text_field: str = "text",
                       max_len: int = 500) -> Dataset:
    """Read a JSON-lines corpus into token-id examples with dense class ids.

    Labels are mapped to ids in first-appearance order; the vocabulary is
    built from the corpus in first-appearance order.  Sentences longer than
    ``max_len`` tokens are truncated; lines whose text tokenizes to nothing
    are skipped with a warning.  A ``max_len`` below 1 raises ValueError.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    # id = insertion position: the keys are the vocabulary and the label names
    token_ids: dict[str, int] = {}
    label_ids: dict[str, int] = {}
    parsed: list[tuple[tuple[int, ...], int]] = []
    skipped = 0
    for lineno, line in _text_lines(path, "dataset"):
        if not line.strip():
            continue
        obj = parse_json(line, f"{path}:{lineno}", "dataset")
        if not isinstance(obj, dict) or label_field not in obj or text_field not in obj:
            raise DataError(
                f"{path}:{lineno}: object missing field '{label_field}' or '{text_field}'")
        toks = tokenize(str(obj[text_field]))[:max_len]
        if not toks:
            skipped += 1
            continue
        label = label_ids.setdefault(str(obj[label_field]), len(label_ids))
        parsed.append((tuple(token_ids.setdefault(t, len(token_ids)) for t in toks), label))
    if skipped:
        logger.warning("%s: skipped %d line(s) with empty text after tokenization",
                       path, skipped)
    if not parsed:
        raise DataError(f"{path}: no examples")
    return make_dataset(parsed, label_ids, Vocab.from_tokens(token_ids), skipped)


def _is_header(parts: list[str]) -> bool:
    if len(parts) != 2:
        return False
    try:
        int(parts[0]), int(parts[1])
    except ValueError:
        return False
    return True


def load_embeddings(path, vocab: Vocab) -> EmbeddingTable:
    """Load vectors for ``vocab`` tokens from a text embedding file.

    Tokens absent from the file get the zero vector; the OOV count is
    reported on the returned table and logged.  Every line is checked for a
    consistent dimension; numeric values are only parsed for tokens the
    vocabulary actually uses.
    """
    dim = None
    rows: dict[int, np.ndarray] = {}
    first = True
    for lineno, line in _text_lines(path, "embedding file"):
        parts = line.rstrip("\n").split()
        if not parts:
            continue
        if first:
            first = False
            if _is_header(parts):
                dim = int(parts[1])
                if dim <= 0:
                    raise DataError(f"{path}: header declares dimension {dim}")
                continue
        token, vals = parts[0], parts[1:]
        if dim is None:
            dim = len(vals)
            if dim == 0:
                raise DataError(f"{path}:{lineno}: no values for token '{token}'")
        elif len(vals) != dim:
            raise DataError(
                f"{path}:{lineno}: dimension mismatch for token '{token}': "
                f"got {len(vals)}, expected {dim}")
        tid = vocab.index.get(token)
        if tid is None or tid in rows:
            continue
        try:
            rows[tid] = np.array([float(v) for v in vals], dtype=np.float64)
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric value for token '{token}'") from None
    if dim is None:
        raise DataError(f"{path}: empty embedding file")
    matrix = np.zeros((len(vocab), dim), dtype=np.float64)
    for tid, vec in rows.items():
        matrix[tid] = vec
    if not np.isfinite(matrix).all():
        raise DataError(f"{path}: non-finite embedding values")
    oov = len(vocab) - len(rows)
    if oov:
        logger.warning("%s: %d of %d vocab tokens missing from embedding file (zero rows)",
                       path, oov, len(vocab))
    return EmbeddingTable(matrix=matrix, dim=dim, oov_count=oov)


def write_corpus_files(dataset: Dataset, table: EmbeddingTable, out_dir):
    """Write a dataset as corpus.jsonl + embeddings.vec, the formats
    load_jsonl_dataset (with its default fields) and load_embeddings read."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for ex in dataset.examples:
            text = " ".join(dataset.vocab.tokens[i] for i in ex.token_ids)
            fh.write(json.dumps({"text": text, "label": dataset.label_names[ex.label]}) + "\n")
    with open(out / "embeddings.vec", "w", encoding="utf-8") as fh:
        fh.write(f"{len(dataset.vocab)} {table.dim}\n")
        for i, tok in enumerate(dataset.vocab.tokens):
            vals = " ".join(f"{v:.17g}" for v in table.matrix[i])
            fh.write(f"{tok} {vals}\n")
    return out / "corpus.jsonl", out / "embeddings.vec"


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


def split_classes(classes, counts: tuple[int, int, int], rng: np.random.Generator) -> ClassSplit:
    """Sample disjoint train/val/test class sets of the requested sizes."""
    n_train, n_val, n_test = counts
    if min(n_train, n_val, n_test) < 0:
        raise ValueError("split counts must be non-negative")
    pool = sorted(classes)
    total = n_train + n_val + n_test
    if total > len(pool):
        raise ValueError(f"split counts {counts} exceed {len(pool)} available classes")
    order = rng.permutation(len(pool))
    picked = [pool[i] for i in order[:total]]
    return ClassSplit(
        train_classes=frozenset(picked[:n_train]),
        val_classes=frozenset(picked[n_train:n_train + n_val]),
        test_classes=frozenset(picked[n_train + n_val:]),
    )


def embed_sentence(example: Example, table: EmbeddingTable) -> np.ndarray:
    """d x m matrix whose column i is the embedding row of token i."""
    ids = np.asarray(example.token_ids, dtype=np.intp)
    if ids.size == 0:
        raise ValueError("cannot embed an empty example")
    check_token_ids(ids, table)
    return np.ascontiguousarray(table.matrix[ids].T)


def check_token_ids(ids: np.ndarray, table: EmbeddingTable) -> None:
    """Raise ValueError unless every id of the non-empty array is a row of
    the table."""
    if ids.min() < 0 or ids.max() >= table.matrix.shape[0]:
        raise ValueError("token id out of range for embedding table")
