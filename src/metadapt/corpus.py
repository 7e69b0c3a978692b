"""Text corpora, vocabularies, and pretrained word embeddings.

Datasets are JSON-lines files (one object per line, configurable text/label
fields).  Embeddings are plain-text files in the common ``token f1 ... fd``
format with an optional ``V d`` header line.  Everything here is immutable
after construction and safe to share between threads read-only.
"""

from __future__ import annotations

import json
import logging
import string
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

logger = logging.getLogger(__name__)

_STRIP = string.punctuation


class DataError(Exception):
    """Malformed or missing input data."""


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

    def __contains__(self, token: str) -> bool:
        return token in self.index


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
    class_index: dict[int, tuple[int, ...]] = field(repr=False)
    vocab: Vocab = field(repr=False)
    label_names: tuple[str, ...] = ()
    skipped: int = 0

    def __len__(self) -> int:
        return len(self.examples)

    @cached_property
    def class_arrays(self) -> dict[int, np.ndarray]:
        """``class_index`` as read-only intp arrays, built on first use."""
        out = {}
        for c, ix in self.class_index.items():
            out[c] = np.array(ix, dtype=np.intp)
            out[c].flags.writeable = False
        return out


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
    class_index: dict[int, list[int]] = {}
    for i, ex in enumerate(examples):
        class_index.setdefault(ex.label, []).append(i)
    return Dataset(
        examples=examples,
        classes=frozenset(class_index),
        class_index={c: tuple(ix) for c, ix in class_index.items()},
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
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open dataset {path}: {exc}") from None

    token_index: dict[str, int] = {}
    token_list: list[str] = []
    label_ids: dict[str, int] = {}
    label_names: list[str] = []
    parsed: list[tuple[tuple[int, ...], int]] = []
    skipped = 0
    with fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from None
            if not isinstance(obj, dict) or label_field not in obj or text_field not in obj:
                raise DataError(
                    f"{path}:{lineno}: object missing field '{label_field}' or '{text_field}'")
            toks = tokenize(str(obj[text_field]))[:max_len]
            if not toks:
                skipped += 1
                continue
            label = str(obj[label_field])
            if label not in label_ids:
                label_ids[label] = len(label_names)
                label_names.append(label)
            ids = []
            for t in toks:
                if t not in token_index:
                    token_index[t] = len(token_list)
                    token_list.append(t)
                ids.append(token_index[t])
            parsed.append((tuple(ids), label_ids[label]))
    if skipped:
        logger.warning("%s: skipped %d line(s) with empty text after tokenization",
                       path, skipped)
    if not parsed:
        raise DataError(f"{path}: no examples")
    return make_dataset(parsed, label_names, Vocab.from_tokens(token_list), skipped)


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
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open embedding file {path}: {exc}") from None

    dim = None
    rows: dict[int, np.ndarray] = {}
    with fh:
        first = True
        for lineno, line in enumerate(fh, start=1):
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
    if ids.min() < 0 or ids.max() >= table.matrix.shape[0]:
        raise ValueError("token id out of range for embedding table")
    return np.ascontiguousarray(table.matrix[ids].T)
