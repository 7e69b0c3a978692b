"""Seeded keyword corpora written as the files the program reads.

Each class owns a small set of keyword tokens; every sentence carries a
few of its class's keywords at random positions among distractor
tokens shared by all classes, so an encoder has to attend to the keywords
to tell classes apart.  The embeddings file also lists tokens that never
occur in the corpus, as a pretrained vector file does, so that the
per-line work of loading it is part of set-up.

Vectors are rounded to six decimals before they are written, which makes
the values the program parses back equal, bit for bit, to the ones kept
here for the reference encoder.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class CorpusShape:
    n_classes: int
    examples_per_class: int
    sentence_len: int
    keywords_per_class: int
    noise_vocab: int
    extra_vectors: int  # tokens in the embeddings file that the corpus never uses
    dim: int
    keyword_hits: tuple = (1, 3)  # least and most keyword occurrences per sentence


@dataclass
class Corpus:
    sentences: list        # token lists, in file order
    labels: list           # class index per sentence
    keywords: list         # keyword token set per class
    vectors: dict          # token -> float64 vector, exactly as written
    corpus_path: Path
    embeddings_path: Path


def workload_rng(workload: str, seed: int) -> np.random.Generator:
    """Independent stream per (workload, seed)."""
    return np.random.default_rng([zlib.crc32(workload.encode()), seed])


def write_corpus(shape: CorpusShape, rng: np.random.Generator, out_dir: Path) -> Corpus:
    out_dir.mkdir(parents=True, exist_ok=True)
    keywords = [[f"kw{c}x{j}" for j in range(shape.keywords_per_class)]
                for c in range(shape.n_classes)]
    noise = [f"w{i}" for i in range(shape.noise_vocab)]

    sentences, labels = [], []
    for c in range(shape.n_classes):
        for _ in range(shape.examples_per_class):
            sent = [noise[i] for i in rng.integers(0, shape.noise_vocab, size=shape.sentence_len)]
            n_kw = int(rng.integers(shape.keyword_hits[0], shape.keyword_hits[1] + 1))
            pos = rng.choice(shape.sentence_len, size=n_kw, replace=False)
            order = rng.permutation(shape.keywords_per_class)
            for i, p in enumerate(pos):
                sent[int(p)] = keywords[c][order[i % shape.keywords_per_class]]
            sentences.append(sent)
            labels.append(c)
    # interleave classes in the file, as a real corpus would be
    perm = rng.permutation(len(sentences))
    sentences = [sentences[i] for i in perm]
    labels = [labels[i] for i in perm]

    tokens = [t for kws in keywords for t in kws] + noise
    tokens += [f"oov{i}" for i in range(shape.extra_vectors)]
    tokens = [tokens[i] for i in rng.permutation(len(tokens))]
    mat = rng.normal(size=(len(tokens), shape.dim))
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    mat = np.round(mat * 1e6) / 1e6

    corpus_path = out_dir / "corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for sent, c in zip(sentences, labels):
            fh.write(json.dumps({"text": " ".join(sent), "label": f"class{c}"}) + "\n")
    embeddings_path = out_dir / "embeddings.vec"
    with open(embeddings_path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(tokens)} {shape.dim}\n")
        fmt = " ".join(["%.6f"] * shape.dim)
        for tok, row in zip(tokens, mat):
            fh.write(tok + " " + fmt % tuple(row) + "\n")

    vectors = {t: mat[i] for i, t in enumerate(tokens) if not t.startswith("oov")}
    return Corpus(sentences=sentences, labels=labels,
                  keywords=[frozenset(k) for k in keywords], vectors=vectors,
                  corpus_path=corpus_path, embeddings_path=embeddings_path)
