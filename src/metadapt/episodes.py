"""N-way K-shot episode sampling with an adversarial source pool.

An episode carries a labelled support set and query set drawn from N sampled
classes, plus an unlabelled source set drawn from classes outside the
episode.  Sampling is deterministic under a seeded generator; samplers with
independent generators may run in parallel.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import Dataset, Example

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EpisodeSpec:
    """Episode shape: N classes, K support and L query examples per class."""

    n_way: int
    k_shot: int
    l_query: int

    def __post_init__(self):
        if self.n_way < 2:
            raise ValueError("n_way must be >= 2")
        if self.k_shot < 1:
            raise ValueError("k_shot must be >= 1")
        if self.l_query < 1:
            raise ValueError("l_query must be >= 1")


@dataclass(frozen=True)
class Episode:
    """One sampled task.  Labels in support/query are local (0..N-1)."""

    support: tuple[tuple[Example, int], ...]
    query: tuple[tuple[Example, int], ...]
    source: tuple[Example, ...]
    episode_classes: tuple[int, ...]  # sorted global class ids
    support_indices: tuple[int, ...]
    query_indices: tuple[int, ...]
    source_indices: tuple[int, ...]

    @property
    def n_way(self) -> int:
        return len(self.episode_classes)


def relabel(episode: Episode) -> dict[int, int]:
    """Bijection from the episode's global class ids to 0..N-1 (sorted order)."""
    return {c: i for i, c in enumerate(sorted(episode.episode_classes))}


def sample_episode(dataset: Dataset, allowed_classes, spec: EpisodeSpec,
                   rng: np.random.Generator, source_excludes: str = "all",
                   with_source: bool = True) -> Episode:
    """Sample one episode from ``allowed_classes``.

    Per class, K+L examples are drawn without replacement and split into
    support and query.  The source set (N*L examples) is drawn from allowed
    classes outside the episode; ``source_excludes="current"`` instead
    excludes only the class being iterated per draw, so other episode
    classes may leak into the source set.  ``with_source=False`` skips the
    source draw entirely (evaluation episodes never use it).  Classes with
    fewer than K+L examples are never drawn; ``check_classes`` reports them
    once for a whole split.
    """
    if source_excludes not in ("all", "current"):
        raise ValueError(f"source_excludes must be 'all' or 'current', got {source_excludes!r}")
    need = spec.k_shot + spec.l_query
    allowed = sorted(allowed_classes)
    eligible = _eligible(dataset, allowed, spec)

    chosen = rng.choice(len(eligible), size=spec.n_way, replace=False)
    classes = sorted(eligible[i] for i in chosen)   # local label = position

    # pool[rng.choice(pool.size, ...)] draws what rng.choice(pool, ...) does,
    # from the same generator state, without converting pool on every call
    arrays = dataset.class_arrays
    sup_idx, qry_idx = [], []
    for c in classes:
        pool = arrays[c]
        pick = pool[rng.choice(pool.size, size=need, replace=False)].tolist()
        sup_idx += pick[:spec.k_shot]
        qry_idx += pick[spec.k_shot:]

    src_idx: list[int] = []
    if with_source:
        # one draw outside the episode's classes, or one per class outside it
        draws = ([(classes, spec.n_way * spec.l_query)] if source_excludes == "all"
                 else [({c}, spec.l_query) for c in classes])
        for excluded, n_src in draws:
            pools = [arrays[c] for c in allowed if c not in excluded]
            pool = np.concatenate(pools) if pools else np.empty(0, dtype=np.intp)
            if pool.size < n_src:
                raise ValueError(f"source pool has {pool.size} examples, need {n_src}")
            src_idx.extend(pool[rng.choice(pool.size, size=n_src, replace=False)].tolist())

    return Episode(
        support=tuple((dataset.examples[j], i // spec.k_shot) for i, j in enumerate(sup_idx)),
        query=tuple((dataset.examples[j], i // spec.l_query) for i, j in enumerate(qry_idx)),
        source=tuple(dataset.examples[j] for j in src_idx),
        episode_classes=tuple(classes),
        support_indices=tuple(sup_idx),
        query_indices=tuple(qry_idx),
        source_indices=tuple(src_idx),
    )


def _eligible(dataset: Dataset, classes, spec: EpisodeSpec) -> list:
    """The classes, in the given order, that hold the K+L examples one draw
    takes from each; ValueError if there are fewer than ``n_way``."""
    need = spec.k_shot + spec.l_query
    eligible = [c for c in classes if len(dataset.class_index.get(c, ())) >= need]
    if len(eligible) < spec.n_way:
        raise ValueError(
            f"need {spec.n_way} classes with >= {need} examples, have {len(eligible)}")
    return eligible


def check_classes(dataset: Dataset, classes, spec: EpisodeSpec,
                  source_excludes: str = None) -> None:
    """Refuse, once for a whole split, an episode shape that some draw from
    ``classes`` could not serve (ValueError), and log once how many classes
    hold fewer than K+L examples and so are never drawn.

    Fewer than ``n_way`` eligible classes are refused.  With
    ``source_excludes``, so is a worst draw whose source pool is short: it
    excludes the ``n_way`` largest eligible classes and takes N*L examples
    under ``"all"``, and the largest one and takes L under ``"current"``.
    """
    allowed = set(classes)
    eligible = _eligible(dataset, allowed, spec)
    if source_excludes is not None:
        if source_excludes not in ("all", "current"):
            raise ValueError(
                f"source_excludes must be 'all' or 'current', got {source_excludes!r}")
        n_excluded = spec.n_way if source_excludes == "all" else 1
        sizes = sorted((len(dataset.class_index[c]) for c in eligible), reverse=True)
        pool = (sum(len(dataset.class_index.get(c, ())) for c in allowed)
                - sum(sizes[:n_excluded]))
        if pool < spec.l_query * n_excluded:
            raise ValueError(f"source pool can have as few as {pool} examples, "
                             f"need {spec.l_query * n_excluded}")
    if len(eligible) < len(allowed):
        logger.warning("excluding %d class(es) with fewer than %d examples",
                       len(allowed) - len(eligible), spec.k_shot + spec.l_query)
