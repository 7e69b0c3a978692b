"""Checks of the program's outputs against the reference computations in
`oracle` and against properties the method must have.

Each check returns a list of failure messages; an empty list is a pass.
They take plain values, so the self-test can hand them perturbed outputs.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

import oracle

ENCODE_TOL = 1e-10
RIDGE_TOL = 1e-8
# acceptance criterion 6's bars for the acceptance-shape model
MIN_TEST_ACCURACY = 0.75
MIN_GAIN_OVER_UNTRAINED = 0.30
MIN_KEYWORD_HIT_RATE = 0.70


def check_features(program: dict, reference: dict) -> list[str]:
    """``model.encode`` features against the reference encoder's, by example."""
    worst = max(float(np.abs(program[k] - reference[k]).max()) for k in program)
    if not worst <= ENCODE_TOL:
        return [f"model.encode differs from the reference encoder by {worst:.3e} "
                f"on {len(program)} sentences (tolerance {ENCODE_TOL:g})"]
    return []


def check_ridge(X, Y, lam: float, theta) -> list[str]:
    """A ridge head against the least-squares solve and its own optimality."""
    gap = float(np.abs(theta - oracle.ridge_solve(X, Y, lam)).max())
    grad = float(np.abs(oracle.ridge_gradient(X, Y, lam, theta)).max())
    out = []
    if not gap <= RIDGE_TOL:
        out.append(f"ridge head differs from the least-squares solve by {gap:.3e}")
    if not grad <= RIDGE_TOL:
        out.append(f"ridge objective gradient {grad:.3e} at the fitted head")
    return out


def check_accuracies(reported: dict, recomputed: dict) -> list[str]:
    """meta_test's per-episode accuracies against the recomputed ones, exactly."""
    bad = [i for i in recomputed if reported[i] != recomputed[i]]
    if bad:
        i = bad[0]
        return [f"{len(bad)} of {len(recomputed)} episode accuracies differ from the "
                f"recomputation, e.g. episode {i}: {reported[i]!r} vs {recomputed[i]!r}"]
    return []


def check_summary(per_episode, mean: float, std: float, ci95: float) -> list[str]:
    """Mean, std and ci95 = 1.96 std / sqrt(n), recomputed from per_episode."""
    n = len(per_episode)
    want_mean = math.fsum(per_episode) / n
    want_std = statistics.stdev(per_episode) if n > 1 else 0.0
    want_ci = 1.96 * want_std / math.sqrt(n) if n > 1 else 0.0
    out = []
    for name, got, want in (("mean_accuracy", mean, want_mean), ("std", std, want_std),
                            ("ci95", ci95, want_ci)):
        if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15):
            out.append(f"{name} {got!r} but {want!r} recomputed from per_episode")
    return out


def check_metrics_log(records: list, epochs: int, episodes_per_epoch: int) -> list[str]:
    """One metrics.jsonl record per training episode run, with finite losses."""
    want = [(e, j) for e in range(epochs) for j in range(episodes_per_epoch)]
    got = [(r.get("epoch"), r.get("episode")) for r in records]
    out = []
    if got != want:
        out.append(f"metrics.jsonl has {len(got)} records for {len(want)} episodes run")
    bad = [r for r in records
           if not all(isinstance(r.get(k), (int, float)) and math.isfinite(r[k])
                      for k in ("ridge_loss", "disc_loss", "gen_loss"))]
    if bad:
        out.append(f"{len(bad)} metrics.jsonl record(s) with a missing or non-finite loss")
    return out


def check_learning(test_accuracy: float, untrained_accuracy: float,
                   hit_rate: float) -> list[str]:
    """Acceptance criterion 6's bars on held-out classes."""
    out = []
    if not test_accuracy >= MIN_TEST_ACCURACY:
        out.append(f"test accuracy {test_accuracy:.4f} < {MIN_TEST_ACCURACY}")
    if not test_accuracy - untrained_accuracy >= MIN_GAIN_OVER_UNTRAINED:
        out.append(f"gain over the untrained generator {test_accuracy - untrained_accuracy:.4f}"
                   f" < {MIN_GAIN_OVER_UNTRAINED}")
    if not hit_rate >= MIN_KEYWORD_HIT_RATE:
        out.append(f"attention keyword hit rate {hit_rate:.4f} < {MIN_KEYWORD_HIT_RATE}")
    return out


def check_same(what: str, values: list) -> list[str]:
    """Every round of one run repeats the same seeded computation."""
    if any(v != values[0] for v in values[1:]):
        return [f"{what} differs between rounds of the same seed"]
    return []


def check_inputs_read_back(inputs, dataset, table) -> list:
    """The loaded corpus and vectors are the ones the benchmark wrote."""
    if len(dataset) != len(inputs.sentences):
        return [f"dataset has {len(dataset)} examples, {len(inputs.sentences)} written"]
    for i, ex in enumerate(dataset.examples):
        if ([dataset.vocab.tokens[t] for t in ex.token_ids] != inputs.sentences[i]
                or dataset.label_names[ex.label] != f"class{inputs.labels[i]}"):
            return [f"example {i} does not read back as written"]
    for tok, i in dataset.vocab.index.items():
        if not np.array_equal(table.matrix[i], inputs.vectors[tok]):
            return [f"embedding of {tok!r} does not read back as written"]
    return []


def check_episode_protocol(ep, spec, test_classes) -> list:
    sup = list(ep.support_indices)
    qry = list(ep.query_indices)
    ok = (set(ep.episode_classes) <= set(test_classes)
          and len(ep.episode_classes) == spec.n_way
          and len(sup) == spec.n_way * spec.k_shot
          and len(qry) == spec.n_way * spec.l_query
          and not set(sup) & set(qry))
    return [] if ok else ["a meta-test episode breaks the N-way K-shot protocol"]
