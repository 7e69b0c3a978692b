"""Self-test of the benchmark.

    python3 benchmarks/selftest.py

First shows that each correctness check passes the program's real output
and rejects a slightly perturbed copy, and that an episode that raises is
counted as failed.  Then runs each workload once
untraced and once traced with `--seconds 1` (the least number of rounds)
and checks that every metric `BENCHMARK.json` names is printed with its
unit and that the run counts itself correct.  Exits 0 when all hold.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_workloads(spec: dict) -> list[str]:
    problems = []
    for wl in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(ROOT / spec["command"][1]), "--workload", wl["name"],
                   "--seed", "0", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{wl['name']} trace {trace}: exit {proc.returncode}\n"
                                f"{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{wl['name']} trace {trace}: {lines[-1][:300]}\n{proc.stderr}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{wl['name']} trace {trace}: metrics {sorted(got.items())} "
                                f"!= {sorted(want.items())}")
            bad = [k for k, v in result["metrics"].items()
                   if not (isinstance(v["value"], (int, float)) and math.isfinite(v["value"]))]
            if bad:
                problems.append(f"{wl['name']} trace {trace}: non-numeric {bad}")
            print(f"{wl['name']} trace {trace}: ran, {len(got)} metrics", flush=True)
    return problems


def perturbations() -> list[str]:
    """Each check passes the program's real output and fails it perturbed."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import numpy as np

    from metadapt import corpus, episodes, harness, model, nn
    import checks
    import oracle
    from inputs import CorpusShape, workload_rng, write_corpus

    work = BENCH_DIR / "_work" / "selftest"
    inputs = write_corpus(CorpusShape(6, 8, 7, 2, 10, 20, 5), workload_rng("selftest", 0), work)
    dataset = corpus.load_jsonl_dataset(inputs.corpus_path)
    table = corpus.load_embeddings(inputs.embeddings_path, dataset.vocab)
    cfg = model.ModelConfig(dim=5, hidden=3, lam=0.5, max_len=7, disc_hidden=(4, 3))
    gen = model.GeneratorParams.init(cfg, np.random.default_rng(1))
    disc = model.DiscriminatorParams.init(cfg.encoder_dim, cfg.disc_hidden,
                                          np.random.default_rng(2))
    harness.save_checkpoint(work / "checkpoint.json", gen, disc, cfg)
    arrays = oracle.read_checkpoint_weights(work / "checkpoint.json")["arrays"]

    feats = {i: model.encode(dataset.examples[i], gen, table, cfg) for i in range(6)}
    refs = {i: oracle.encode(inputs.sentences[i], inputs.vectors, arrays)[0] for i in range(6)}
    X = np.stack([feats[i] for i in range(4)])
    Y = nn.one_hot([0, 1, 0, 1], 2)
    theta = model.ridge_fit(X, Y, cfg.lam).theta
    per_episode = [0.6, 0.8, 0.4, 1.0, 0.8]
    spec = episodes.EpisodeSpec(2, 1, 2)
    rep = harness.meta_test(gen, cfg, table, dataset, dataset.classes, spec, n_episodes=5)
    ep = episodes.sample_episode(dataset, dataset.classes, spec, np.random.default_rng(3),
                                 with_source=False)
    leaked = dataclasses.replace(ep, query_indices=(ep.support_indices[0],)
                                 + ep.query_indices[1:])
    records = [{"epoch": 0, "episode": j, "ridge_loss": 0.1, "disc_loss": 0.7,
                "gen_loss": -0.5} for j in range(3)]
    bumped = dict(feats)
    bumped[2] = feats[2] + np.eye(len(feats[2]))[0] * 1e-6
    table_bumped = corpus.EmbeddingTable(matrix=table.matrix + 1e-6, dim=table.dim)
    nan_records = [dict(r) for r in records]
    nan_records[1]["gen_loss"] = math.nan

    cases = [
        ("features", checks.check_features(feats, refs),
         checks.check_features(bumped, refs)),
        ("ridge head", checks.check_ridge(X, Y, cfg.lam, theta),
         checks.check_ridge(X, Y, cfg.lam, theta + 1e-6)),
        ("episode accuracies", checks.check_accuracies(dict(enumerate(per_episode)),
                                                       dict(enumerate(per_episode))),
         checks.check_accuracies(dict(enumerate(per_episode)),
                                 {**dict(enumerate(per_episode)), 3: 1.0 - 1 / 25})),
        ("ci95", checks.check_summary(rep.per_episode, rep.mean_accuracy, rep.std, rep.ci95),
         checks.check_summary(rep.per_episode, rep.mean_accuracy, rep.std,
                              rep.ci95 * (1 + 1e-6))),
        ("metrics.jsonl count", checks.check_metrics_log(records, 1, 3),
         checks.check_metrics_log(records[:2], 1, 3)),
        ("metrics.jsonl finite", checks.check_metrics_log(records, 1, 3),
         checks.check_metrics_log(nan_records, 1, 3)),
        ("learning bars", checks.check_learning(0.9, 0.5, 0.9),
         checks.check_learning(0.74, 0.3, 0.9)),
        ("gain bar", checks.check_learning(0.9, 0.5, 0.9),
         checks.check_learning(0.9, 0.61, 0.9)),
        ("keyword hit bar", checks.check_learning(0.9, 0.5, 0.9),
         checks.check_learning(0.9, 0.5, 0.69)),
        ("rounds repeat", checks.check_same("x", [per_episode, list(per_episode)]),
         checks.check_same("x", [per_episode, per_episode[:-1] + [0.6]])),
        ("episode protocol", checks.check_episode_protocol(ep, spec, dataset.classes),
         checks.check_episode_protocol(leaked, spec, dataset.classes)),
        ("inputs read back", checks.check_inputs_read_back(inputs, dataset, table),
         checks.check_inputs_read_back(inputs, dataset, table_bumped)),
    ]
    problems = []
    for name, clean, perturbed in cases:
        if clean:
            problems.append(f"check '{name}' fails the unperturbed output: {clean}")
        if not perturbed:
            problems.append(f"check '{name}' accepts a perturbed output")
        print(f"check '{name}': passes the output, rejects the perturbation"
              if not clean and perturbed else f"check '{name}': FAILED", flush=True)
    return problems


def failing_episode() -> list[str]:
    """A train-small run whose training episodes raise prints a result that
    counts the whole round as attempted and failed, and is not correct."""
    import workloads
    from metadapt import model, nn

    def raise_non_finite(*args, **kwargs):
        raise nn.NumericalError("non-finite generator loss")

    real = model.episode_update
    model.episode_update = raise_non_finite
    try:
        result, _ = workloads.run("train-small", 0, 1, False,
                                  BENCH_DIR / "_work" / "selftest-failing")
    finally:
        model.episode_update = real
    wl = workloads.WORKLOADS["train-small"]
    per_round = (wl.train["epochs"] * (wl.train["episodes_per_epoch"] + wl.train["val_episodes"])
                 + wl.test_episodes * wl.test_seeds)
    ok = (not result["correct"] and result["failed"] == result["attempted"] == per_round
          and not result["metrics"])
    print("failing episode: counted as failed" if ok else "failing episode: FAILED", flush=True)
    return [] if ok else [f"a raising episode gave {json.dumps(result)}"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = perturbations() + failing_episode() + run_workloads(spec)
    for p in problems:
        print("selftest problem:", p, file=sys.stderr)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
