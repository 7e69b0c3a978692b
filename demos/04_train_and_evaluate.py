"""End-to-end: meta-train on a synthetic corpus, evaluate on unseen classes,
and inspect what the attention generator learned.

The synthetic corpus hides the class signal in per-class keywords among
shared distractor tokens, so accuracy on held-out classes is only possible
if the generator learns a transferable "find the rare important word" rule.
Takes about a minute.

Run:  python3 demos/04_train_and_evaluate.py
"""

import numpy as np

from metadapt import (EpisodeSpec, GeneratorParams, ModelConfig, TrainConfig,
                      dump_attention, gen_synthetic_corpus, meta_test,
                      split_classes, train)
from metadapt.corpus import keyword_token_ids

dataset, table, vocab = gen_synthetic_corpus(
    n_classes=24, examples_per_class=50, sentence_len=12,
    keywords_per_class=2, vocab_noise_size=6, d=32, seed=103)
split = split_classes(dataset.classes, (16, 4, 4), np.random.default_rng(0))
spec = EpisodeSpec(n_way=4, k_shot=1, l_query=5)
model_cfg = ModelConfig(dim=32, hidden=16, lam=0.1, max_len=12)
train_cfg = TrainConfig(spec=spec, epochs=10, episodes_per_epoch=20,
                        patience=20, seed=7, val_episodes=30, lr=0.03)

untrained = GeneratorParams.init(model_cfg, np.random.default_rng(7))
before = meta_test(untrained, model_cfg, table, dataset, split.test_classes,
                   spec, n_episodes=100, seeds=(11,))
print(f"untrained accuracy on unseen classes: {before.mean_accuracy:.3f}")

print("meta-training...")
result = train(dataset, split, train_cfg, model_cfg, table)
print("validation accuracy per epoch:",
      " ".join(f"{v:.2f}" for v in result.val_accuracies))

after = meta_test(result.gen, model_cfg, table, dataset, split.test_classes,
                  spec, n_episodes=100, seeds=(11,),
                  train_classes=split.train_classes)
print(f"trained accuracy on unseen classes:   {after.mean_accuracy:.3f} "
      f"(95% CI +/- {after.ci95:.3f})")

# attention weights on a sentence from an unseen class: the keyword should
# dominate even though this keyword never appeared in training
test_class = sorted(split.test_classes)[0]
example = dataset.examples[dataset.class_index[test_class][0]]
keywords = keyword_token_ids(vocab)[test_class]
print(f"\nattention on an unseen-class sentence "
      f"(keywords of this class: {sorted(vocab.tokens[t] for t in keywords)}):")
for tok, w in dump_attention(result.gen, model_cfg, example, table, vocab):
    bar = "#" * int(w * 60)
    print(f"  {tok:>8s} {w:6.3f} {bar}")
