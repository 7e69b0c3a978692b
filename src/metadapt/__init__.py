"""Episodic meta-learning with an adversarial domain-adaptation network for
few-shot text classification."""

from .corpus import (ClassSplit, DataError, Dataset, EmbeddingTable, Example,
                     Vocab, embed_sentence, gen_synthetic_corpus, load_embeddings,
                     load_jsonl_dataset, split_classes, tokenize)
from .episodes import Episode, EpisodeSpec, relabel, sample_episode
from .harness import (EvalReport, MetricsRecord, TrainConfig, TrainResult,
                      dump_attention, dump_embeddings, load_checkpoint, meta_test,
                      run_gradient_checks, save_checkpoint, train)
from .model import (DiscriminatorParams, EpisodeMetrics, GeneratorParams,
                    ModelConfig, RidgeClassifier, attention_weights, encode,
                    episode_update, ridge_fit, ridge_predict)
from .nn import (AdamState, LstmParams, NumericalError, Param, adam_step, flatten,
                 grad_check)

__version__ = "0.1.0"
