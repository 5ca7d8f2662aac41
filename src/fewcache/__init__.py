"""Few-shot instance/bag classification over precomputed embeddings.

Two branches score each instance: a learnable key/value cache queried by
softmax attention, and a temperature-scaled cosine prior over per-class
text features. Branch probabilities are fused with a convex weight
picked by grid search; bag scores are pooled instance scores; quality is
measured by rank-based instance- and bag-level AUC.
"""

from .cache_branch import (
    CacheModel,
    attention,
    build_cache,
    cache_loss_and_grads,
    retrieve,
)
from .codec import from_doc, to_doc
from .dataset import (
    Bag,
    Dataset,
    EmbeddingStore,
    SynthSpec,
    load_manifest,
    read_embeddings,
    read_layout,
    save_dataset,
    synth_generate,
    write_embeddings,
)
from .encoders import EmbeddingSource, resolve_source
from .fusion_eval import (
    AUCResult,
    EvalReport,
    alpha_grid,
    bag_pool,
    binary_auc,
    evaluate,
    fuse,
    instance_auc,
    sweep_alpha,
)
from .harness import ExperimentConfig, RunRecord, emit_report, run_experiment
from .numerics import (
    AdamState,
    GradCheckReport,
    adam_step,
    finite_difference_check,
    l2_normalize_rows,
    softmax_rows,
)
from .prior_branch import (
    PriorModel,
    PriorSpec,
    build_prior,
    encode_prompts,
    prior_from_features,
    prior_loss_and_grads,
    prior_predict,
    prior_toy_encoder,
)
from .sampler import (
    FewShotSpec,
    FewShotSplit,
    KMeansResult,
    kmeans,
    sample_bags,
    sample_labeled_instances,
    sample_split,
    select_core_set,
)
from .trainer import TrainConfig, fit, restore, snapshot, train_cache, train_prior

__version__ = "0.1.0"

__all__ = [
    "AUCResult",
    "AdamState",
    "Bag",
    "CacheModel",
    "Dataset",
    "EmbeddingSource",
    "EmbeddingStore",
    "EvalReport",
    "ExperimentConfig",
    "FewShotSpec",
    "FewShotSplit",
    "GradCheckReport",
    "KMeansResult",
    "PriorModel",
    "PriorSpec",
    "RunRecord",
    "SynthSpec",
    "TrainConfig",
    "adam_step",
    "alpha_grid",
    "attention",
    "bag_pool",
    "binary_auc",
    "build_cache",
    "build_prior",
    "cache_loss_and_grads",
    "emit_report",
    "encode_prompts",
    "evaluate",
    "finite_difference_check",
    "fit",
    "from_doc",
    "fuse",
    "instance_auc",
    "kmeans",
    "l2_normalize_rows",
    "load_manifest",
    "prior_from_features",
    "prior_loss_and_grads",
    "prior_predict",
    "prior_toy_encoder",
    "read_embeddings",
    "read_layout",
    "resolve_source",
    "restore",
    "retrieve",
    "run_experiment",
    "sample_bags",
    "sample_labeled_instances",
    "sample_split",
    "save_dataset",
    "select_core_set",
    "snapshot",
    "softmax_rows",
    "sweep_alpha",
    "synth_generate",
    "to_doc",
    "train_cache",
    "train_prior",
    "write_embeddings",
]
