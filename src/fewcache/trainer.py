"""Training: `fit` builds both branches from a split and runs one descent
per branch, plus model checkpointing.

`fit` is the one place a split becomes trained models, for `sweep` and
`train` alike, from one `FitSpec` and the unit rows of the one prompt
reader (`encoders.read_prompt_features`). It reads the core rows once
(`build_cache`, labeled rows first); the labeled queries are a copy of
the first keys, the bits of a second read as each row is normalized on
its own. The descents then take arrays and know no split or store.

Each step computes a branch's loss on all the labeled instances (few-shot,
so no minibatch draw), in row order, and applies one Adam update per
parameter group, each with its own learning rate: `train_cache` updates
the cache keys and the unfrozen value logits, `train_prior` the prompt
parameters. Keys are re-normalized after every update so retrieval stays
a cosine comparison. A group with learning rate zero is left
bit-identical, projection included. A descent with nothing to train (every
group at rate zero, or no free value rows) sees the same inputs at every
step, so it computes its loss once and returns it for each step.

Each descent validates once, on entry: there must be labeled queries, one
per label, and they, the keys and the value logits must be finite and
match in width, and the prompt parameters must encode to finite, nonzero
text features. Every step then runs the
unchecked cores behind the public kernels (`_cache_loss_and_grads`,
`_prior_loss_and_grads`, `_l2_normalize_rows`, `_softmax_rows`) and the
in-place `adam_step`, with the same IEEE operations as the public
kernels, so results are bit-identical to a loop over those. A key row
that an update drives to zero still raises DegenerateRowError at that
step; the trained parameters are checked for finiteness once, on exit.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .cache_branch import DEFAULT_BETA, CacheModel, _cache_loss_and_grads, _check_key_dim, build_cache
from .codec import OMIT_NONE, from_doc, read_json, to_doc
from .dataset import Dataset, read_embeddings, write_embeddings
from .errors import (
    CheckpointVersionError,
    CorruptCheckpointError,
    FembError,
    NonFiniteInputError,
    ShapeMismatchError,
)
from .numerics import AdamState, _l2_normalize_rows, _softmax_rows, adam_step, as_matrix
from .prior_branch import (
    PRIOR_MODES,
    PROTOTYPE,
    TOY_ENCODER,
    PriorModel,
    PriorSpec,
    _check_text_dim,
    _prior_loss_and_grads,
    _raw_text,
    build_prior,
    encode_prompts,
)
from .sampler import FewShotSplit

CHECKPOINT_VERSION = 1
_SIDECAR = "checkpoint.json"


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings; the learning-rate split follows the usual
    recipe of a faster rate on the label cache than on features/prompts."""

    lr_keys: float = 1e-3
    lr_value_logits: float = 1e-2
    lr_prompt: float = 1e-3
    steps: int = 2000

    def __post_init__(self):
        if min(self.lr_keys, self.lr_value_logits, self.lr_prompt) < 0.0:
            raise ValueError("learning rates must be >= 0")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")


@dataclass(kw_only=True)
class FitSpec(PriorSpec):
    """The keys of a fit: PriorSpec's, the optimization settings `train` and
    the cache's attention scale. Sweep and train configs inherit them flat."""

    train: TrainConfig = field(default_factory=TrainConfig)
    cache_beta: float = DEFAULT_BETA


def _queries(queries, labels) -> np.ndarray:
    """The labeled queries of a descent, checked finite and one per label.
    Cache keys drift away from these features."""
    if len(queries) == 0:
        raise ValueError("cannot train without labeled instances")
    queries = as_matrix(queries, "labeled queries")
    if queries.shape[0] != len(labels):
        raise ShapeMismatchError(f"{queries.shape[0]} queries vs {len(labels)} labels")
    return queries


def train_cache(
    cache: CacheModel, queries, labels, cfg: TrainConfig
) -> tuple[CacheModel, list[float]]:
    """Run cfg.steps Adam steps on the cache keys and the unfrozen value
    logits against the labeled `queries` and their class `labels`; no input
    is mutated. Returns the trained copy and the cache loss of each step."""
    cache = cache.copy()
    queries = _queries(queries, labels)
    _check_key_dim(cache, queries.shape[1])
    keys = as_matrix(cache.keys, "cache keys")
    values = cache.value_distributions()
    # The learnable value rows are optimized as one compact block; frozen
    # rows keep their stored distribution in `values` throughout.
    free = np.flatnonzero(~cache.frozen_mask)
    free_logits = cache.value_logits[free]
    adam_keys, adam_values = AdamState.zeros_like(keys), AdamState.zeros_like(free_logits)
    idle = cfg.lr_keys == 0.0 and (cfg.lr_value_logits == 0.0 or free.size == 0)

    losses = []
    for _ in range(min(cfg.steps, 1) if idle else cfg.steps):
        loss, g_keys, g_free = _cache_loss_and_grads(
            keys, values, cache.beta, queries, labels, free
        )
        if cfg.lr_keys > 0.0:
            adam_step(keys, g_keys, adam_keys, cfg.lr_keys)
            _l2_normalize_rows(keys, out=keys)
        if cfg.lr_value_logits > 0.0:
            adam_step(free_logits, g_free, adam_values, cfg.lr_value_logits)
            values[free] = _softmax_rows(free_logits.copy())
        losses.append(loss)
    if idle:
        losses *= cfg.steps

    cache.keys = keys
    cache.value_logits[free] = free_logits
    for name, param in (("cache keys", keys), ("value logits", free_logits)):
        if not np.isfinite(param).all():
            raise NonFiniteInputError(f"trained {name} contain NaN or infinity")
    return cache, losses


def train_prior(
    prior: PriorModel, queries, labels, cfg: TrainConfig
) -> tuple[PriorModel, list[float]]:
    """Run cfg.steps Adam steps on the prior's learnable parameters against
    the labeled `queries` and their class `labels`; no input is mutated.
    Returns the trained copy and the prompt loss of each step."""
    prior = prior.copy()
    queries = _queries(queries, labels)
    _check_text_dim(prior, queries.shape[1])
    encode_prompts(prior)
    prompt = prior.learnable()
    adam_prompt = AdamState.zeros_like(prompt)
    idle = cfg.lr_prompt == 0.0

    losses = []
    for _ in range(min(cfg.steps, 1) if idle else cfg.steps):
        loss, g_prompt = _prior_loss_and_grads(prior, _raw_text(prior), queries, labels)
        if cfg.lr_prompt > 0.0:
            adam_step(prompt, g_prompt, adam_prompt, cfg.lr_prompt)
        losses.append(loss)
    if idle:
        losses *= cfg.steps

    if not np.isfinite(prompt).all():
        raise NonFiniteInputError("trained prompt contain NaN or infinity")
    return prior, losses


@dataclass
class FitResult:
    """Both trained branches, the labeled queries and labels they trained
    on (the tune set of a sweep run), and each descent's loss per step."""

    cache: CacheModel
    prior: PriorModel
    queries: np.ndarray
    labels: np.ndarray
    cache_losses: list[float]
    prompt_losses: list[float]


def fit(split: FewShotSplit, dataset: Dataset, prompt_features, spec: FitSpec) -> FitResult:
    """Build the cache from `split`'s core rows in `dataset` and the prior
    `spec` describes, then train each branch on the split's labeled rows."""
    cache = build_cache(split, dataset.store, dataset.classes, beta=spec.cache_beta)
    queries = cache.keys[: split.n_labeled].copy()
    labels = split.labeled_classes
    prior = build_prior(spec, prompt_features, dataset.classes)
    cache, cache_losses = train_cache(cache, queries, labels, spec.train)
    prior, prompt_losses = train_prior(prior, queries, labels, spec.train)
    return FitResult(cache, prior, queries, labels, cache_losses, prompt_losses)


def history_to_csv(cache_losses: list[float], prompt_losses: list[float], path) -> Path:
    """Write the loss trajectories as (step, cache_loss, text_loss, total)."""
    path = Path(path)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "cache_loss", "text_loss", "total"])
        for step, (c, t) in enumerate(zip(cache_losses, prompt_losses, strict=True)):
            writer.writerow([step, repr(c), repr(t), repr(c + t)])
    return path


# --- checkpoints (format: see fewcache.dataset) -----------------------------


@dataclass
class CacheSection:
    beta: float
    frozen_mask: list[bool]
    classes: list[str]


@dataclass
class PriorSection:
    mode: str
    tau: float
    classes: list[str]
    tokens_per_class: Optional[int] = field(default=None, metadata=OMIT_NONE)  # toy-encoder
    learnable_per_class: Optional[int] = field(default=None, metadata=OMIT_NONE)  # toy-encoder

    def __post_init__(self):
        if self.mode not in PRIOR_MODES or self.tau <= 0.0:
            raise ValueError(f"prior needs a mode in {PRIOR_MODES} and tau > 0")


@dataclass
class CheckpointDoc:
    version: int
    cache: CacheSection
    prior: PriorSection


def snapshot(cache: CacheModel, prior: PriorModel, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_embeddings(out / "cache_keys.femb", cache.keys, version=2)
    write_embeddings(out / "cache_value_logits.femb", cache.value_logits, version=2)
    s = d = None
    if prior.mode == PROTOTYPE:
        write_embeddings(out / "prior_class_features.femb", prior.class_features, version=2)
    else:
        n, s, e = prior.base_tokens.shape
        d = prior.prompt_tokens.shape[1]
        write_embeddings(out / "prior_base_tokens.femb", prior.base_tokens.reshape(n * s, e), version=2)
        write_embeddings(out / "prior_prompt_tokens.femb", prior.prompt_tokens.reshape(n * d, e), version=2)
        write_embeddings(out / "prior_encoder.femb", prior.encoder_matrix, version=2)
    doc = CheckpointDoc(
        version=CHECKPOINT_VERSION,
        cache=CacheSection(cache.beta, cache.frozen_mask.tolist(), cache.classes),
        prior=PriorSection(prior.mode, prior.tau, prior.classes, s, d),
    )
    with open(out / _SIDECAR, "w") as f:
        json.dump(to_doc(doc), f, indent=2)
    return out


def _read_checkpoint_matrix(base: Path, name: str) -> np.ndarray:
    path = base / name
    if not path.exists():
        raise CorruptCheckpointError(f"checkpoint is missing {name}")
    try:
        return read_embeddings(path).rows
    except FembError as exc:
        raise CorruptCheckpointError(f"{name}: {exc}") from exc


def restore(checkpoint_dir) -> tuple[CacheModel, PriorModel]:
    """Load a checkpoint; predictions of the restored models are
    bit-identical to the snapshotted ones."""
    base = Path(checkpoint_dir)
    sidecar = read_json(base / _SIDECAR, CorruptCheckpointError)
    if isinstance(sidecar, dict) and sidecar.get("version") != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint version {sidecar.get('version')!r}, supported {CHECKPOINT_VERSION}"
        )
    doc = from_doc(CheckpointDoc, sidecar, CorruptCheckpointError)

    cache = CacheModel(
        keys=_read_checkpoint_matrix(base, "cache_keys.femb"),
        value_logits=_read_checkpoint_matrix(base, "cache_value_logits.femb"),
        frozen_mask=np.asarray(doc.cache.frozen_mask, dtype=bool),
        beta=float(doc.cache.beta),
        classes=doc.cache.classes,
    )
    classes = doc.prior.classes
    if doc.prior.mode == PROTOTYPE:
        prior = PriorModel(
            mode=PROTOTYPE, classes=classes, tau=doc.prior.tau,
            class_features=_read_checkpoint_matrix(base, "prior_class_features.femb"),
        )
    else:
        encoder = _read_checkpoint_matrix(base, "prior_encoder.femb")
        base_tokens = _read_checkpoint_matrix(base, "prior_base_tokens.femb")
        prompt_tokens = _read_checkpoint_matrix(base, "prior_prompt_tokens.femb")
        s, d = doc.prior.tokens_per_class, doc.prior.learnable_per_class
        n, e = len(classes), len(encoder)
        if None in (s, d) or (base_tokens.shape, prompt_tokens.shape) != ((n * s, e), (n * d, e)):
            raise CorruptCheckpointError(f"toy tokens are not {n}x{s}, {n}x{d} rows of width {e}")
        prior = PriorModel(
            mode=TOY_ENCODER, classes=classes, tau=doc.prior.tau,
            base_tokens=base_tokens.reshape(n, s, e),
            prompt_tokens=prompt_tokens.reshape(n, d, e),
            encoder_matrix=encoder,
        )
    _check_shapes(cache, prior)
    return cache, prior


def _check_shapes(cache: CacheModel, prior: PriorModel) -> None:
    """Reject a checkpoint whose parts disagree, before any prediction indexes them."""
    n_keys = cache.keys.shape[0]
    if cache.value_logits.shape[0] != n_keys or cache.frozen_mask.shape != (n_keys,):
        raise CorruptCheckpointError(
            f"cache has {n_keys} key rows, {cache.value_logits.shape[0]} value-logit rows"
            f" and {cache.frozen_mask.size} frozen-mask entries"
        )
    if cache.value_logits.shape[1] != len(cache.classes):
        raise CorruptCheckpointError(
            f"cache value logits have {cache.value_logits.shape[1]} columns"
            f" for {len(cache.classes)} classes"
        )
    if cache.classes != prior.classes:
        raise CorruptCheckpointError(
            f"cache classes {cache.classes} != prior classes {prior.classes}"
        )
    if cache.dim != prior.dim:
        raise CorruptCheckpointError(f"cache key dim {cache.dim} != prior feature dim {prior.dim}")
