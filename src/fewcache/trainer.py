"""Joint optimization of both branches plus model checkpointing.

Each step computes the retrieval loss and the prior loss on all the
labeled instances (few-shot, so no minibatch draw), in row order, and
applies one Adam update per parameter group (cache keys, unfrozen value
logits, prompt parameters), each with its own learning rate. Keys are
re-normalized after every update so retrieval stays a cosine comparison.

The two losses touch disjoint parameter groups, so joint optimization is
two independent descents run in lockstep; their sum is what the history
records. A group with learning rate zero is left bit-identical,
projection included.

`train` validates once, on entry: the labeled queries, keys and value
logits must be finite and match in width, and the prompt parameters
must encode to finite, nonzero text features. Every step then runs the
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

from .cache_branch import CacheModel, _cache_loss_and_grads
from .codec import OMIT_NONE, from_doc, read_json, to_doc
from .dataset import EmbeddingStore, read_embeddings, write_embeddings
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
    _prior_loss_and_grads,
    _raw_text,
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


@dataclass
class TrainState:
    """Step counter and the loss trajectory."""

    step: int = 0
    history: list[tuple[int, float, float, float]] = field(default_factory=list)


def train(
    cache: CacheModel,
    prior: PriorModel,
    split: FewShotSplit,
    store: EmbeddingStore,
    cfg: TrainConfig,
) -> tuple[CacheModel, PriorModel, TrainState]:
    """Run cfg.steps of joint optimization; inputs are never mutated.

    Queries are the original (frozen-encoder) features of the labeled
    rows; cache keys drift away from them as training proceeds. Every
    step sees all of them, in row order.
    """
    if split.labeled_rows.size == 0:
        raise ValueError("cannot train without labeled instances")
    cache = cache.copy()
    prior = prior.copy()
    state = TrainState()
    if cfg.steps == 0:
        return cache, prior, state

    queries = as_matrix(store.rows[split.labeled_rows], "labeled queries")
    keys = as_matrix(cache.keys, "cache keys")
    if not queries.shape[1] == cache.dim == prior.dim:
        raise ShapeMismatchError(
            f"query dim {queries.shape[1]}, key dim {cache.dim}, text feature dim {prior.dim}"
        )
    values = cache.value_distributions()
    encode_prompts(prior)
    labels = split.labeled_classes

    # The learnable value rows are optimized as one compact block; frozen
    # rows keep their stored distribution in `values` throughout.
    free = np.flatnonzero(~cache.frozen_mask)
    free_logits = cache.value_logits[free]
    prompt = prior.learnable()
    adam_keys, adam_values, adam_prompt = (
        AdamState.zeros_like(p) for p in (keys, free_logits, prompt)
    )

    for step in range(cfg.steps):
        cache_loss, g_keys, g_free = _cache_loss_and_grads(
            keys, values, cache.beta, queries, labels, free
        )
        prompt_loss, g_prompt = _prior_loss_and_grads(prior, _raw_text(prior), queries, labels)

        if cfg.lr_keys > 0.0:
            adam_step(keys, g_keys, adam_keys, cfg.lr_keys)
            _l2_normalize_rows(keys, out=keys)
        if cfg.lr_value_logits > 0.0:
            adam_step(free_logits, g_free, adam_values, cfg.lr_value_logits)
            values[free] = _softmax_rows(free_logits.copy())
        if cfg.lr_prompt > 0.0:
            adam_step(prompt, g_prompt, adam_prompt, cfg.lr_prompt)

        state.history.append((step, cache_loss, prompt_loss, cache_loss + prompt_loss))

    cache.keys = keys
    cache.value_logits[free] = free_logits
    for name, param in (("cache keys", keys), ("value logits", free_logits), ("prompt", prompt)):
        if not np.isfinite(param).all():
            raise NonFiniteInputError(f"trained {name} contain NaN or infinity")
    state.step = cfg.steps
    return cache, prior, state


def history_to_csv(state: TrainState, path) -> Path:
    """Write the loss trajectory as (step, cache_loss, text_loss, total)."""
    path = Path(path)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "cache_loss", "text_loss", "total"])
        for row in state.history:
            writer.writerow([row[0], repr(row[1]), repr(row[2]), repr(row[3])])
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
