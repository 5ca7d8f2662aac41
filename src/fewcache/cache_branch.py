"""Learnable key/value cache with softmax-attention retrieval.

Keys are instance features (learnable); values are label distributions.
Rows for labeled instances hold exact one-hot distributions and are
frozen; rows for unlabeled core-set instances hold unconstrained logits
that are mapped to the simplex by row-softmax at every use, so they stay
valid distributions under unconstrained optimization.

Prediction for a query row q is

    attention = softmax(beta * q K^T)
    probs     = attention @ V

a convex combination of simplex rows, hence itself on the simplex.
beta scales the unit-norm dot products (which live in [-1, 1]) so that
the attention is not stuck near uniform.

`retrieve` streams the queries through fixed row blocks and keeps only
the (m, N) probabilities, so its memory does not grow with m beyond the
output; `attention` is the opt-in full (m, n_cache) matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import EmbeddingStore
from .errors import ShapeMismatchError
from .numerics import PROB_CLAMP, REAL, as_matrix, l2_normalize_rows, softmax_rows
from .sampler import FewShotSplit

DEFAULT_BETA = 10.0

# Attention entries scored per block in `retrieve` (2 MiB of float64), so
# the (m, n_cache) temporaries never exist for a slide-scale test set.
_BLOCK_ELEMENTS = 1 << 18

@dataclass
class CacheModel:
    keys: np.ndarray          # (n_cache, d), unit rows
    value_logits: np.ndarray  # (n_cache, N); frozen rows store exact one-hot probs
    frozen_mask: np.ndarray   # (n_cache,) bool; True rows never change
    beta: float
    classes: list[str]

    @property
    def n_cache(self) -> int:
        return self.keys.shape[0]

    @property
    def dim(self) -> int:
        return self.keys.shape[1]

    @property
    def num_classes(self) -> int:
        return self.value_logits.shape[1]

    def value_distributions(self) -> np.ndarray:
        """Effective value rows: frozen rows as stored, the rest row-softmaxed."""
        values = softmax_rows(self.value_logits)
        if self.frozen_mask.any():
            values[self.frozen_mask] = self.value_logits[self.frozen_mask]
        return values

    def copy(self) -> "CacheModel":
        return CacheModel(
            keys=self.keys.copy(),
            value_logits=self.value_logits.copy(),
            frozen_mask=self.frozen_mask.copy(),
            beta=self.beta,
            classes=list(self.classes),
        )


def build_cache(
    split: FewShotSplit,
    store: EmbeddingStore,
    classes: list[str],
    beta: float = DEFAULT_BETA,
) -> CacheModel:
    """Assemble the cache from a split: labeled rows first, then unlabeled.

    Labeled value rows are exact one-hot and frozen; unlabeled rows start
    at zero logits (uniform after softmax) and are learnable.
    """
    n_lab = split.labeled_rows.size
    n_unl = split.unlabeled_rows.size
    if n_lab + n_unl == 0:
        raise ValueError("cannot build a cache from an empty split")
    num_classes = len(classes)
    rows = np.concatenate([split.labeled_rows, split.unlabeled_rows])
    keys = store.rows[rows].astype(REAL, copy=True)
    value_logits = np.zeros((n_lab + n_unl, num_classes), dtype=REAL)
    if n_lab:
        value_logits[:n_lab] = np.eye(num_classes, dtype=REAL)[split.labeled_classes]
    frozen = np.zeros(n_lab + n_unl, dtype=bool)
    frozen[:n_lab] = True
    return CacheModel(
        keys=keys,
        value_logits=value_logits,
        frozen_mask=frozen,
        beta=float(beta),
        classes=list(classes),
    )


def _query_matrix(model: CacheModel, queries) -> np.ndarray:
    q = as_matrix(queries, "queries")
    if q.shape[1] != model.dim:
        raise ShapeMismatchError(f"query dim {q.shape[1]} != key dim {model.dim}")
    return q


def attention(model: CacheModel, queries) -> np.ndarray:
    """Full (m, n_cache) softmax attention of unit-norm query rows over the keys."""
    q = _query_matrix(model, queries)
    return softmax_rows(model.beta * (q @ model.keys.T))


def retrieve(model: CacheModel, queries) -> np.ndarray:
    """(m, N) class probabilities of unit-norm query rows, on the simplex.

    Queries are scored in blocks of at most _BLOCK_ELEMENTS attention
    entries; a query set that fits in one block is scored in one call.
    """
    q = _query_matrix(model, queries)
    values = model.value_distributions()
    rows = max(1, _BLOCK_ELEMENTS // model.n_cache)
    probs = np.empty((q.shape[0], model.num_classes), dtype=REAL)
    for start in range(0, q.shape[0], rows):
        block = slice(start, start + rows)
        np.matmul(attention(model, q[block]), values, out=probs[block])
    return probs


def cache_loss_and_grads(
    model: CacheModel,
    labeled_queries,
    labels,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean retrieval cross-entropy plus analytic gradients.

    Returns (loss, grad_keys, grad_value_logits); gradient rows for
    frozen value entries are exactly zero. Probabilities below the log
    clamp contribute a flat (zero-gradient) region, consistent with the
    clamped loss actually evaluated.
    """
    q = as_matrix(labeled_queries, "labeled queries")
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if q.shape[0] != y.size:
        raise ShapeMismatchError(f"{q.shape[0]} queries vs {y.size} labels")
    m = q.shape[0]
    values = model.value_distributions()

    attn = attention(model, q)
    probs = attn @ values
    picked = probs[np.arange(m), y]
    clamped = np.clip(picked, PROB_CLAMP, 1.0)
    loss = float(-np.log(clamped).mean())

    # d loss / d probs: only the target column of each row, zero where the
    # probability sits below the clamp (the loss is flat there).
    g_probs = np.zeros_like(probs)
    live = picked > PROB_CLAMP
    g_probs[np.arange(m)[live], y[live]] = -1.0 / (m * picked[live])

    # Through probs = attention @ values.
    g_values = attn.T @ g_probs
    g_attention = g_probs @ values.T

    # Softmax backward for the attention rows.
    g_scores = attn * (g_attention - (g_attention * attn).sum(axis=1, keepdims=True))

    grad_keys = model.beta * (g_scores.T @ q)

    # Unfrozen value rows pass through their own row-softmax.
    grad_value_logits = np.zeros_like(model.value_logits)
    free = ~model.frozen_mask
    if free.any():
        v_free = values[free]
        g_free = g_values[free]
        grad_value_logits[free] = v_free * (
            g_free - (g_free * v_free).sum(axis=1, keepdims=True)
        )
    return loss, grad_keys, grad_value_logits


def project(model: CacheModel) -> CacheModel:
    """Re-normalize key rows to unit norm; value logits untouched.

    Applied after every optimizer step so retrieval stays a cosine
    comparison. Idempotent up to roundoff.
    """
    return replace(model, keys=l2_normalize_rows(model.keys))
