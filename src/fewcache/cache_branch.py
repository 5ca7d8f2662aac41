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

Memory contract: `retrieve` checks its inputs once, then scores the
queries in row blocks of at most numerics._BLOCK_ELEMENTS attention
entries. The blocks are shared by one thread per CPU in the process's
affinity mask (numerics._WORKERS, at most one per block; one while BLAS
runs threads of its own), each taking the next free block, and each
thread reuses one (rows, n_cache) buffer. It holds its (m, N) output,
one block per thread and the (n_cache, N) value rows, so its memory
grows with m only by the output; `attention` is the opt-in full
(m, n_cache) matrix. Its core, `_retrieve_store`, runs the same pass
over a dataset's store; over a FembStore each thread reads its block of
query rows from the bag files into a buffer of its own, so the queries
are never held whole (`fusion_eval.evaluate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataset import EmbeddingStore, Store
from .errors import NonFiniteInputError, ShapeMismatchError
from .numerics import (
    PROB_CLAMP,
    REAL,
    _all_finite,
    _block_workers,
    _mean_nll,
    _row_blocks,
    _run_blocks,
    _softmax_rows,
    as_matrix,
    softmax_rows,
)
from .sampler import FewShotSplit

DEFAULT_BETA = 10.0

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
    store: Store,
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
    keys = store.take(rows)
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


def _query_matrix(model: CacheModel, queries, name: str = "queries") -> np.ndarray:
    q = as_matrix(queries, name)
    _check_key_dim(model, q.shape[1])
    return q


def _check_key_dim(model: CacheModel, dim: int) -> None:
    if dim != model.dim:
        raise ShapeMismatchError(f"query dim {dim} != key dim {model.dim}")


def _scoring_parts(model: CacheModel) -> tuple[np.ndarray, np.ndarray]:
    """(keys, value rows) that `_attention` blocks score against, checked:
    raises NonFiniteInputError on a non-finite key, beta or value logit."""
    keys = as_matrix(model.keys, "cache keys")
    if not np.isfinite(model.beta):
        raise NonFiniteInputError(f"cache beta {model.beta} is not finite")
    return keys, model.value_distributions()


def attention(model: CacheModel, queries) -> np.ndarray:
    """Full (m, n_cache) softmax attention of unit-norm query rows over the keys."""
    q = _query_matrix(model, queries)
    # Keys and beta are not checked on their own: non-finite ones show here.
    return as_matrix(_attention(q, model.keys, model.beta), "attention")


def _attention(
    q: np.ndarray, keys: np.ndarray, beta: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Trusted core of attention; scores into `out` (default: a new array)
    and turns them into the attention in place."""
    scores = np.matmul(q, keys.T, out=out)
    scores *= beta
    return _softmax_rows(scores)


def retrieve(model: CacheModel, queries) -> np.ndarray:
    """(m, N) class probabilities of unit-norm query rows, on the simplex.

    Queries are scored in blocks of at most _BLOCK_ELEMENTS attention
    entries on one thread per CPU (at most one per block, and one while
    BLAS runs threads of its own), each taking the next block no thread
    has taken; a query set that fits in one block is scored in one call
    on the calling thread. Each block goes
    through the core of `attention`, and the block boundaries depend
    neither on the thread count nor on which thread scores a block, so
    the result is the same bytes on any number of CPUs and equals
    attention(model, queries) @ model.value_distributions().
    """
    return _retrieve_store(model, EmbeddingStore.from_array(_query_matrix(model, queries)))


def _retrieve_store(
    model: CacheModel,
    store: Store,
    also: Callable[[np.ndarray, int, int], None] | None = None,
) -> np.ndarray:
    """Core of retrieve over every row of `store`, whose width the caller
    has checked; `also(q, start, stop)` then gets each block's query rows
    on the thread that scored them. A FembStore reads each block into a
    per-thread buffer, so the rows are never held whole."""
    keys, values = _scoring_parts(model)
    m = store.n
    starts = _row_blocks(m, model.n_cache)
    workers = _block_workers(starts)
    rows = min(starts.step, m)
    probs = np.empty((m, model.num_classes), dtype=REAL)
    # Every thread's buffers are allocated here, so a thread allocates no
    # more than row vectors, or one block's temporaries as it reads a
    # FembStore block.
    scores = np.empty((workers, rows, model.n_cache), dtype=REAL)
    queries = (None if isinstance(store, EmbeddingStore)
               else np.empty((workers, rows, store.d), dtype=REAL))

    def score_blocks(i: int, blocks) -> None:
        # Finite inputs can still overflow the scores (keys far from unit
        # norm or a huge beta); such a softmax row is NaN, and so is its
        # output row. np.errstate is local to a thread: each enters its own.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in blocks:
                stop = min(start + starts.step, m)
                q = store._read(start, stop, None if queries is None else queries[i])
                attn = _attention(q, keys, model.beta, out=scores[i, : stop - start])
                np.matmul(attn, values, out=probs[start:stop])
                if also is not None:
                    also(q, start, stop)

    _run_blocks(score_blocks, starts, workers)
    if not _all_finite(probs):
        raise NonFiniteInputError("attention contains NaN or infinity")
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
    q = _query_matrix(model, labeled_queries, "labeled queries")
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if q.shape[0] != y.size:
        raise ShapeMismatchError(f"{q.shape[0]} queries vs {y.size} labels")
    keys = as_matrix(model.keys, "cache keys")
    free = np.flatnonzero(~model.frozen_mask)
    loss, grad_keys, grad_free = _cache_loss_and_grads(
        keys, model.value_distributions(), model.beta, q, y, free
    )
    grad_value_logits = np.zeros_like(model.value_logits)
    grad_value_logits[free] = grad_free
    return loss, grad_keys, grad_value_logits


def _cache_loss_and_grads(
    keys: np.ndarray,
    values: np.ndarray,
    beta: float,
    q: np.ndarray,
    y: np.ndarray,
    free: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Trusted core of cache_loss_and_grads.

    `values` are the effective value rows and `free` indexes the
    learnable ones. Returns (loss, grad_keys, grad_free), the last being
    the gradient of the free rows' logits.
    """
    m = q.shape[0]
    rows = np.arange(m)
    attn = _attention(q, keys, beta)
    probs = attn @ values
    picked = probs[rows, y]
    loss = _mean_nll(picked)

    # d loss / d probs: only the target column of each row, zero where the
    # probability sits below the clamp (the loss is flat there).
    g_probs = np.zeros_like(probs)
    live = picked > PROB_CLAMP
    g_probs[rows[live], y[live]] = -1.0 / (m * picked[live])

    # Through probs = attention @ values.
    g_values = attn.T @ g_probs
    g_attention = g_probs @ values.T

    # Softmax backward for the attention rows.
    g_scores = attn * (g_attention - np.add.reduce(g_attention * attn, axis=1, keepdims=True))

    grad_keys = beta * (g_scores.T @ q)

    # Unfrozen value rows pass through their own row-softmax.
    v_free = values[free]
    g_free = g_values[free]
    grad_free = v_free * (g_free - np.add.reduce(g_free * v_free, axis=1, keepdims=True))
    return loss, grad_keys, grad_free
