"""Branch fusion, alpha grid search, and instance-/bag-level AUC.

AUC is the rank-based Mann-Whitney statistic with midrank tie handling:
identical to P(score+ > score-) + 0.5 * P(score+ = score-) over all
positive/negative pairs, computed in O(n log n). Classes with no
positives or no negatives get an explicit undefined flag (None), never a
silent 0.5, and are excluded from macro means. `sweep` and `eval` both
score a test set with `evaluate`: it tunes the fusion weight with
`pick_alpha`, scores the test rows with both branches in one blocked pass,
and scores the fused probabilities with `score`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .cache_branch import CacheModel, _check_key_dim, _retrieve_store, retrieve
from .codec import OMIT_NONE
from .dataset import Bag, Dataset
from .errors import EmptyBagError, NonFiniteInputError, ShapeMismatchError, UndefinedMetricError
from .numerics import REAL, _all_finite
from .prior_branch import PriorModel, _check_text_dim, _prior_probs, encode_prompts, prior_predict

GRID_POINTS = 101

POOL_OPERATORS = ("mean", "max", "topk_mean")


def alpha_grid(points: int = GRID_POINTS) -> np.ndarray:
    """Fusion weights 0..1 split into points-1 equal intervals."""
    return np.linspace(0.0, 1.0, points)


def fuse(cache_probs, prior_probs, alpha: float) -> np.ndarray:
    """Convex combination alpha*cache + (1-alpha)*prior, row-simplex in,
    row-simplex out. The endpoints return exact copies of one branch."""
    a = np.asarray(cache_probs, dtype=REAL)
    b = np.asarray(prior_probs, dtype=REAL)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"branch shapes differ: {a.shape} vs {b.shape}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if alpha == 1.0:
        return a.copy()
    if alpha == 0.0:
        return b.copy()
    return alpha * a + (1.0 - alpha) * b


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties receiving the mean of their rank span."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    run_start = np.ones(values.size, dtype=bool)
    run_start[1:] = sorted_vals[1:] != sorted_vals[:-1]
    starts = np.flatnonzero(run_start)
    ends = np.append(starts[1:], values.size) - 1
    ranks = np.empty(values.size, dtype=REAL)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def binary_auc(scores, positives) -> Optional[float]:
    """Mann-Whitney AUC of scores for a boolean positive mask.

    Returns None when there are no positives or no negatives.
    """
    s = np.asarray(scores, dtype=REAL).reshape(-1)
    pos = np.asarray(positives, dtype=bool).reshape(-1)
    if s.shape != pos.shape:
        raise ShapeMismatchError(f"{s.size} scores vs {pos.size} labels")
    n_pos = int(pos.sum())
    n_neg = s.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _midranks(s)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


@dataclass
class AUCResult:
    """One-vs-rest AUC per class plus the macro mean over defined classes."""

    per_class: list[Optional[float]]
    macro: Optional[float]

    @classmethod
    def compute(cls, scores: np.ndarray, labels: np.ndarray, num_classes: int) -> "AUCResult":
        per_class = [
            binary_auc(scores[:, c], labels == c) for c in range(num_classes)
        ]
        defined = [v for v in per_class if v is not None]
        macro = float(np.mean(defined)) if defined else None
        return cls(per_class=per_class, macro=macro)


def instance_auc(scores, labels, num_classes: Optional[int] = None) -> AUCResult:
    """Per-class one-vs-rest AUC over instance probability columns."""
    s = np.asarray(scores, dtype=REAL)
    if s.ndim != 2:
        raise ShapeMismatchError(f"scores must be (n, num_classes), got {s.shape}")
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if y.size != s.shape[0]:
        raise ShapeMismatchError(f"{s.shape[0]} score rows vs {y.size} labels")
    n = num_classes if num_classes is not None else s.shape[1]
    return AUCResult.compute(s, y, n)


def bag_pool(instance_probs, bags: Sequence[Bag], operator: str = "mean") -> np.ndarray:
    """Pool per-instance class probabilities to one score row per bag.

    topk_mean averages the k = max(1, ceil(0.01 * bag size)) largest
    probabilities per class column.
    """
    if operator not in POOL_OPERATORS:
        raise ValueError(f"unknown pooling operator {operator!r}")
    p = np.asarray(instance_probs, dtype=REAL)
    out = np.empty((len(bags), p.shape[1]), dtype=REAL)
    for i, bag in enumerate(bags):
        chunk = p[bag.start : bag.end]
        if chunk.shape[0] == 0:
            raise EmptyBagError(f"bag {bag.id!r} has no instances to pool")
        if operator == "mean":
            out[i] = chunk.mean(axis=0)
        elif operator == "max":
            out[i] = chunk.max(axis=0)
        else:
            k = max(1, math.ceil(0.01 * chunk.shape[0]))
            top = np.sort(chunk, axis=0)[-k:]
            out[i] = top.mean(axis=0)
    return out


def sweep_alpha(
    cache_probs,
    prior_probs,
    labels,
    grid: Optional[np.ndarray] = None,
) -> tuple[float, list[tuple[float, float]]]:
    """Grid-search the fusion weight by macro instance AUC.

    Returns (best alpha, [(alpha, metric), ...] for the whole grid).
    Ties go to the larger alpha (cache-dominant). Raises
    UndefinedMetricError when the selection labels hold a single class.
    """
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if np.unique(y).size < 2:
        raise UndefinedMetricError(
            "alpha selection labels contain a single class; AUC is undefined"
        )
    if grid is None:
        grid = alpha_grid()
    num_classes = np.asarray(cache_probs).shape[1]
    table: list[tuple[float, float]] = []
    best_alpha = float(grid[0])
    best_metric = -np.inf
    for a in grid:
        fused = fuse(cache_probs, prior_probs, float(a))
        metric = AUCResult.compute(fused, y, num_classes).macro
        table.append((float(a), float(metric)))
        if metric >= best_metric:
            best_metric = metric
            best_alpha = float(a)
    return best_alpha, table


def pick_alpha(
    cache_probs, prior_probs, labels, grid_points: int
) -> tuple[float, Optional[list[tuple[float, float]]], dict]:
    """`sweep_alpha` over `alpha_grid(grid_points)` -> (alpha, table, flags).

    Single-class selection labels leave AUC undefined: alpha falls back
    to 0.5 with no table and the flag alpha_degenerate_tuning.
    """
    try:
        alpha, table = sweep_alpha(
            cache_probs, prior_probs, labels, grid=alpha_grid(grid_points)
        )
    except UndefinedMetricError:
        return 0.5, None, {"alpha_degenerate_tuning": True}
    return alpha, table, {}


def score(
    probs, dataset: Dataset, pooling: str
) -> tuple[Optional[AUCResult], AUCResult]:
    """(instance AUC, bag AUC of the pooled scores) of instance
    probabilities over `dataset`; the instance AUC is None when any
    instance label is missing."""
    truth = dataset.instance_labels_vector()
    labeled = (truth >= 0).all()
    instance = instance_auc(probs, truth, dataset.num_classes) if labeled else None
    pooled = bag_pool(probs, dataset.bags, pooling)
    return instance, instance_auc(pooled, dataset.bag_labels(), dataset.num_classes)


# (instance AUC, bag AUC) as `score` returns them.
Scores = tuple[Optional[AUCResult], AUCResult]


@dataclass(kw_only=True)
class ScoreSpec:
    """How `evaluate` scores a test set: the bag pooling operator and the
    alpha grid size. Sweep and eval configs inherit these keys flat."""

    pooling: str = "mean"
    grid_points: int = GRID_POINTS

    def __post_init__(self):
        if self.pooling not in POOL_OPERATORS:
            raise ValueError(f"unknown pooling operator {self.pooling!r}")
        if self.grid_points < 1:
            raise ValueError("grid_points must be >= 1")


@dataclass
class Evaluation:
    """What `evaluate` found: the fusion weight, its tuning table and flags,
    the AUCs of the fused scores and, when asked, of each branch alone, and
    the tuning rows' (cache, prior) probabilities when alpha was tuned."""

    alpha: float
    alpha_table: Optional[list[tuple[float, float]]]
    flags: dict
    fused: Scores
    cache: Optional[Scores] = None
    prior: Optional[Scores] = None
    tune_probs: Optional[tuple[np.ndarray, np.ndarray]] = None


def evaluate(
    cache: CacheModel,
    prior: PriorModel,
    test: Dataset,
    spec: ScoreSpec,
    alpha: Optional[float] = None,
    tune: Optional[tuple[np.ndarray, np.ndarray]] = None,
    branches: bool = False,
) -> Evaluation:
    """Score `test` with the fusion of both branches, as `spec` says.

    A given alpha wins; otherwise `pick_alpha` tunes it on `tune`, the
    (rows, labels) of a labeled set held in memory; with neither, alpha
    is 0.5. The test rows are scored in one blocked pass (`_branch_probs`),
    so an evaluation holds the two (m, N) outputs, not the m x d rows,
    when `test` reads its rows from its files (`read_layout`). Both
    models' widths are checked against the test set's before any row is
    read. `branches` also scores each branch alone.
    """
    _check_key_dim(cache, test.dim)
    _check_text_dim(prior, test.dim)
    table, flags, tune_probs = None, {}, None
    if alpha is None and tune is not None:
        rows, labels = tune
        tune_probs = (retrieve(cache, rows), prior_predict(prior, rows))
        alpha, table, flags = pick_alpha(*tune_probs, labels, spec.grid_points)
    alpha = 0.5 if alpha is None else float(alpha)
    cache_probs, prior_probs = _branch_probs(cache, prior, test)
    fused = score(fuse(cache_probs, prior_probs, alpha), test, spec.pooling)
    if fused[0] is None:
        flags["instance_labels_missing"] = True
    result = Evaluation(alpha, table, flags, fused, tune_probs=tune_probs)
    if branches:
        result.cache = score(cache_probs, test, spec.pooling)
        result.prior = score(prior_probs, test, spec.pooling)
    return result


def _branch_probs(
    cache: CacheModel, prior: PriorModel, test: Dataset
) -> tuple[np.ndarray, np.ndarray]:
    """(cache, prior) class probabilities of every test row, in retrieve's
    blocked pass: each thread reads a block from the test store, scores it
    with both branches, and writes that block's rows of both outputs. The
    cache rows are retrieve's bytes; the prior's one GEMM per block can
    differ from prior_predict's over all rows in the last bit."""
    text = encode_prompts(prior)
    prior_probs = np.empty((test.num_instances, prior.num_classes), dtype=REAL)

    def prior_block(q: np.ndarray, start: int, stop: int) -> None:
        _prior_probs(q, text, prior.tau, out=prior_probs[start:stop])

    cache_probs = _retrieve_store(cache, test.store, prior_block)
    if not _all_finite(prior_probs):
        raise NonFiniteInputError("prior logits contain NaN or infinity")
    return cache_probs, prior_probs


@dataclass
class EvalReport:
    """Everything one evaluation run reports, JSON-serializable."""

    seed: int
    bag_shot: int
    instance_shot: int
    alpha: float
    pooling: str
    n_instances: int
    n_bags: int
    instance_auc: AUCResult
    bag_auc: AUCResult
    cache_instance_auc: AUCResult
    prior_instance_auc: AUCResult
    cache_bag_auc: AUCResult
    prior_bag_auc: AUCResult
    labeled_count: int
    annotation_ratio: float
    annotation_ratio_percent: float
    flags: dict = field(default_factory=dict)
    alpha_table: Optional[list[tuple[float, float]]] = field(default=None, metadata=OMIT_NONE)


def alpha_table_to_csv(table: list[tuple[float, float]], path) -> Path:
    """Write the per-alpha sweep metrics as (alpha, macro_instance_auc)."""
    path = Path(path)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["alpha", "macro_instance_auc"])
        for a, m in table:
            writer.writerow([repr(a), repr(m)])
    return path
