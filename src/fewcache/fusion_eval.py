"""Branch fusion, alpha grid search, and instance-/bag-level AUC.

AUC is the rank-based Mann-Whitney statistic with midrank tie handling:
identical to P(score+ > score-) + 0.5 * P(score+ = score-) over all
positive/negative pairs, computed in O(n log n). Classes with no
positives or no negatives get an explicit undefined flag (None), never a
silent 0.5, and are excluded from macro means.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dataset import Bag
from .errors import EmptyBagError, ShapeMismatchError, UndefinedMetricError
from .numerics import REAL

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

    def to_dict(self) -> dict:
        return {"per_class": self.per_class, "macro": self.macro}

    @classmethod
    def from_dict(cls, doc: dict) -> "AUCResult":
        return cls(per_class=list(doc["per_class"]), macro=doc["macro"])


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
    alpha_table: Optional[list[tuple[float, float]]] = None

    def to_dict(self) -> dict:
        doc = {
            "seed": self.seed,
            "bag_shot": self.bag_shot,
            "instance_shot": self.instance_shot,
            "alpha": self.alpha,
            "pooling": self.pooling,
            "n_instances": self.n_instances,
            "n_bags": self.n_bags,
            "instance_auc": self.instance_auc.to_dict(),
            "bag_auc": self.bag_auc.to_dict(),
            "cache_instance_auc": self.cache_instance_auc.to_dict(),
            "prior_instance_auc": self.prior_instance_auc.to_dict(),
            "cache_bag_auc": self.cache_bag_auc.to_dict(),
            "prior_bag_auc": self.prior_bag_auc.to_dict(),
            "labeled_count": self.labeled_count,
            "annotation_ratio": self.annotation_ratio,
            "annotation_ratio_percent": self.annotation_ratio_percent,
            "flags": self.flags,
        }
        if self.alpha_table is not None:
            doc["alpha_table"] = [[a, m] for a, m in self.alpha_table]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "EvalReport":
        table = doc.get("alpha_table")
        return cls(
            seed=doc["seed"],
            bag_shot=doc["bag_shot"],
            instance_shot=doc["instance_shot"],
            alpha=doc["alpha"],
            pooling=doc["pooling"],
            n_instances=doc["n_instances"],
            n_bags=doc["n_bags"],
            instance_auc=AUCResult.from_dict(doc["instance_auc"]),
            bag_auc=AUCResult.from_dict(doc["bag_auc"]),
            cache_instance_auc=AUCResult.from_dict(doc["cache_instance_auc"]),
            prior_instance_auc=AUCResult.from_dict(doc["prior_instance_auc"]),
            cache_bag_auc=AUCResult.from_dict(doc["cache_bag_auc"]),
            prior_bag_auc=AUCResult.from_dict(doc["prior_bag_auc"]),
            labeled_count=doc["labeled_count"],
            annotation_ratio=doc["annotation_ratio"],
            annotation_ratio_percent=doc["annotation_ratio_percent"],
            flags=dict(doc.get("flags", {})),
            alpha_table=[(a, m) for a, m in table] if table is not None else None,
        )


def alpha_table_to_csv(table: list[tuple[float, float]], path) -> Path:
    """Write the per-alpha sweep metrics as (alpha, macro_instance_auc)."""
    path = Path(path)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["alpha", "macro_instance_auc"])
        for a, m in table:
            writer.writerow([repr(a), repr(m)])
    return path


def eval_report_to_csv(report: EvalReport, path) -> Path:
    """Flatten one report to a two-column (metric, value) CSV."""
    doc = report.to_dict()
    doc.pop("alpha_table", None)
    flat: list[tuple[str, object]] = []

    def _walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                _walk(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, list):
            for i, v in enumerate(value):
                _walk(f"{prefix}[{i}]", v)
        else:
            flat.append((prefix, value))

    _walk("", doc)
    path = Path(path)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["metric", "value"])
        for key, value in flat:
            writer.writerow([key, repr(value) if isinstance(value, float) else value])
    return path
