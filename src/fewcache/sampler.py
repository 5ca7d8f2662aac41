"""Dual-tier few-shot sampling.

The simulation mirrors how a small annotation budget is spent: pick K
bags per class, compress their instances to a K-means core set, then
label L instances per class from the core set. Everything downstream
(cache construction, training) sees only the resulting split.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .codec import from_doc, read_json, to_doc
from .dataset import Dataset
from .errors import InsufficientBagsError, MissingInstanceLabelsError, SplitError
from .numerics import REAL, as_matrix


@dataclass(frozen=True)
class FewShotSpec:
    """Sampling budget: K bags per class, L labeled instances per class."""

    bag_shot: int
    instance_shot: int
    coreset_fraction: float = 0.10
    coreset_cap: int = 1000
    seed: int = 0
    # Non-default protocol: label L instances inside each selected bag
    # instead of L per class across all selected bags.
    per_bag: bool = False

    def __post_init__(self):
        if self.bag_shot < 1 or self.instance_shot < 1:
            raise ValueError("bag_shot and instance_shot must be >= 1")
        if not 0.0 < self.coreset_fraction <= 1.0:
            raise ValueError("coreset_fraction must be in (0, 1]")
        if self.coreset_cap < 1:
            raise ValueError("coreset_cap must be >= 1")
        if self.seed < 0:  # np.random.SeedSequence rejects it
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class KMeansResult:
    centroids: np.ndarray
    assignment: np.ndarray
    inertia: float
    n_iter: int
    inertia_history: list[float] = field(default_factory=list)


@dataclass
class FewShotSplit:
    """Outcome of one sampling run, in global store row indices.

    labeled and unlabeled_core partition the core set; labeled rows carry
    their ground-truth class. flags records shortfalls (a class with
    fewer core members than L) and absent classes.
    """

    selected_bags: list[str]
    labeled_rows: np.ndarray
    labeled_classes: np.ndarray
    unlabeled_rows: np.ndarray
    seed: int
    flags: dict = field(default_factory=dict)

    @property
    def n_labeled(self) -> int:
        return int(self.labeled_rows.size)

    @property
    def n_cache(self) -> int:
        return int(self.labeled_rows.size + self.unlabeled_rows.size)

    def check(self, dataset: Dataset, spec: Optional[FewShotSpec] = None) -> None:
        """Assert the split invariants against its dataset."""
        labeled = set(self.labeled_rows.tolist())
        unlabeled = set(self.unlabeled_rows.tolist())
        if labeled & unlabeled:
            raise AssertionError("labeled and unlabeled core rows overlap")
        selected = set(self.selected_bags)
        allowed: set[int] = set()
        for bag in dataset.bags:
            if bag.id in selected:
                allowed.update(range(bag.start, bag.end))
        outside = (labeled | unlabeled) - allowed
        if outside:
            raise AssertionError(f"{len(outside)} split rows fall outside selected bags")
        if spec is not None and not spec.per_bag:
            counts = np.bincount(self.labeled_classes, minlength=dataset.num_classes)
            shortfall = self.flags.get("shortfall", {})
            absent = set(self.flags.get("absent_classes", []))
            for c, count in enumerate(counts):
                if c in absent:
                    continue
                if count != spec.instance_shot and str(c) not in {str(k) for k in shortfall}:
                    raise AssertionError(
                        f"class {c} has {count} labels, expected {spec.instance_shot}"
                    )


SPLIT_VERSION = 1


@dataclass
class SplitDoc:
    version: int
    selected_bags: list[str]
    labeled: list[tuple[int, int]]
    unlabeled_core: list[int]
    seed: int
    flags: dict

    def __post_init__(self):
        if self.version != SPLIT_VERSION:
            raise ValueError(f"split version {self.version}, supported {SPLIT_VERSION}")


def save_split(split: FewShotSplit, path) -> Path:
    doc = SplitDoc(
        version=SPLIT_VERSION,
        selected_bags=list(split.selected_bags),
        labeled=list(zip(split.labeled_rows.tolist(), split.labeled_classes.tolist())),
        unlabeled_core=split.unlabeled_rows.tolist(),
        seed=int(split.seed),
        flags=split.flags,
    )
    path = Path(path)
    with open(path, "w") as f:
        json.dump(to_doc(doc), f, indent=2)
    return path


def load_split(path, dataset: Optional[Dataset] = None) -> FewShotSplit:
    """Read a split.json; reject a row listed twice (in `labeled`, in
    `unlabeled_core`, or in both) and, with `dataset`, rows or classes it
    lacks."""
    doc = from_doc(SplitDoc, read_json(path, SplitError), SplitError)
    split = FewShotSplit(
        selected_bags=doc.selected_bags,
        labeled_rows=np.array([r for r, _ in doc.labeled], dtype=np.int64),
        labeled_classes=np.array([c for _, c in doc.labeled], dtype=np.int64),
        unlabeled_rows=np.array(doc.unlabeled_core, dtype=np.int64),
        seed=doc.seed,
        flags=doc.flags,
    )
    rows = np.concatenate([split.labeled_rows, split.unlabeled_rows])
    unique, counts = np.unique(rows, return_counts=True)
    if (counts > 1).any():
        raise SplitError(f"{path}: row {unique[counts > 1][0]} is listed more than once")
    if dataset is not None:
        classes = split.labeled_classes
        if ((rows < 0) | (rows >= dataset.num_instances)).any() or (
                (classes < 0) | (classes >= dataset.num_classes)).any():
            raise SplitError(f"{path}: a row or class lies outside the {dataset.name!r} dataset")
    return split


def sample_bags(dataset: Dataset, bag_shot: int, seed) -> list[str]:
    """Stratified uniform sample without replacement: K bag ids per class."""
    rng = np.random.default_rng(seed)
    by_class: dict[int, list[str]] = {c: [] for c in range(dataset.num_classes)}
    for bag in dataset.bags:
        by_class[bag.label].append(bag.id)
    chosen: list[str] = []
    for c in range(dataset.num_classes):
        pool = by_class[c]
        if len(pool) < bag_shot:
            raise InsufficientBagsError(
                f"class {c} ({dataset.classes[c]!r}) has {len(pool)} bags, need {bag_shot}"
            )
        picked = rng.choice(len(pool), size=bag_shot, replace=False)
        chosen.extend(pool[i] for i in sorted(picked))
    return chosen


def _kmeanspp_init(
    x: np.ndarray, xx: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii 2007); xx holds row norms².

    After each draw the exact distance ((x - c)**2).sum() is recomputed only
    for rows where the one-gemv expansion xx - 2 x.c + cc, less a bound on
    the rounding error of both forms (2(d+3) eps (|x| + |c|)², plus an
    absolute term for underflow), does not clear the current d2. Every other
    row provably keeps its d2, so d2 and all draws equal the all-rows form;
    a NaN or infinite bound fails the test and takes the exact path.
    """
    n, d = x.shape
    centroids = np.empty((k, d), dtype=REAL)
    norms = np.sqrt(xx)
    rel = 2 * (d + 3) * np.finfo(REAL).eps
    absolute = 4 * (d + 3) * np.finfo(REAL).smallest_subnormal
    first = int(rng.integers(n))
    centroids[0] = x[first]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # All remaining points coincide with chosen centroids.
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = x[idx]
        if j == k - 1:
            break
        bound = rel * (norms + norms[idx]) ** 2 + absolute
        low = xx - 2.0 * (x @ centroids[j]) + xx[idx] - bound
        near = np.flatnonzero(~(low >= d2))
        d2[near] = np.minimum(d2[near], ((x[near] - centroids[j]) ** 2).sum(axis=1))
    return centroids


def _sq_dists(x: np.ndarray, xx: np.ndarray, centroids: np.ndarray, out: np.ndarray) -> None:
    # ||x - c||^2 = xx - 2 x.c + cc, built in place in `out` (the same IEEE
    # operations as the textbook expression); clip the tiny negatives
    # cancellation produces.
    d2 = np.matmul(x, centroids.T, out=out)
    d2 *= -2.0
    d2 += xx[:, None]
    d2 += (centroids * centroids).sum(axis=1)
    np.maximum(d2, 0.0, out=d2)


def _update_centroids(
    x: np.ndarray, assignment: np.ndarray, counts: np.ndarray, centroids: np.ndarray
) -> None:
    # Each nonempty cluster's mean, reducing a contiguous copy of its
    # members in row order: the same reduction as x[assignment == j].mean(0)
    # (sequential over rows for d > 1, pairwise for d == 1), so the bits
    # match. np.add.reduceat and np.add.at sum in other orders.
    grouped = x[np.argsort(assignment, kind="stable")]
    ends = np.cumsum(counts)
    nonempty = np.flatnonzero(counts)
    sums = [
        np.add.reduce(grouped[end - count : end], axis=0)
        for count, end in zip(counts[nonempty].tolist(), ends[nonempty].tolist())
    ]
    centroids[nonempty] = np.array(sums) / counts[nonempty, None]


def kmeans(points, k: int, max_iter: int = 100, seed=0) -> KMeansResult:
    """Lloyd iterations from a k-means++ start, deterministic given seed.

    Empty clusters are re-seeded with the point farthest from its current
    centroid. Iteration stops when the assignment is unchanged. When the
    points hold fewer than k distinct rows it also stops once the inertia,
    recorded once per iteration, stops falling: there coinciding centroids
    leave clusters empty, and the re-seeded ones can keep trading copies
    of one row at an inertia that only rounding tells from 0. Such inputs
    can leave clusters empty in the result.
    """
    x = as_matrix(points, "kmeans points")
    n = x.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds number of points ({n})")
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)
    xx = (x * x).sum(axis=1)
    centroids = _kmeanspp_init(x, xx, k, rng)
    assignment = np.full(n, -1, dtype=np.int64)
    rows = np.arange(n)
    history: list[float] = []
    n_iter = 0
    few_distinct = None  # counted only once the inertia stops falling
    # One n x k buffer for every iteration: a fresh one per step fragments the heap.
    d2 = np.empty((n, k), dtype=x.dtype)
    for it in range(max_iter):
        n_iter = it + 1
        _sq_dists(x, xx, centroids, d2)
        new_assignment = d2.argmin(axis=1)
        point_d2 = d2[rows, new_assignment]
        history.append(float(point_d2.sum()))
        # Either way the centroids are unchanged since d2, so this is the result.
        if np.array_equal(new_assignment, assignment):
            break
        if it and not history[-1] < history[-2]:
            if few_distinct is None:
                few_distinct = np.unique(x, axis=0).shape[0] < k
            if few_distinct:
                break
        assignment = new_assignment
        counts = np.bincount(assignment, minlength=k)
        _update_centroids(x, assignment, counts, centroids)
        # Re-seed empty clusters in index order from the farthest points, one
        # at a time so two empty clusters never grab the same point. A stolen
        # point may empty a later cluster, which is then re-seeded too.
        j = 0
        while (empty := np.flatnonzero(counts[j:] == 0)).size:
            j += int(empty[0])
            far = int(point_d2.argmax())
            counts[assignment[far]] -= 1
            counts[j] += 1
            centroids[j] = x[far]
            assignment[far] = j
            point_d2[far] = 0.0
            j += 1
    else:
        _sq_dists(x, xx, centroids, d2)
        new_assignment = d2.argmin(axis=1)
        point_d2 = d2[rows, new_assignment]
    return KMeansResult(
        centroids=centroids,
        assignment=new_assignment,
        inertia=float(point_d2.sum()),
        n_iter=n_iter,
        inertia_history=history,
    )


def select_core_set(points, spec: FewShotSpec, seed=None) -> np.ndarray:
    """Pick representative instance rows: one per nonempty K-means cluster.

    k = min(ceil(coreset_fraction * n), coreset_cap). Each nonempty
    cluster contributes the member nearest its centroid (the lowest row
    on ties), in cluster order, so representatives are actual dataset
    rows and all distinct. Points with fewer than k distinct rows leave
    clusters empty, and the core set is then smaller than k. Returns
    local row indices into `points`.
    """
    x = as_matrix(points, "core-set points")
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot select a core set from zero instances")
    k = min(math.ceil(spec.coreset_fraction * n), spec.coreset_cap, n)
    result = kmeans(x, k, seed=spec.seed if seed is None else seed)
    cluster = result.assignment
    own_d2 = ((x - result.centroids[cluster]) ** 2).sum(axis=1)
    order = np.lexsort((own_d2, cluster))
    grouped = cluster[order]
    first = np.ones(n, dtype=bool)
    first[1:] = grouped[1:] != grouped[:-1]
    return order[first]


def sample_labeled_instances(
    core_labels: np.ndarray,
    instance_shot: int,
    seed,
    num_classes: int,
) -> tuple[np.ndarray, dict]:
    """Uniform per-class sample of L core-set members; returns local indices.

    Classes with fewer than L core members contribute everything they
    have and are flagged under "shortfall"; classes absent from the core
    set are flagged under "absent_classes" rather than failing, since
    rare classes may genuinely vanish from a small core set.
    """
    return _sample_groups(core_labels, range(num_classes), instance_shot, seed, "absent_classes")


def _sample_groups(
    core_group: np.ndarray, names, instance_shot: int, seed, absent_flag: str
) -> tuple[np.ndarray, dict]:
    """L core members from each group, in group order; core_group[i] is the
    index into `names` of core member i's group. A group with fewer than L
    members gives them all, under flags["shortfall"][str(name)]; an empty
    one is listed under flags[absent_flag]."""
    rng = np.random.default_rng(seed)
    flags: dict = {}
    picked: list[np.ndarray] = []
    for group, name in enumerate(names):
        members = np.flatnonzero(core_group == group)
        if members.size == 0:
            flags.setdefault(absent_flag, []).append(name)
            continue
        if members.size < instance_shot:
            flags.setdefault("shortfall", {})[str(name)] = int(members.size)
            picked.append(members)
        else:
            sel = rng.choice(members.size, size=instance_shot, replace=False)
            picked.append(members[np.sort(sel)])
    chosen = np.concatenate(picked) if picked else np.empty(0, dtype=np.int64)
    return chosen, flags


def sample_split(dataset: Dataset, spec: FewShotSpec) -> FewShotSplit:
    """Run the full pipeline: bags -> core set -> labeled instances.

    Deterministic function of (dataset, spec): child seeds for the three
    stages are spawned from spec.seed.
    """
    s_bags, s_core, s_label = np.random.SeedSequence(spec.seed).spawn(3)
    selected = sample_bags(dataset, spec.bag_shot, s_bags)
    position = {bag_id: i for i, bag_id in enumerate(selected)}
    bags = [b for b in dataset.bags if b.id in position]
    rows_global = np.concatenate([np.arange(b.start, b.end) for b in bags])
    core_local = select_core_set(dataset.store.take(rows_global), spec, seed=s_core)
    core_global = rows_global[core_local]

    # Labels of the selected bags' rows only (-1 where unknown), in row order.
    truth = np.concatenate([
        np.full(b.n, -1) if b.instance_labels is None else b.instance_labels for b in bags
    ], dtype=np.int64)
    core_labels = truth[core_local]
    if (core_labels < 0).any():
        raise MissingInstanceLabelsError(
            "core set contains instances without ground-truth labels; "
            "few-shot simulation requires labeled training bags"
        )

    if spec.per_bag:
        # Group by position in `selected`, so bags are labeled in that order.
        bag_of_row = np.repeat([position[b.id] for b in bags], [b.n for b in bags])
        chosen_local, flags = _sample_groups(
            bag_of_row[core_local], selected, spec.instance_shot, s_label, "empty_bags"
        )
    else:
        chosen_local, flags = sample_labeled_instances(
            core_labels, spec.instance_shot, s_label, dataset.num_classes
        )

    labeled_rows = core_global[chosen_local]
    labeled_classes = core_labels[chosen_local]
    mask = np.ones(core_global.size, dtype=bool)
    mask[chosen_local] = False
    unlabeled_rows = core_global[mask]
    split = FewShotSplit(
        selected_bags=selected,
        labeled_rows=labeled_rows,
        labeled_classes=labeled_classes,
        unlabeled_rows=unlabeled_rows,
        seed=spec.seed,
        flags=flags,
    )
    split.check(dataset, spec)
    return split
