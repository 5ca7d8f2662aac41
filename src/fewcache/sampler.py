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
from .numerics import REAL, _block_workers, _row_blocks, _run_blocks, as_matrix


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
        """Assert the split invariants against its dataset, in memory of the
        split's rows and the bag count, not the bag sizes."""
        labeled, unlabeled = np.unique(self.labeled_rows), np.unique(self.unlabeled_rows)
        rows = np.sort(np.concatenate([labeled, unlabeled]))
        if (rows[1:] == rows[:-1]).any():
            raise AssertionError("labeled and unlabeled core rows overlap")
        # The selected ranges by start, after one that holds no row: a row is
        # in one iff it is below the furthest end of those starting by it.
        selected = set(self.selected_bags)
        ranges = sorted((bag.start, bag.end) for bag in dataset.bags if bag.id in selected)
        starts, ends = np.array([(-1 << 63, -1 << 63)] + ranges, dtype=np.int64).T
        furthest = np.maximum.accumulate(ends)[np.searchsorted(starts, rows, side="right") - 1]
        outside = np.count_nonzero(rows >= furthest)
        if outside:
            raise AssertionError(f"{outside} split rows fall outside selected bags")
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
    a NaN or infinite bound fails the test and takes the exact path. Each
    draw is `_draw`'s, the index rng.choice(n, p=d2 / total) gives. The
    bound, the expansion and the draw's cumulative sum reuse three
    n-vectors allocated once, and the exact distances are taken one row
    block at a time, so no (n, d) temporary is made.
    """
    n, d = x.shape
    centroids = np.empty((k, d), dtype=REAL)
    norms = np.sqrt(xx)
    rel = 2 * (d + 3) * np.finfo(REAL).eps
    absolute = 4 * (d + 3) * np.finfo(REAL).smallest_subnormal
    first = int(rng.integers(n))
    centroids[0] = x[first]
    d2 = _sq_distances(x, centroids)
    bound, low, cdf = np.empty(n), np.empty(n), np.empty(n)
    step = _row_blocks(n, d).step
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # All remaining points coincide with chosen centroids.
            idx = int(rng.integers(n))
        else:
            idx = _draw(d2, total, rng, cdf)
        centroids[j] = x[idx]
        if j == k - 1:
            break
        # In place, the operations of bound = rel * (norms + norms[idx]) ** 2
        # + absolute and low = xx - 2.0 * (x @ centroids[j]) + xx[idx] - bound.
        np.add(norms, norms[idx], out=bound)
        np.square(bound, out=bound)
        bound *= rel
        bound += absolute
        np.matmul(x, centroids[j], out=low)
        low *= 2.0
        np.subtract(xx, low, out=low)
        low += xx[idx]
        low -= bound
        near = np.flatnonzero(~(low >= d2))
        for part in range(0, near.size, step):
            rows = near[part : part + step]
            d2[rows] = np.minimum(d2[rows], ((x[rows] - centroids[j]) ** 2).sum(axis=1))
    return centroids


def _sq_distances(
    x: np.ndarray, centroids: np.ndarray, cluster: np.ndarray | None = None
) -> np.ndarray:
    """((x - c) ** 2).sum(axis=1) for c = centroids[0], or with `cluster`
    for each row's own centroids[cluster[i]], one row block at a time. Each
    row is reduced on its own, so the blocks do not change a bit, and every
    temporary is one block."""
    n = x.shape[0]
    out = np.empty(n, dtype=x.dtype)
    starts = _row_blocks(n, x.shape[1])
    for start in starts:
        rows = slice(start, start + starts.step)
        own = centroids[0] if cluster is None else centroids[cluster[rows]]
        ((x[rows] - own) ** 2).sum(axis=1, out=out[rows])
    return out


def _draw(d2: np.ndarray, total: float, rng: np.random.Generator, cdf: np.ndarray) -> int:
    """The index rng.choice(d2.size, p=d2 / total) draws, for a positive
    total: the steps Generator.choice runs after its argument checks (the
    cumulative sum, scaled to end at 1, searched for one uniform draw), so
    the same index and the same generator state. `cdf` is scratch space.
    Like rng.choice, refuses a total that overflowed."""
    if not np.isfinite(total):
        raise ValueError("k-means++ squared distances overflow float64")
    np.divide(d2, total, out=cdf)
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _assign(
    x: np.ndarray,
    xx: np.ndarray,
    centroids: np.ndarray,
    d2: np.ndarray,
    nearest: np.ndarray,
    picked: np.ndarray,
) -> None:
    """Write each row's nearest centroid into `nearest` and its squared
    distance to it into `picked`, one row block of `_row_blocks(n, k)` at a
    time in the (workers, rows, k) buffer `d2`, block i of a thread in its
    own d2[i].

    ||x - c||^2 = xx - 2 x.c + cc is built in place (the same IEEE
    operations as the textbook expression), and the result equals the
    argmin and pick of its clamp at 0 without a clamping pass: clamping
    moves only negative entries, so only rows whose minimum cancellation
    left negative redo the argmin on their clamped values. Each row's
    outcome is its own, and the block boundaries depend on (n, k) only, so
    the bytes are the same on any number of threads. Every thread runs
    under the caller's floating-point error state.
    """
    n = x.shape[0]
    starts = _row_blocks(n, centroids.shape[0])
    cc = (centroids * centroids).sum(axis=1)
    local = np.arange(d2.shape[1])
    errors = np.geterr()

    def assign_blocks(i: int, blocks) -> None:
        with np.errstate(**errors):
            for start in blocks:
                stop = min(start + starts.step, n)
                block = d2[i, : stop - start]
                np.matmul(x[start:stop], centroids.T, out=block)
                block *= -2.0
                block += xx[start:stop, None]
                block += cc
                near = block.argmin(axis=1, out=nearest[start:stop])
                pick = block[local[: stop - start], near]
                for row in np.flatnonzero(pick < 0.0).tolist():
                    clamped = np.maximum(block[row], 0.0, out=block[row])
                    near[row] = clamped.argmin()
                    pick[row] = clamped[near[row]]
                np.maximum(pick, 0.0, out=picked[start:stop])

    _run_blocks(assign_blocks, starts, d2.shape[0])


def _update_centroids(
    x: np.ndarray,
    assignment: np.ndarray,
    counts: np.ndarray,
    centroids: np.ndarray,
    stale: np.ndarray,
) -> None:
    """Set the centroid of each nonempty cluster flagged in the k-vector
    `stale` to its members' mean; leave every other centroid as it is.

    Each mean reduces a contiguous copy of the cluster's members in row
    order: the same reduction as x[assignment == j].mean(0) (sequential
    over rows for d > 1, pairwise for d == 1), so the bits match, and a
    cluster whose members are unchanged gets the same bits again.
    np.add.reduceat and np.add.at sum in other orders. Every allocation
    has the same size at every call: variable-size ones split the heap
    and raised the `coreset_sample` worker's peak RSS by about 3 MB.
    """
    grouped = x[np.argsort(assignment, kind="stable")]
    ends, sizes = np.cumsum(counts).tolist(), counts.tolist()
    for j in np.flatnonzero(stale & (counts > 0)).tolist():
        row = centroids[j]
        np.add.reduce(grouped[ends[j] - sizes[j] : ends[j]], axis=0, out=row)
        row /= sizes[j]


def kmeans(points, k: int, max_iter: int = 100, seed=0) -> KMeansResult:
    """Lloyd iterations from a k-means++ start, deterministic given seed.

    Empty clusters are re-seeded with the point farthest from its current
    centroid. Iteration stops when the assignment is unchanged. When the
    points hold fewer than k distinct rows it also stops once the inertia,
    recorded once per iteration, stops falling: there coinciding centroids
    leave clusters empty, and the re-seeded ones can keep trading copies
    of one row at an inertia that only rounding tells from 0. Such inputs
    can leave clusters empty in the result.

    Each update recomputes only the centroids of clusters that gained or
    lost a row, or were re-seeded, since the last one; every other
    cluster's mean would come out with the same bits.

    Each assignment pass (`_assign`) runs in row blocks shared by one
    thread per CPU (`numerics._block_workers`), with the same bytes on any
    number of threads. Its memory is one (rows, k) block per thread, not
    n x k: with the rows, the call holds one grouped copy of them (the
    centroid update's) and a few n-vectors.
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
    history: list[float] = []
    n_iter = 0
    few_distinct = None  # counted only once the inertia stops falling
    stale = np.ones(k, dtype=bool)  # centroids that may not be their members' mean
    # Every buffer of the Lloyd pass is allocated here, once, at a fixed size:
    # fresh or variable-size ones per step fragment the heap. The pass writes
    # each new assignment into the vector the previous one is not in.
    starts = _row_blocks(n, k)
    d2 = np.empty((_block_workers(starts), min(starts.step, n), k), dtype=x.dtype)
    assignment = np.full(n, -1, dtype=np.intp)
    new_assignment, point_d2 = np.empty(n, dtype=np.intp), np.empty(n, dtype=x.dtype)
    for it in range(max_iter):
        n_iter = it + 1
        _assign(x, xx, centroids, d2, new_assignment, point_d2)
        history.append(float(point_d2.sum()))
        moved = new_assignment != assignment
        # Either way the centroids are unchanged since the pass, so this is the result.
        if not moved.any():
            break
        if it and not history[-1] < history[-2]:
            if few_distinct is None:
                few_distinct = np.unique(x, axis=0).shape[0] < k
            if few_distinct:
                break
        # On the first pass the -1s flag cluster k - 1, stale already.
        np.logical_or.at(stale, assignment, moved)
        np.logical_or.at(stale, new_assignment, moved)
        assignment, new_assignment = new_assignment, assignment
        counts = np.bincount(assignment, minlength=k)
        _update_centroids(x, assignment, counts, centroids, stale)
        stale[:] = False
        # Re-seed empty clusters in index order from the farthest points, one
        # at a time so two empty clusters never grab the same point. A stolen
        # point may empty a later cluster, which is then re-seeded too.
        j = 0
        while (empty := np.flatnonzero(counts[j:] == 0)).size:
            j += int(empty[0])
            far = int(point_d2.argmax())
            counts[assignment[far]] -= 1
            counts[j] += 1
            stale[assignment[far]] = stale[j] = True
            centroids[j] = x[far]
            assignment[far] = j
            point_d2[far] = 0.0
            j += 1
    else:
        _assign(x, xx, centroids, d2, new_assignment, point_d2)
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
    own_d2 = _sq_distances(x, result.centroids, cluster)
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
