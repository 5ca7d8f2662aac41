import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewcache.dataset import SynthSpec, synth_generate
from fewcache.errors import InsufficientBagsError, SplitError
from fewcache.sampler import (
    FewShotSpec,
    FewShotSplit,
    kmeans,
    load_split,
    sample_bags,
    sample_labeled_instances,
    sample_split,
    save_split,
    select_core_set,
)


def _reference_kmeans(x, k, max_iter=100, seed=0):
    """Per-cluster loop form of kmeans and the representative pick: the
    oracle for the vectorised one. Empty clusters give no representative."""
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[int(rng.integers(n))]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = x[idx]
        d2 = np.minimum(d2, ((x - centroids[j]) ** 2).sum(axis=1))

    def sq_dists(c):
        d2 = (
            (x * x).sum(axis=1)[:, None]
            - 2.0 * (x @ c.T)
            + (c * c).sum(axis=1)[None, :]
        )
        return np.maximum(d2, 0.0)

    assignment = np.full(n, -1, dtype=np.int64)
    history = []
    n_iter = 0
    for it in range(max_iter):
        n_iter = it + 1
        d2 = sq_dists(centroids)
        new_assignment = d2.argmin(axis=1)
        point_d2 = d2[np.arange(n), new_assignment]
        history.append(float(point_d2.sum()))
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for j in range(k):
            members = assignment == j
            if members.any():
                centroids[j] = x[members].mean(axis=0)
        for j in range(k):
            if not (assignment == j).any():
                far = int(point_d2.argmax())
                centroids[j] = x[far]
                assignment[far] = j
                point_d2[far] = 0.0
    d2 = sq_dists(centroids)
    assignment = d2.argmin(axis=1)
    inertia = float(d2[np.arange(n), assignment].sum())
    reps = []
    for j in range(k):
        members = np.flatnonzero(assignment == j)
        if members.size:
            own = ((x[members] - centroids[j]) ** 2).sum(axis=1)
            reps.append(members[int(own.argmin())])
    return centroids, assignment, inertia, history, n_iter, np.array(reps)


def _assert_matches_reference(x, k, seed):
    # max_iter=0 returns the k-means++ seeds themselves
    seeds = _reference_kmeans(x, k, max_iter=0, seed=seed)[0]
    assert kmeans(x, k, max_iter=0, seed=seed).centroids.tobytes() == seeds.tobytes()
    centroids, assignment, inertia, history, n_iter, reps = _reference_kmeans(x, k, seed=seed)
    result = kmeans(x, k, seed=seed)
    if result.n_iter < n_iter:
        # Only with fewer distinct rows than k does kmeans also stop once the
        # inertia stops falling. Up to there it runs the loops' iterations, so
        # it returns their state one iteration earlier and records its inertia.
        assert np.unique(x, axis=0).shape[0] < k
        n_iter = result.n_iter
        centroids, assignment, inertia, history, _, reps = _reference_kmeans(
            x, k, max_iter=n_iter - 1, seed=seed
        )
        history = history + [inertia]
    assert result.centroids.tobytes() == centroids.tobytes()
    assert np.array_equal(result.assignment, assignment)
    assert np.float64(result.inertia).tobytes() == np.float64(inertia).tobytes()
    assert np.array(result.inertia_history).tobytes() == np.array(history).tobytes()
    assert result.n_iter == n_iter
    spec = FewShotSpec(bag_shot=1, instance_shot=1, coreset_fraction=1.0, coreset_cap=k,
                       seed=seed)
    assert np.array_equal(select_core_set(x, spec), reps)


@st.composite
def _point_sets(draw, k_within_distinct=False):
    """Small point sets with duplicated rows, exact ties and row scales from
    1e-165 to 1e150 (near 1e-162 squared distances are subnormal); a shared
    offset up to 1e12 times the spread makes the expansion cancel, and past
    1e154 its squared norms overflow. With `k_within_distinct`, k is at most
    the number of distinct base rows."""
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 20))
    distinct = draw(st.integers(1, n))
    k = draw(st.integers(1, distinct if k_within_distinct else n))
    exponent = st.one_of(st.integers(-165, 150), st.integers(-163, -160))
    exponents = draw(st.lists(exponent, min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.choice(np.array(exponents, dtype=float), size=(distinct, 1))
    base = rng.normal(size=(distinct, d)) * scale
    if draw(st.booleans()):
        base = np.round(base / scale * 4) * scale
    if draw(st.booleans()):
        gap = draw(st.integers(0, 12))
        base = base + rng.normal(size=d) * 10.0 ** (max(exponents) + gap)
    x = base[rng.integers(0, distinct, size=n)]
    return x, k, draw(st.integers(0, 1000))


class TestKMeansOracle:
    """The vectorised kmeans/select_core_set against the per-cluster loops."""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(_point_sets())
    def test_bit_identical_to_loops(self, case):
        x, k, seed = case
        _assert_matches_reference(x, k, seed)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(_point_sets(k_within_distinct=True))
    def test_bit_identical_to_loops_at_k_within_distinct_rows(self, case):
        # Mostly at least k distinct rows, where kmeans must run every Lloyd
        # and re-seed iteration of the loops.
        x, k, seed = case
        _assert_matches_reference(x, k, seed)

    @pytest.mark.parametrize("n, d, k", [(1200, 32, 120), (400, 1, 20), (300, 64, 300)])
    def test_bit_identical_at_scale(self, n, d, k):
        rng = np.random.default_rng(n + d)
        centers = rng.normal(size=(k // 2 + 1, d)) * 3.0
        x = centers[rng.integers(0, centers.shape[0], size=n)] + rng.normal(size=(n, d))
        _assert_matches_reference(x, k, seed=7)


class TestSampleBags:
    def test_counts_and_uniqueness(self, small_dataset):
        ids = sample_bags(small_dataset, 2, seed=0)
        assert len(ids) == 4
        assert len(set(ids)) == 4
        by_id = {b.id: b for b in small_dataset.bags}
        labels = [by_id[i].label for i in ids]
        assert labels.count(0) == 2 and labels.count(1) == 2

    def test_insufficient_bags(self, small_dataset):
        with pytest.raises(InsufficientBagsError, match="class 0"):
            sample_bags(small_dataset, 5, seed=0)

    def test_deterministic(self, small_dataset):
        assert sample_bags(small_dataset, 3, seed=9) == sample_bags(small_dataset, 3, seed=9)


class TestKMeans:
    def test_two_cluster_oracle(self):
        # brute force over all 2-partitions of the 1-d points
        points = np.array([[0.0], [1.0], [10.0], [11.0]])

        def partition_inertia(mask):
            total = 0.0
            for side in (mask, ~mask):
                if side.any():
                    c = points[side].mean(axis=0)
                    total += float(((points[side] - c) ** 2).sum())
            return total

        best = min(
            partition_inertia(np.array(bits, dtype=bool))
            for bits in itertools.product([False, True], repeat=4)
            if any(bits) and not all(bits)
        )
        result = kmeans(points, 2, seed=0)
        assert result.inertia == pytest.approx(best, abs=1e-12)
        assert sorted(result.centroids.ravel().tolist()) == pytest.approx([0.5, 10.5])
        left = result.assignment[0]
        assert list(result.assignment) == [left, left, 1 - left, 1 - left]

    def test_k_equals_n_zero_inertia(self, rng):
        points = rng.normal(size=(6, 3))
        result = kmeans(points, 6, seed=1)
        assert result.inertia == pytest.approx(0.0, abs=1e-20)

    @pytest.mark.parametrize("seed", range(5))
    def test_fewer_distinct_rows_than_k_stops_early(self, seed):
        # Re-seeded centroids sit on exact copies of rows whose cluster mean
        # is off by rounding, so they keep trading copies and the inertia
        # wobbles at ~1e-15; without the stop rule this ran 100 iterations.
        rows = np.random.default_rng(seed).normal(size=(4, 3))
        points = np.repeat(rows, 10, axis=0)
        result = kmeans(points, 20, seed=seed)
        assert result.n_iter <= 3
        assert len(set(result.assignment.tolist())) == 4
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_inertia_monotone(self, rng):
        points = rng.normal(size=(100, 4))
        result = kmeans(points, 7, seed=3)
        history = result.inertia_history
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))
        assert result.inertia <= history[0] + 1e-9

    def test_points_assigned_to_nearest(self, rng):
        points = rng.normal(size=(60, 3))
        result = kmeans(points, 5, seed=4)
        d2 = ((points[:, None, :] - result.centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(result.assignment, d2.argmin(axis=1))

    def test_k_too_large(self, rng):
        with pytest.raises(ValueError):
            kmeans(rng.normal(size=(3, 2)), 4, seed=0)

    def test_deterministic(self, rng):
        points = rng.normal(size=(40, 3))
        a = kmeans(points, 4, seed=5)
        b = kmeans(points, 4, seed=5)
        assert np.array_equal(a.assignment, b.assignment)
        assert np.array_equal(a.centroids, b.centroids)


class TestSelectCoreSet:
    def test_fraction_arithmetic(self, rng):
        points = rng.normal(size=(100, 4))
        spec = FewShotSpec(bag_shot=1, instance_shot=1, coreset_fraction=0.10,
                           coreset_cap=1000, seed=0)
        reps = select_core_set(points, spec)
        assert reps.size == 10
        assert np.unique(reps).size == 10

    def test_cap_at_1000_on_50k_points(self):
        # 50k points drawn from a grid of distinct locations so Lloyd
        # converges immediately; the cap must clip ceil(0.1 * 50k) to 1000.
        rng = np.random.default_rng(0)
        grid = rng.normal(size=(1000, 2)) * 100.0
        points = np.repeat(grid, 50, axis=0)
        spec = FewShotSpec(bag_shot=1, instance_shot=1, coreset_cap=1000, seed=0)
        reps = select_core_set(points, spec)
        assert reps.size == 1000

    def test_representatives_are_rows(self, rng):
        base = rng.normal(size=(20, 3))
        points = np.concatenate([base, base])  # duplicated point set
        spec = FewShotSpec(bag_shot=1, instance_shot=1, coreset_fraction=0.2, seed=1)
        reps = select_core_set(points, spec)
        assert reps.size == 8
        assert np.unique(reps).size == reps.size
        assert reps.min() >= 0 and reps.max() < 40

    def test_fewer_distinct_rows_than_k(self):
        # 4 distinct rows, k = 20: k-means leaves clusters empty, and each
        # nonempty cluster gives one representative.
        rng = np.random.default_rng(3)
        points = np.repeat(rng.normal(size=(4, 5)), 10, axis=0)
        spec = FewShotSpec(bag_shot=1, instance_shot=1, coreset_fraction=0.5, seed=0)
        reps = select_core_set(points, spec)
        assert 1 <= reps.size <= 4
        assert np.unique(reps).size == reps.size
        assert np.unique(points[reps], axis=0).shape[0] == reps.size


class TestSampleLabeledInstances:
    def test_full_quota(self, rng):
        labels = np.repeat([0, 1], 30)
        chosen, flags = sample_labeled_instances(labels, 16, seed=0, num_classes=2)
        assert chosen.size == 32
        counts = np.bincount(labels[chosen])
        assert list(counts) == [16, 16]
        assert flags == {}

    def test_shortfall_flagged(self, rng):
        labels = np.array([0] * 30 + [1] * 5)
        chosen, flags = sample_labeled_instances(labels, 16, seed=0, num_classes=2)
        assert np.bincount(labels[chosen])[1] == 5
        assert flags["shortfall"]["1"] == 5

    def test_absent_class_flagged(self):
        labels = np.zeros(20, dtype=np.int64)
        chosen, flags = sample_labeled_instances(labels, 4, seed=0, num_classes=2)
        assert flags["absent_classes"] == [1]
        assert chosen.size == 4

    def test_deterministic(self):
        labels = np.repeat([0, 1, 0, 1], 25)
        a, _ = sample_labeled_instances(labels, 8, seed=3, num_classes=2)
        b, _ = sample_labeled_instances(labels, 8, seed=3, num_classes=2)
        assert np.array_equal(a, b)


class TestSampleSplit:
    def test_invariants(self, small_dataset):
        spec = FewShotSpec(bag_shot=3, instance_shot=4, seed=2)
        split = sample_split(small_dataset, spec)
        split.check(small_dataset, spec)
        labeled = set(split.labeled_rows.tolist())
        unlabeled = set(split.unlabeled_rows.tolist())
        assert not labeled & unlabeled
        truth = small_dataset.instance_labels_vector()
        assert np.array_equal(truth[split.labeled_rows], split.labeled_classes)

    def test_pipeline_deterministic(self, small_dataset):
        spec = FewShotSpec(bag_shot=2, instance_shot=4, seed=11)
        a = sample_split(small_dataset, spec)
        b = sample_split(small_dataset, spec)
        assert a.selected_bags == b.selected_bags
        assert np.array_equal(a.labeled_rows, b.labeled_rows)
        assert np.array_equal(a.unlabeled_rows, b.unlabeled_rows)
        assert a.flags == b.flags

    def test_labeled_inside_core_of_selected_bags(self, small_dataset):
        spec = FewShotSpec(bag_shot=2, instance_shot=3, seed=4)
        split = sample_split(small_dataset, spec)
        selected = set(split.selected_bags)
        allowed = set()
        for bag in small_dataset.bags:
            if bag.id in selected:
                allowed.update(range(bag.start, bag.end))
        assert set(split.labeled_rows.tolist()) <= allowed
        assert set(split.unlabeled_rows.tolist()) <= allowed

    def test_json_round_trip(self, small_dataset, tmp_path):
        spec = FewShotSpec(bag_shot=2, instance_shot=4, seed=6)
        split = sample_split(small_dataset, spec)
        path = save_split(split, tmp_path / "split.json")
        loaded = load_split(path)
        assert loaded.selected_bags == split.selected_bags
        assert np.array_equal(loaded.labeled_rows, split.labeled_rows)
        assert np.array_equal(loaded.labeled_classes, split.labeled_classes)
        assert np.array_equal(loaded.unlabeled_rows, split.unlabeled_rows)
        assert loaded.flags == split.flags
        assert isinstance(loaded, FewShotSplit)

    @pytest.mark.parametrize(
        "labeled, core",
        [([[3, 0], [3, 1]], [3, 4]), ([[3, 0], [3, 1]], [4]), ([[1, 0]], [3, 4, 3]),
         ([[1, 0], [3, 1]], [4, 3])],
        ids=["labeled-and-core", "within-labeled", "within-core", "across"],
    )
    def test_row_listed_twice_rejected(self, tmp_path, labeled, core):
        path = tmp_path / "split.json"
        path.write_text(json.dumps({"version": 1, "selected_bags": [], "labeled": labeled,
                                    "unlabeled_core": core, "seed": 0, "flags": {}}))
        with pytest.raises(SplitError, match=re.escape(f"{path}: row 3 ")):
            load_split(path)

    def test_per_bag_mode(self):
        ds = synth_generate(
            SynthSpec(num_classes=2, dim=8, bags_per_class=3, instances_per_bag=50,
                      positive_fraction=0.4, noise_sigma=0.2, seed=5)
        )
        spec = FewShotSpec(bag_shot=2, instance_shot=2, seed=0, per_bag=True)
        split = sample_split(ds, spec)
        # each selected bag contributes at most L labeled core members
        bag_of = {}
        for bag in ds.bags:
            for r in range(bag.start, bag.end):
                bag_of[r] = bag.id
        per_bag_counts = {}
        for r in split.labeled_rows:
            per_bag_counts[bag_of[int(r)]] = per_bag_counts.get(bag_of[int(r)], 0) + 1
        assert set(per_bag_counts) <= set(split.selected_bags)
        assert all(v <= 2 for v in per_bag_counts.values())

    def test_per_bag_flags_name_bags_in_selection_order(self):
        # A 5% core set leaves one selected bag without core members and two
        # with fewer than L; the flags key them by bag id, as split.json has.
        ds = synth_generate(
            SynthSpec(num_classes=2, dim=8, bags_per_class=4, instances_per_bag=30,
                      positive_fraction=0.1, seed=2)
        )
        spec = FewShotSpec(bag_shot=3, instance_shot=2, coreset_fraction=0.05, seed=0,
                           per_bag=True)
        split = sample_split(ds, spec)
        assert split.selected_bags == ["c0_b0", "c0_b1", "c0_b2", "c1_b0", "c1_b1", "c1_b3"]
        assert list(split.flags.items()) == [
            ("shortfall", {"c0_b0": 1, "c0_b2": 1}), ("empty_bags", ["c1_b1"])
        ]
        bag_of = np.empty(ds.num_instances, dtype=object)
        for bag in ds.bags:
            bag_of[bag.start : bag.end] = bag.id
        assert list(bag_of[split.labeled_rows]) == [
            "c0_b0", "c0_b1", "c0_b1", "c0_b2", "c1_b0", "c1_b0", "c1_b3", "c1_b3"
        ]
