import contextlib
import copy
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fewcache.sampler
from fewcache import numerics
from fewcache.dataset import Bag, SynthSpec, synth_generate
from fewcache.errors import InsufficientBagsError, SplitError
from fewcache.sampler import (
    _draw,
    _update_centroids,
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

    @pytest.mark.parametrize(
        "n, d, k",
        [(1200, 32, 120), (400, 1, 20), (300, 64, 300), (3000, 64, 300), (1600, 32, 160),
         # 5 Lloyd blocks with a ragged last one and k near the block width,
         # and a cap-sized k over 39 blocks.
         (2500, 48, 250), (5000, 64, 1000)],
    )
    def test_bit_identical_at_scale(self, n, d, k):
        rng = np.random.default_rng(n + d)
        centers = rng.normal(size=(k // 2 + 1, d)) * 3.0
        x = centers[rng.integers(0, centers.shape[0], size=n)] + rng.normal(size=(n, d))
        _assert_matches_reference(x, k, seed=7)


def _coreset_sample_points():
    """The rows of the benchmark's `coreset_sample` manifest: 3000 x 64."""
    return synth_generate(SynthSpec(num_classes=2, dim=64, bags_per_class=10,
                                    instances_per_bag=150, seed=0)).store.rows


class TestKMeansWork:
    @pytest.mark.parametrize("d2", [
        np.array([0.0, 3.0, 0.0, 0.0, 1.5, 0.0, 2.0, 0.0]),
        np.array([0.0, 0.0, 0.0, 7.0, 0.0]),
        np.array([2.5, 2.5, 0.0, 2.5, 2.5, 2.5]),
        np.random.default_rng(0).random(500) * (np.arange(500) % 3 == 0),
    ], ids=["zeros", "one-nonzero", "repeated", "random-with-zeros"])
    def test_draw_is_rng_choice(self, d2):
        cdf = np.empty_like(d2)
        for seed in range(200):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            assert _draw(d2, d2.sum(), ours, cdf) == theirs.choice(d2.size, p=d2 / d2.sum())
            assert ours.random() == theirs.random()  # the same generator state after

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_distances_refused(self):
        # Squared distances of 4e320 overflow, as rng.choice's NaN check refuses.
        x = np.array([[1e160, 1e160], [-1e160, -1e160], [1e160, -1e160], [-1e160, 1e160]])
        with pytest.raises(ValueError):
            kmeans(x, 3, seed=0)

    def test_update_of_some_clusters_leaves_the_rest(self, rng):
        x = rng.normal(size=(200, 5))
        assignment = rng.integers(0, 12, size=200)
        assignment[assignment == 4] = 5  # cluster 4 empty
        counts = np.bincount(assignment, minlength=12)
        full = rng.normal(size=(12, 5))
        before = full.copy()
        _update_centroids(x, assignment, counts, full, np.ones(12, dtype=bool))
        stale = np.zeros(12, dtype=bool)
        stale[[0, 4, 7, 11]] = True
        some = before.copy()
        _update_centroids(x, assignment, counts, some, stale)
        assert some[stale].tobytes() == np.where(counts[stale, None] > 0, full[stale],
                                                 before[stale]).tobytes()
        assert some[~stale].tobytes() == before[~stale].tobytes()
        assert full[4].tobytes() == before[4].tobytes()  # empty: left as it was

    def test_lloyd_recomputes_only_changed_clusters(self, monkeypatch):
        # Count the work, not the time: after the first update, each one
        # recomputes the clusters that gained or lost rows, and the seeding
        # draws without rng.choice.
        x, k = _coreset_sample_points(), 300
        recomputed, choices = [], []
        update, seeding = fewcache.sampler._update_centroids, fewcache.sampler._kmeanspp_init

        def counting_update(x, assignment, counts, centroids, stale):
            recomputed.append(int((stale & (counts > 0)).sum()))
            update(x, assignment, counts, centroids, stale)

        class CountingRng:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def choice(self, *args, **kwargs):
                choices.append(1)
                return self.rng.choice(*args, **kwargs)

        monkeypatch.setattr(fewcache.sampler, "_update_centroids", counting_update)
        monkeypatch.setattr(fewcache.sampler, "_kmeanspp_init",
                            lambda x, xx, k, rng: seeding(x, xx, k, CountingRng(rng)))
        result = kmeans(x, k, seed=0)
        assert choices == []
        assert len(recomputed) == result.n_iter - 1 >= 2
        assert recomputed[0] == k
        assert all(count < k for count in recomputed[1:])


def _kmeans_bytes(x, k, seed=0):
    result = kmeans(x, k, seed=seed)
    spec = FewShotSpec(bag_shot=1, instance_shot=1, coreset_fraction=1.0, coreset_cap=k,
                       seed=seed)
    return (result.centroids.tobytes(), result.assignment.tobytes(),
            np.array(result.inertia_history).tobytes(), result.n_iter,
            select_core_set(x, spec).tobytes())


class TestKMeansThreads:
    """The Lloyd pass's row blocks depend on (n, k) only, so the thread
    count that shares them moves no byte."""

    def test_same_bytes_on_any_thread_count(self, monkeypatch):
        x, k = _coreset_sample_points(), 300
        starts = numerics._row_blocks(x.shape[0], k)
        assert len(starts) == 7 and x.shape[0] % starts.step  # a ragged last block
        outcomes = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(numerics, "_WORKERS", workers)
            outcomes.append(_kmeans_bytes(x, k))
        if numerics._blas_threads() is not None:
            with numerics._single_threaded():
                outcomes.append(_kmeans_bytes(x, k))
        assert all(outcome == outcomes[0] for outcome in outcomes)

    @pytest.mark.parametrize("ignore", [False, True], ids=["default", "over-ignored"])
    def test_overflowing_expansion_same_outcome_on_one_and_two_threads(
            self, monkeypatch, ignore):
        # Rows near 1e154 e_1: their squared norms and exact distances are
        # finite, and at k = 2 the seeding runs no expansion, but the Lloyd
        # pass's -2 x.c overflows. A thread runs under the caller's error
        # state, so the pass raises (the suite turns the RuntimeWarning into
        # an error) or ignores it on every thread alike.
        monkeypatch.setattr(numerics, "_BLOCK_ELEMENTS", 64)  # 7 blocks
        x = np.array([1e154, 0.0]) + np.random.default_rng(0).normal(size=(200, 2)) * 1e140
        assert np.isfinite((x * x).sum(axis=1)).all()
        outcomes = []
        for workers in (1, 2):
            monkeypatch.setattr(numerics, "_WORKERS", workers)
            with np.errstate(over="ignore") if ignore else contextlib.nullcontext():
                try:
                    outcomes.append(_kmeans_bytes(x, 2))
                except Exception as exc:
                    outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] is RuntimeWarning) is not ignore


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

    @settings(max_examples=200, deadline=None)
    @given(
        bags=st.lists(st.tuples(st.sampled_from("abcd"), st.integers(-3, 25),
                                st.integers(0, 8)), max_size=6),
        selected=st.sets(st.sampled_from("abcd")),
        labeled=st.lists(st.integers(-5, 35), max_size=8),
        unlabeled=st.lists(st.integers(-5, 35), max_size=8),
    )
    def test_check_rows_as_the_set_version(self, small_dataset, bags, selected, labeled,
                                           unlabeled):
        # Against sets of every selected row: overlapping and repeated bag
        # ranges, rows repeated within a list, rows before, between and past
        # the bags.
        labeled_set, unlabeled_set = set(labeled), set(unlabeled)
        allowed = set()
        for bag_id, start, n in bags:
            if bag_id in selected:
                allowed.update(range(start, start + n))
        if labeled_set & unlabeled_set:
            want = "labeled and unlabeled core rows overlap"
        elif (labeled_set | unlabeled_set) - allowed:
            want = f"{len((labeled_set | unlabeled_set) - allowed)} split rows fall outside"
        else:
            want = None
        dataset = copy.copy(small_dataset)
        dataset.bags = [Bag(bag_id, 0, start, start + n, None) for bag_id, start, n in bags]
        split = FewShotSplit(sorted(selected), np.array(labeled, dtype=np.int64),
                             np.zeros(len(labeled), dtype=np.int64),
                             np.array(unlabeled, dtype=np.int64), seed=0)
        with pytest.raises(AssertionError, match=want) if want else contextlib.nullcontext():
            split.check(dataset)

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
