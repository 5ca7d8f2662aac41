import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewcache.dataset import Bag
from fewcache.errors import EmptyBagError, ShapeMismatchError, UndefinedMetricError
from fewcache.fusion_eval import (
    AUCResult,
    EvalReport,
    alpha_grid,
    alpha_table_to_csv,
    bag_pool,
    _midranks,
    binary_auc,
    eval_report_to_csv,
    fuse,
    instance_auc,
    sweep_alpha,
)


def pairwise_auc(scores, positives):
    """O(n^2) oracle: P(s+ > s-) + 0.5 P(s+ = s-)."""
    s = np.asarray(scores, dtype=np.float64)
    pos = s[np.asarray(positives, dtype=bool)]
    neg = s[~np.asarray(positives, dtype=bool)]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


class TestFuse:
    def test_endpoints_exact(self, rng):
        a = rng.dirichlet(np.ones(3), size=5)
        b = rng.dirichlet(np.ones(3), size=5)
        assert np.array_equal(fuse(a, b, 1.0), a)
        assert np.array_equal(fuse(a, b, 0.0), b)

    def test_midpoint(self):
        out = fuse([[1.0, 0.0]], [[0.0, 1.0]], 0.5)
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_simplex_preserved(self, rng):
        a = rng.dirichlet(np.ones(4), size=10)
        b = rng.dirichlet(np.ones(4), size=10)
        for alpha in alpha_grid():
            fused = fuse(a, b, float(alpha))
            np.testing.assert_allclose(fused.sum(axis=1), 1.0, atol=1e-12)
            assert fused.min() >= -1e-15

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            fuse([[0.5, 0.5]], [[0.3, 0.3, 0.4]], 0.5)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            fuse([[0.5, 0.5]], [[0.5, 0.5]], 1.5)


class TestAlphaGrid:
    def test_101_points(self):
        grid = alpha_grid()
        assert grid.size == 101
        assert grid[0] == 0.0 and grid[-1] == 1.0
        np.testing.assert_allclose(np.diff(grid), 0.01, atol=1e-15)


class TestBinaryAUC:
    def test_perfect_separation(self):
        assert binary_auc([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0]) == 1.0

    def test_pairwise_count(self):
        assert binary_auc([0.9, 0.2, 0.8, 0.4], [1, 1, 0, 0]) == 0.5

    def test_all_equal_scores(self):
        assert binary_auc([0.7, 0.7, 0.7, 0.7], [1, 0, 1, 0]) == 0.5

    def test_single_class_undefined(self):
        assert binary_auc([0.1, 0.2], [1, 1]) is None
        assert binary_auc([0.1, 0.2], [0, 0]) is None

    def test_matches_pairwise_oracle_with_ties(self, rng):
        for _ in range(50):
            n = int(rng.integers(5, 60))
            scores = rng.integers(0, 10, size=n) / 10.0
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            fast = binary_auc(scores, labels == 1)
            slow = pairwise_auc(scores, labels == 1)
            assert abs(fast - slow) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random(30)
        labels = rng.integers(0, 2, size=30)
        if labels.min() == labels.max():
            return
        a = binary_auc(scores, labels == 1)
        b = binary_auc(scores**3, labels == 1)  # strictly increasing on [0, 1]
        assert a == pytest.approx(b, abs=1e-12)


def loop_midranks(values):
    """Tie-walking loop form of _midranks: the oracle for the run-length one."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class TestMidranks:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(0, 300), st.sampled_from([2, 5, 50, None]))
    def test_matches_loop(self, seed, n, levels):
        # levels=None draws continuous scores (no ties); small levels are tie-heavy
        rng = np.random.default_rng(seed)
        values = rng.random(n) if levels is None else rng.integers(0, levels, n) / levels
        assert _midranks(values).tobytes() == loop_midranks(values).tobytes()


class TestInstanceAUC:
    def test_multiclass_macro(self, rng):
        labels = np.array([0, 0, 1, 1, 2, 2])
        scores = np.eye(3)[labels] * 0.8 + 0.1
        result = instance_auc(scores, labels)
        assert result.per_class == [1.0, 1.0, 1.0]
        assert result.macro == 1.0

    def test_undefined_class_flagged_not_averaged(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([[0.9, 0.1, 0.0], [0.8, 0.2, 0.0],
                           [0.1, 0.9, 0.0], [0.2, 0.8, 0.0]])
        result = instance_auc(scores, labels, num_classes=3)
        assert result.per_class[2] is None
        assert result.macro == pytest.approx(1.0)

    def test_all_undefined(self):
        result = instance_auc(np.array([[1.0, 0.0]]), np.array([0]), num_classes=2)
        assert result.macro is None

    def test_round_trip_dict(self):
        r = AUCResult(per_class=[0.5, None], macro=0.5)
        assert AUCResult.from_dict(r.to_dict()) == r


class TestBagPool:
    BAGS = [Bag("b0", 0, 0, 3), Bag("b1", 1, 3, 4)]

    def test_max(self):
        probs = np.array([[0.1], [0.9], [0.2], [0.7]])
        out = bag_pool(probs, self.BAGS, "max")
        np.testing.assert_allclose(out, [[0.9], [0.7]])

    def test_mean(self):
        probs = np.array([[0.1], [0.9], [0.2], [0.7]])
        out = bag_pool(probs, self.BAGS, "mean")
        np.testing.assert_allclose(out, [[0.4], [0.7]])

    def test_single_instance_bag_identity(self):
        probs = np.array([[0.1], [0.9], [0.2], [0.7]])
        for op in ("mean", "max", "topk_mean"):
            out = bag_pool(probs, self.BAGS, op)
            assert out[1, 0] == 0.7

    def test_topk_small_bag_equals_max(self):
        # ceil(0.01 * 3) = 1, so topk collapses to max here
        probs = np.array([[0.1], [0.9], [0.2], [0.7]])
        np.testing.assert_allclose(
            bag_pool(probs, self.BAGS, "topk_mean"), bag_pool(probs, self.BAGS, "max")
        )

    def test_topk_uses_top_fraction(self):
        bag = [Bag("big", 0, 0, 200)]
        probs = np.zeros((200, 1))
        probs[:2, 0] = [1.0, 0.8]
        out = bag_pool(probs, bag, "topk_mean")  # k = ceil(0.01 * 200) = 2
        np.testing.assert_allclose(out, [[0.9]])

    def test_empty_bag_rejected(self):
        with pytest.raises(EmptyBagError):
            bag_pool(np.zeros((4, 1)), [Bag("e", 0, 2, 2)], "mean")

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            bag_pool(np.zeros((4, 1)), self.BAGS, "median")


class TestBagAUC:
    def test_perfectly_ordered(self):
        scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.1, 0.9]])
        labels = np.array([0, 0, 1, 1])
        result = instance_auc(scores, labels)
        assert result.macro == 1.0

    def test_matches_pairwise_oracle(self, rng):
        scores = rng.random((200, 2))
        labels = rng.integers(0, 2, size=200)
        result = instance_auc(scores, labels)
        for c in (0, 1):
            assert result.per_class[c] == pytest.approx(
                pairwise_auc(scores[:, c], labels == c), abs=1e-12
            )


class TestSweepAlpha:
    def test_perfect_cache_dominates(self, rng):
        labels = np.array([0] * 10 + [1] * 10)
        cache = np.eye(2)[labels]
        prior = rng.dirichlet(np.ones(2), size=20)
        alpha, table = sweep_alpha(cache, prior, labels)
        assert alpha == 1.0
        assert len(table) == 101

    def test_identical_branches_tie_break_up(self, rng):
        probs = rng.dirichlet(np.ones(2), size=20)
        labels = np.array([0, 1] * 10)
        alpha, table = sweep_alpha(probs, probs.copy(), labels)
        assert alpha == 1.0
        metrics = {m for _, m in table}
        assert len(metrics) == 1

    def test_argmax_matches_independent_recompute(self, rng):
        labels = rng.integers(0, 2, size=40)
        labels[0], labels[1] = 0, 1
        cache = rng.dirichlet(np.ones(2), size=40)
        prior = rng.dirichlet(np.ones(2), size=40)
        alpha, table = sweep_alpha(cache, prior, labels)
        best_alpha, best_metric = 0.0, -np.inf
        for a in alpha_grid():
            fused = float(a) * cache + (1.0 - float(a)) * prior
            m = instance_auc(fused, labels).macro
            if m >= best_metric:
                best_metric, best_alpha = m, float(a)
        assert alpha == best_alpha
        recorded = dict(table)
        assert recorded[best_alpha] == pytest.approx(best_metric, abs=1e-15)

    def test_degenerate_labels_rejected(self, rng):
        probs = rng.dirichlet(np.ones(2), size=5)
        with pytest.raises(UndefinedMetricError):
            sweep_alpha(probs, probs, np.zeros(5, dtype=np.int64))

    def test_permutation_stable(self, rng):
        labels = rng.integers(0, 2, size=30)
        labels[:2] = [0, 1]
        cache = rng.dirichlet(np.ones(2), size=30)
        prior = rng.dirichlet(np.ones(2), size=30)
        alpha1, _ = sweep_alpha(cache, prior, labels)
        perm = rng.permutation(30)
        alpha2, _ = sweep_alpha(cache[perm], prior[perm], labels[perm])
        assert alpha1 == alpha2


class TestCsvExports:
    def test_alpha_table_csv(self, rng, tmp_path):
        labels = rng.integers(0, 2, size=20)
        labels[:2] = [0, 1]
        cache = rng.dirichlet(np.ones(2), size=20)
        prior = rng.dirichlet(np.ones(2), size=20)
        _, table = sweep_alpha(cache, prior, labels)
        path = alpha_table_to_csv(table, tmp_path / "sweep.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "alpha,macro_instance_auc"
        assert len(lines) == 102
        a, m = lines[1].split(",")
        assert (float(a), float(m)) == table[0]

    def test_eval_report_csv(self, tmp_path):
        report = EvalReport(
            seed=0, bag_shot=2, instance_shot=4, alpha=0.25, pooling="mean",
            n_instances=10, n_bags=2,
            instance_auc=AUCResult([0.9, None], 0.9),
            bag_auc=AUCResult([1.0, 1.0], 1.0),
            cache_instance_auc=AUCResult([0.8, 0.8], 0.8),
            prior_instance_auc=AUCResult([0.7, 0.7], 0.7),
            cache_bag_auc=AUCResult([1.0, 1.0], 1.0),
            prior_bag_auc=AUCResult([0.5, 0.5], 0.5),
            labeled_count=8, annotation_ratio=0.1,
            annotation_ratio_percent=10.0,
        )
        path = eval_report_to_csv(report, tmp_path / "report.csv")
        text = path.read_text()
        assert "instance_auc.macro,0.9" in text
        assert "instance_auc.per_class[1]," in text
        assert "alpha,0.25" in text
