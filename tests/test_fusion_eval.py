import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewcache import numerics
from fewcache.cache_branch import CacheModel, retrieve
from fewcache.codec import from_doc, to_doc
from fewcache.dataset import (
    Bag,
    FembStore,
    SynthSpec,
    load_manifest,
    read_layout,
    save_dataset,
    synth_generate,
)
from fewcache.errors import (
    EmptyBagError,
    NonFiniteInputError,
    ShapeMismatchError,
    UndefinedMetricError,
)
from fewcache.fusion_eval import (
    AUCResult,
    _branch_probs,
    alpha_grid,
    alpha_table_to_csv,
    bag_pool,
    _midranks,
    binary_auc,
    evaluate,
    fuse,
    instance_auc,
    pick_alpha,
    score,
    sweep_alpha,
)
from fewcache.numerics import l2_normalize_rows
from fewcache.prior_branch import prior_from_features, prior_predict


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
        assert from_doc(AUCResult, to_doc(r)) == r


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


class TestPickAlpha:
    def test_matches_sweep_alpha(self, rng):
        labels = rng.integers(0, 2, size=30)
        labels[:2] = [0, 1]
        cache = rng.dirichlet(np.ones(2), size=30)
        prior = rng.dirichlet(np.ones(2), size=30)
        alpha, table, flags = pick_alpha(cache, prior, labels, 21)
        assert (alpha, table) == sweep_alpha(cache, prior, labels, grid=alpha_grid(21))
        assert flags == {}

    def test_single_class_falls_back_to_half(self, rng):
        probs = rng.dirichlet(np.ones(2), size=5)
        alpha, table, flags = pick_alpha(probs, probs, np.zeros(5, dtype=np.int64), 101)
        assert (alpha, table, flags) == (0.5, None, {"alpha_degenerate_tuning": True})


class TestScore:
    def test_instance_and_bag_auc(self, small_dataset, rng):
        probs = rng.dirichlet(np.ones(2), size=small_dataset.num_instances)
        instance, bag = score(probs, small_dataset, "max")
        assert instance == instance_auc(probs, small_dataset.instance_labels_vector(), 2)
        pooled = bag_pool(probs, small_dataset.bags, "max")
        assert bag == instance_auc(pooled, small_dataset.bag_labels(), 2)

    def test_missing_instance_labels_give_none(self, small_dataset, rng):
        ds = copy.deepcopy(small_dataset)
        ds.bags[0].instance_labels = None
        probs = rng.dirichlet(np.ones(2), size=ds.num_instances)
        instance, bag = score(probs, ds, "mean")
        assert instance is None
        assert bag.macro is not None


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


def _eval_inputs(tmp_path, rng, n_cache=40):
    """A saved 8-dim synthetic test set (6 bags of 20 rows) and a cache and
    prior that score it; the cache keys are test rows, so the scores are
    informative."""
    manifest = save_dataset(
        synth_generate(SynthSpec(dim=8, bags_per_class=3, instances_per_bag=20,
                                 noise_sigma=0.4, seed=2)),
        tmp_path / "test",
    )
    ds = load_manifest(manifest)
    rows = rng.choice(ds.num_instances, n_cache, replace=False)
    cache = CacheModel(
        keys=ds.store.rows[rows].copy(),
        value_logits=np.eye(2)[ds.instance_labels_vector()[rows]],
        frozen_mask=np.ones(n_cache, dtype=bool),
        beta=10.0,
        classes=ds.classes,
    )
    prior = prior_from_features(np.eye(2, 8) + 0.5 * rng.normal(size=(2, 8)), ds.classes)
    tune = (ds.store.rows[rows[:10]], ds.instance_labels_vector()[rows[:10]])
    return manifest, cache, prior, tune


class TestEvaluate:
    # 3 rows of 40 attention entries: blocks straddle the 20-row bags.
    BLOCK = 3 * 40

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_streamed_equals_in_memory(self, tmp_path, rng, monkeypatch, workers):
        manifest, cache, prior, tune = _eval_inputs(tmp_path, rng)
        monkeypatch.setattr(numerics, "_BLOCK_ELEMENTS", self.BLOCK)
        monkeypatch.setattr(numerics, "_WORKERS", workers)
        streamed, loaded = read_layout(manifest), load_manifest(manifest)
        for probs, want in zip(_branch_probs(cache, prior, streamed),
                               _branch_probs(cache, prior, loaded)):
            assert probs.tobytes() == want.tobytes()
        got = evaluate(cache, prior, streamed, "topk_mean", tune=tune, grid_points=11,
                       branches=True)
        want = evaluate(cache, prior, loaded, "topk_mean", tune=tune, grid_points=11,
                        branches=True)
        for field_ in ("alpha", "alpha_table", "flags", "fused", "cache", "prior"):
            assert getattr(got, field_) == getattr(want, field_), field_

    def test_branches_are_retrieve_and_blockwise_prior(self, tmp_path, rng, monkeypatch):
        manifest, cache, prior, _ = _eval_inputs(tmp_path, rng)
        monkeypatch.setattr(numerics, "_BLOCK_ELEMENTS", self.BLOCK)
        ds = load_manifest(manifest)
        cache_probs, prior_probs = _branch_probs(cache, prior, read_layout(manifest))
        q = ds.store.rows
        assert cache_probs.tobytes() == retrieve(cache, q).tobytes()
        for start in range(0, ds.num_instances, 3):
            block = slice(start, start + 3)
            assert prior_probs[block].tobytes() == prior_predict(prior, q[block]).tobytes()

    def test_alpha_given_tuned_or_half(self, tmp_path, rng):
        manifest, cache, prior, tune = _eval_inputs(tmp_path, rng)
        ds = read_layout(manifest)
        q, labels = tune
        alpha, table, flags = pick_alpha(retrieve(cache, q), prior_predict(prior, q), labels, 11)
        tuned = evaluate(cache, prior, ds, "mean", tune=tune, grid_points=11)
        assert (tuned.alpha, tuned.alpha_table, tuned.flags) == (alpha, table, flags)
        assert tuned.cache is None and tuned.prior is None
        assert [p.tobytes() for p in tuned.tune_probs] == [
            retrieve(cache, q).tobytes(), prior_predict(prior, q).tobytes()]
        given = evaluate(cache, prior, ds, "mean", alpha=0.25, tune=tune)
        assert (given.alpha, given.alpha_table, given.tune_probs) == (0.25, None, None)
        assert evaluate(cache, prior, ds, "mean").alpha == 0.5

    def test_fused_scores_match_score(self, tmp_path, rng):
        manifest, cache, prior, _ = _eval_inputs(tmp_path, rng)
        ds = load_manifest(manifest)
        cache_probs, prior_probs = _branch_probs(cache, prior, ds)
        result = evaluate(cache, prior, ds, "max", alpha=0.3, branches=True)
        assert result.fused == score(fuse(cache_probs, prior_probs, 0.3), ds, "max")
        assert result.cache == score(cache_probs, ds, "max")
        assert result.prior == score(prior_probs, ds, "max")
        assert result.flags == {}

    @pytest.mark.parametrize("branch", ["cache", "prior"])
    def test_dim_mismatch_raises_before_any_block_is_read(self, tmp_path, rng, monkeypatch,
                                                          branch):
        manifest, cache, prior, tune = _eval_inputs(tmp_path, rng)
        if branch == "cache":
            cache.keys = l2_normalize_rows(rng.normal(size=(cache.n_cache, 16)))
        else:
            prior = prior_from_features(rng.normal(size=(2, 16)), prior.classes)

        def no_reads(*args):
            raise AssertionError("a block was read")

        monkeypatch.setattr(FembStore, "_read", no_reads)
        with pytest.raises(ShapeMismatchError, match="!= (key|text feature) dim 16"):
            evaluate(cache, prior, read_layout(manifest), "mean", tune=tune)

    def test_overflowing_attention_raises(self, tmp_path, rng):
        manifest, cache, prior, _ = _eval_inputs(tmp_path, rng)
        # Finite keys and beta whose product overflows: a NaN softmax row.
        cache.keys = cache.keys * 1e200
        cache.beta = 1e200
        with pytest.raises(NonFiniteInputError, match="attention"):
            evaluate(cache, prior, read_layout(manifest), "mean")

    def test_overflowing_prior_raises(self, tmp_path, rng):
        manifest, cache, prior, _ = _eval_inputs(tmp_path, rng)
        prior.tau = 1e-320  # cosine / tau overflows
        with pytest.raises(NonFiniteInputError, match="prior"):
            evaluate(cache, prior, read_layout(manifest), "mean")
