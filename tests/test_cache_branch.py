import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewcache import cache_branch
from fewcache.cache_branch import (
    CacheModel,
    attention,
    build_cache,
    cache_loss_and_grads,
    project,
    retrieve,
)
from fewcache.dataset import EmbeddingStore
from fewcache.errors import DegenerateRowError, NonFiniteInputError, ShapeMismatchError
from fewcache.gradchecks import cache_gradient_suite
from fewcache.numerics import l2_normalize_rows
from fewcache.sampler import FewShotSplit

# How far a probability row may deviate from the simplex.
SIMPLEX_TOL = 1e-6


def _split(labeled_rows, labeled_classes, unlabeled_rows):
    return FewShotSplit(
        selected_bags=["b0"],
        labeled_rows=np.asarray(labeled_rows, dtype=np.int64),
        labeled_classes=np.asarray(labeled_classes, dtype=np.int64),
        unlabeled_rows=np.asarray(unlabeled_rows, dtype=np.int64),
        seed=0,
    )


def _store(rows):
    return EmbeddingStore.from_array(np.asarray(rows, dtype=np.float64))


def _two_key_model(beta=1.0):
    return CacheModel(
        keys=np.array([[1.0, 0.0], [0.0, 1.0]]),
        value_logits=np.array([[1.0, 0.0], [0.0, 1.0]]),
        frozen_mask=np.array([True, True]),
        beta=beta,
        classes=["a", "b"],
    )


class TestBuildCache:
    def test_value_rows_after_construction(self):
        store = _store([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        split = _split([0, 1], [0, 1], [2])
        model = build_cache(split, store, ["a", "b"])
        values = model.value_distributions()
        np.testing.assert_allclose(values, [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])

    def test_frozen_mask(self):
        store = _store([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        model = build_cache(_split([0, 1], [0, 1], [2]), store, ["a", "b"])
        assert list(model.frozen_mask) == [True, True, False]

    def test_keys_are_store_rows(self):
        rows = l2_normalize_rows(np.random.default_rng(0).normal(size=(5, 4)))
        model = build_cache(_split([3, 0], [1, 0], [4]), _store(rows), ["a", "b"])
        assert model.n_cache == 3
        assert np.array_equal(model.keys, rows[[3, 0, 4]])

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError):
            build_cache(_split([], [], []), _store([[1.0, 0.0]]), ["a", "b"])


class TestRetrieve:
    def test_reference_attention(self):
        model = _two_key_model(beta=1.0)
        np.testing.assert_allclose(attention(model, [[1.0, 0.0]]), [[0.73106, 0.26894]], atol=1e-5)
        np.testing.assert_allclose(retrieve(model, [[1.0, 0.0]]), [[0.73106, 0.26894]], atol=1e-5)

    def test_equidistant_query(self):
        q = l2_normalize_rows([[1.0, 1.0]])
        probs = retrieve(_two_key_model(beta=3.0), q)
        np.testing.assert_allclose(probs, [[0.5, 0.5]], atol=1e-12)

    def test_identical_value_rows(self, rng):
        model = CacheModel(
            keys=l2_normalize_rows(rng.normal(size=(4, 3))),
            value_logits=np.tile([1.0, 0.0], (4, 1)),
            frozen_mask=np.ones(4, dtype=bool),
            beta=5.0,
            classes=["a", "b"],
        )
        probs = retrieve(model, l2_normalize_rows(rng.normal(size=(6, 3))))
        np.testing.assert_allclose(probs, np.tile([1.0, 0.0], (6, 1)), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            retrieve(_two_key_model(), [[1.0, 0.0, 0.0]])

    def test_rows_on_simplex(self, rng):
        model = CacheModel(
            keys=l2_normalize_rows(rng.normal(size=(7, 5))),
            value_logits=rng.normal(size=(7, 3)),
            frozen_mask=np.zeros(7, dtype=bool),
            beta=10.0,
            classes=["a", "b", "c"],
        )
        probs = retrieve(model, l2_normalize_rows(rng.normal(size=(20, 5))))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert probs.min() >= 0.0

    def test_permutation_invariance(self, rng):
        n = 6
        model = CacheModel(
            keys=l2_normalize_rows(rng.normal(size=(n, 4))),
            value_logits=rng.normal(size=(n, 2)),
            frozen_mask=rng.random(n) < 0.5,
            beta=8.0,
            classes=["a", "b"],
        )
        perm = rng.permutation(n)
        permuted = CacheModel(
            keys=model.keys[perm],
            value_logits=model.value_logits[perm],
            frozen_mask=model.frozen_mask[perm],
            beta=model.beta,
            classes=model.classes,
        )
        q = l2_normalize_rows(rng.normal(size=(9, 4)))
        np.testing.assert_allclose(
            retrieve(model, q), retrieve(permuted, q), atol=1e-12
        )

    def test_beta_to_zero_gives_value_mean(self, rng):
        model = CacheModel(
            keys=l2_normalize_rows(rng.normal(size=(5, 3))),
            value_logits=rng.normal(size=(5, 2)),
            frozen_mask=np.zeros(5, dtype=bool),
            beta=1e-8,
            classes=["a", "b"],
        )
        probs = retrieve(model, l2_normalize_rows(rng.normal(size=(4, 3))))
        expected = model.value_distributions().mean(axis=0)
        np.testing.assert_allclose(probs, np.tile(expected, (4, 1)), atol=1e-9)


class TestCacheLoss:
    def test_self_retrieval_limit(self):
        model = _two_key_model(beta=200.0)
        loss, _, _ = cache_loss_and_grads(model, [[1.0, 0.0]], [0])
        assert loss < 1e-10

    def test_gradients_match_finite_differences(self):
        result = cache_gradient_suite(n_configs=40, seed=0, tol=1e-4)
        assert result.passed, f"max rel error {result.max_rel_error}"

    def test_frozen_rows_zero_gradient(self, rng):
        store = _store(l2_normalize_rows(rng.normal(size=(6, 4))))
        model = build_cache(_split([0, 1], [0, 1], [2, 3, 4]), store, ["a", "b"])
        q = l2_normalize_rows(rng.normal(size=(3, 4)))
        _, _, g_values = cache_loss_and_grads(model, q, [0, 1, 0])
        assert np.all(g_values[model.frozen_mask] == 0.0)
        assert np.any(g_values[~model.frozen_mask] != 0.0)

    def test_label_count_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            cache_loss_and_grads(_two_key_model(), [[1.0, 0.0]], [0, 1])


class TestProject:
    def test_rescales(self):
        model = _two_key_model()
        model.keys = np.array([[2.0, 0.0], [0.0, 1.0]])
        out = project(model)
        np.testing.assert_allclose(out.keys, [[1.0, 0.0], [0.0, 1.0]])

    def test_idempotent(self, rng):
        model = _two_key_model()
        model.keys = l2_normalize_rows(rng.normal(size=(2, 2)))
        once = project(model)
        twice = project(once)
        np.testing.assert_allclose(twice.keys, once.keys, atol=1e-12)

    def test_zero_row_rejected(self):
        model = _two_key_model()
        model.keys = np.array([[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DegenerateRowError):
            project(model)


def _random_model(rng, n_cache, dim, num_classes, beta):
    """Learnable rows hold random logits; frozen rows hold exact one-hot values."""
    frozen = rng.random(n_cache) < 0.3
    value_logits = rng.normal(size=(n_cache, num_classes))
    value_logits[frozen] = np.eye(num_classes)[rng.integers(num_classes, size=frozen.sum())]
    return CacheModel(
        keys=l2_normalize_rows(rng.normal(size=(n_cache, dim))),
        value_logits=value_logits,
        frozen_mask=frozen,
        beta=beta,
        classes=[f"c{i}" for i in range(num_classes)],
    )


class TestBlockedRetrieve:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 40),
        st.integers(1, 12),
        st.integers(1, 6),
        st.integers(2, 4),
        st.floats(0.1, 50.0),
        st.integers(0, 2**31 - 1),
    )
    def test_block_size_invariance(self, m, n_cache, dim, num_classes, beta, seed):
        rng = np.random.default_rng(seed)
        model = _random_model(rng, n_cache, dim, num_classes, beta)
        q = l2_normalize_rows(rng.normal(size=(m, dim)))
        expected = attention(model, q) @ model.value_distributions()
        for rows in (1, 7, m - 1, m, m + 5):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cache_branch, "_BLOCK_ELEMENTS", rows * n_cache)
                probs = retrieve(model, q)
            assert probs.shape == (m, num_classes)
            np.testing.assert_allclose(probs, expected, rtol=0.0, atol=1e-12)
            assert probs.min() >= -SIMPLEX_TOL
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0.0, atol=SIMPLEX_TOL)

    def test_non_finite_query_in_later_block(self):
        model = _two_key_model()
        q = np.tile([1.0, 0.0], (10, 1))
        q[9, 0] = np.nan
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cache_branch, "_BLOCK_ELEMENTS", 2 * model.n_cache)
            with pytest.raises(NonFiniteInputError):
                retrieve(model, q)

    def test_peak_memory_bounded_in_query_count(self):
        rng = np.random.default_rng(0)
        model = _random_model(rng, n_cache=512, dim=32, num_classes=2, beta=10.0)

        def peak(m):
            q = l2_normalize_rows(rng.normal(size=(m, 32)))
            tracemalloc.start()
            try:
                retrieve(model, q)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(4096), peak(32768)
        assert large < 16 * 2**20
        output_growth = (32768 - 4096) * model.num_classes * 8
        assert large - small <= output_growth + 2**20
