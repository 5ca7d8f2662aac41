import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewcache import numerics
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
from fewcache.numerics import PROB_CLAMP, l2_normalize_rows, softmax_rows
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

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_keys_or_beta_rejected(self):
        # The core checks nothing, so the wrapper and `attention` must.
        model = _two_key_model()
        model.keys[1, 0] = np.inf
        with pytest.raises(NonFiniteInputError, match="cache keys"):
            cache_loss_and_grads(model, [[1.0, 0.0]], [0])
        with pytest.raises(NonFiniteInputError):
            attention(model, [[1.0, 0.0]])
        with pytest.raises(NonFiniteInputError):
            attention(_two_key_model(beta=np.nan), [[1.0, 0.0]])


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
                mp.setattr(numerics, "_BLOCK_ELEMENTS", rows * n_cache)
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
            mp.setattr(numerics, "_BLOCK_ELEMENTS", 2 * model.n_cache)
            with pytest.raises(NonFiniteInputError):
                retrieve(model, q)

    @pytest.mark.parametrize("m, rows", [(30, 7), (64, 16), (5, 1), (9, 100)])
    def test_bit_identical_to_attention_per_block(self, m, rows):
        # Blocks of `rows` queries, the last one ragged unless rows divides m.
        rng = np.random.default_rng(m)
        model = _random_model(rng, n_cache=11, dim=5, num_classes=3, beta=20.0)
        q = l2_normalize_rows(rng.normal(size=(m, 5)))
        values = model.value_distributions()
        expected = np.concatenate(
            [attention(model, q[s : s + rows]) @ values for s in range(0, m, rows)]
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "_BLOCK_ELEMENTS", rows * model.n_cache)
            probs = retrieve(model, q)
        assert probs.tobytes() == expected.tobytes()

    def test_queries_not_mutated(self):
        rng = np.random.default_rng(3)
        model = _random_model(rng, n_cache=6, dim=4, num_classes=2, beta=10.0)
        q = l2_normalize_rows(rng.normal(size=(13, 4)))
        before = q.copy()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "_BLOCK_ELEMENTS", 4 * model.n_cache)
            retrieve(model, q)
        assert q.tobytes() == before.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["keys", "beta"])
    def test_non_finite_keys_or_beta(self, bad, where):
        model = _two_key_model()
        if where == "keys":
            model.keys[1, 0] = bad
        else:
            model.beta = bad
        with pytest.raises(NonFiniteInputError, match=f"cache {where}"):
            retrieve(model, np.tile([1.0, 0.0], (5, 1)))

    def test_overflowing_scores_raise(self):
        # Finite keys and beta whose product overflows: a NaN softmax row.
        model = _two_key_model()
        model.keys = model.keys * 1e200
        model.beta = 1e200
        with pytest.raises(NonFiniteInputError, match="attention"):
            retrieve(model, np.tile([1.0, 0.0], (5, 1)))

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


def _textbook_cache_loss_and_grads(model, q, y):
    """cache_loss_and_grads as plain expressions on fresh arrays."""
    m = q.shape[0]
    values = softmax_rows(model.value_logits)
    values[model.frozen_mask] = model.value_logits[model.frozen_mask]
    attn = softmax_rows(model.beta * (q @ model.keys.T))
    probs = attn @ values
    picked = probs[np.arange(m), y]
    loss = float(-np.log(np.clip(picked, PROB_CLAMP, 1.0)).mean())
    g_probs = np.zeros_like(probs)
    live = picked > PROB_CLAMP
    g_probs[np.arange(m)[live], y[live]] = -1.0 / (m * picked[live])
    g_values = attn.T @ g_probs
    g_attention = g_probs @ values.T
    g_scores = attn * (g_attention - (g_attention * attn).sum(axis=1, keepdims=True))
    grad_keys = model.beta * (g_scores.T @ q)
    grad_value_logits = np.zeros_like(model.value_logits)
    free = ~model.frozen_mask
    v_free, g_free = values[free], g_values[free]
    grad_value_logits[free] = v_free * (g_free - (g_free * v_free).sum(axis=1, keepdims=True))
    return loss, grad_keys, grad_value_logits


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 9), st.integers(2, 4),
       st.sampled_from([1.0, 20.0, 200.0]))
def test_loss_and_grads_match_textbook_form(seed, n_cache, d, n_classes, beta):
    # beta 200 with one-hot frozen rows drives target probabilities below
    # the log clamp, so the flat branch is compared too.
    rng = np.random.default_rng(seed)
    frozen = rng.random(n_cache) < 0.5
    value_logits = 3.0 * rng.normal(size=(n_cache, n_classes))
    value_logits[frozen] = np.eye(n_classes)[rng.integers(0, n_classes, int(frozen.sum()))]
    model = CacheModel(keys=l2_normalize_rows(rng.normal(size=(n_cache, d))),
                       value_logits=value_logits, frozen_mask=frozen, beta=beta,
                       classes=[str(c) for c in range(n_classes)])
    q = l2_normalize_rows(rng.normal(size=(int(rng.integers(1, 20)), d)))
    y = rng.integers(0, n_classes, q.shape[0])
    got = cache_loss_and_grads(model, q, y)
    want = _textbook_cache_loss_and_grads(model, q, y)
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2].tobytes() == want[2].tobytes()
