import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fewcache.errors import (
    DegenerateRowError,
    NonFiniteInputError,
    ShapeMismatchError,
)
from fewcache.numerics import (
    AdamState,
    adam_step,
    finite_difference_check,
    l2_normalize_rows,
    softmax_rows,
)

finite_matrices = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


class TestSoftmaxRows:
    def test_symmetric_input(self):
        np.testing.assert_allclose(softmax_rows([[0.0, 0.0]]), [[0.5, 0.5]])

    def test_reference_value(self):
        # e^1 / (e^1 + e^0) evaluated independently
        expected = math.e / (math.e + 1.0)
        out = softmax_rows([[1.0, 0.0]])
        np.testing.assert_allclose(out, [[expected, 1.0 - expected]], atol=1e-5)

    def test_large_magnitude_no_overflow(self):
        out = softmax_rows([[1000.0, 0.0]])
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[0, 0], 1.0)
        assert out[0, 1] >= 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInputError):
            softmax_rows([[np.nan, 0.0]])
        with pytest.raises(NonFiniteInputError):
            softmax_rows([[np.inf, 0.0]])

    @settings(max_examples=60, deadline=None)
    @given(finite_matrices)
    def test_rows_sum_to_one(self, m):
        sums = softmax_rows(m).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(finite_matrices, st.floats(-100, 100, allow_nan=False), st.integers(0, 2**31 - 1))
    def test_shift_invariance(self, m, c, seed):
        # constant shift, and an arbitrary per-row constant
        np.testing.assert_allclose(softmax_rows(m + c), softmax_rows(m), atol=1e-12)
        per_row = np.random.default_rng(seed).uniform(-100, 100, size=(m.shape[0], 1))
        np.testing.assert_allclose(softmax_rows(m + per_row), softmax_rows(m), atol=1e-12)


class TestL2NormalizeRows:
    def test_hand_computed_norm(self):
        np.testing.assert_allclose(l2_normalize_rows([[3.0, 4.0]]), [[0.6, 0.8]])

    def test_already_unit(self):
        np.testing.assert_allclose(l2_normalize_rows([[1.0, 0.0]]), [[1.0, 0.0]])

    def test_zero_row_names_index(self):
        with pytest.raises(DegenerateRowError) as exc:
            l2_normalize_rows([[1.0, 0.0], [0.0, 0.0]])
        assert exc.value.row == 1

    def test_tiny_rows_keep_full_precision(self):
        # squared entries underflow to subnormals (first row) or to zero
        out = l2_normalize_rows([[8.18628025e-162, 0.0], [1e-170, 1e-170], [5e-324, 0.0]])
        np.testing.assert_allclose(out, [[1.0, 0.0], [0.5**0.5, 0.5**0.5], [1.0, 0.0]], atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(finite_matrices)
    def test_idempotent(self, m):
        # skip rows that would be degenerate
        m = m + np.where(np.linalg.norm(m, axis=1, keepdims=True) == 0.0, 1.0, 0.0)
        once = l2_normalize_rows(m)
        twice = l2_normalize_rows(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_unit_norms(self):
        out = l2_normalize_rows(np.random.default_rng(0).normal(size=(50, 7)))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)


class TestAdamStep:
    def test_zero_gradient_identity(self):
        param = np.array([[1.0, -2.0], [0.5, 3.0]])
        state = AdamState.zeros_like(param)
        new_param, new_state = adam_step(param, np.zeros_like(param), state, lr=0.1)
        assert np.array_equal(new_param, param)
        assert new_state.step == 1

    def test_first_step_magnitude(self):
        param = np.array([[1.0]])
        state = AdamState.zeros_like(param)
        new_param, _ = adam_step(param, np.ones_like(param), state, lr=0.001)
        # bias-corrected m_hat = v_hat = 1, so the step is ~lr
        assert new_param[0, 0] == pytest.approx(1.0 - 0.001, abs=1e-6)
        assert new_param[0, 0] < 1.0

    def test_constant_gradient_monotone(self):
        param = np.array([[5.0]])
        state = AdamState.zeros_like(param)
        values = [param[0, 0]]
        for _ in range(10):
            param, state = adam_step(param, np.ones_like(param), state, lr=0.01)
            values.append(param[0, 0])
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_matches_reference_implementation(self):
        # straightforward textbook Adam, kept separate from the kernel
        rng = np.random.default_rng(42)
        param = rng.normal(size=(3, 4))
        grads = [rng.normal(size=(3, 4)) for _ in range(5)]
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8

        ref = param.copy()
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            ref = ref - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)

        state = AdamState.zeros_like(param)
        out = param
        for g in grads:
            out, state = adam_step(out, g, state, lr, b1, b2, eps)
        np.testing.assert_allclose(out, ref, atol=1e-15)

    def test_shape_mismatch(self):
        param = np.zeros((2, 2))
        with pytest.raises(ShapeMismatchError):
            adam_step(param, np.zeros((2, 3)), AdamState.zeros_like(param), lr=0.1)


class TestTextbookForms:
    """The kernels are bit-identical to the plain numpy expressions they
    replace in place; the training loop relies on that for its bytes."""

    @settings(max_examples=60, deadline=None)
    @given(finite_matrices)
    def test_softmax_rows(self, m):
        e = np.exp(m - m.max(axis=1, keepdims=True))
        assert softmax_rows(m).tobytes() == (e / e.sum(axis=1, keepdims=True)).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(finite_matrices)
    def test_l2_normalize_rows(self, m):
        m = m + np.where(np.linalg.norm(m, axis=1, keepdims=True) < 1e-100, 1.0, 0.0)
        expected = m / np.linalg.norm(m, axis=1)[:, None]
        assert l2_normalize_rows(m).tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(finite_matrices, st.integers(1, 5), st.sampled_from([1e-3, 0.1, 3.0]))
    def test_adam_step(self, param, steps, lr):
        rng = np.random.default_rng(steps)
        b1, b2, eps = 0.9, 0.999, 1e-8
        ref, m, v = param, np.zeros_like(param), np.zeros_like(param)
        out, state = param, AdamState.zeros_like(param)
        for t in range(1, steps + 1):
            g = rng.normal(size=param.shape) * 10.0 ** rng.integers(-9, 3)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            ref = ref - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            out, state = adam_step(out, g, state, lr)
        assert out.tobytes() == ref.tobytes()
        assert (state.m.tobytes(), state.v.tobytes()) == (m.tobytes(), v.tobytes())


class TestFiniteDifferenceCheck:
    def test_quadratic_passes(self):
        def loss_and_grad(x):
            return 0.5 * float(x @ x), x

        report = finite_difference_check(loss_and_grad, np.array([1.0, -2.0, 0.3]))
        assert report.passed
        assert report.max_rel_error < 1e-6

    def test_scaled_gradient_fails(self):
        def loss_and_grad(x):
            return 0.5 * float(x @ x), 2.0 * x

        report = finite_difference_check(loss_and_grad, np.array([1.0, -2.0, 0.3]))
        assert not report.passed
        assert report.max_rel_error > 0.1
