import math
import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fewcache import numerics
from fewcache.errors import (
    DegenerateRowError,
    NonFiniteInputError,
    ShapeMismatchError,
)
from fewcache.numerics import (
    AdamState,
    _block_workers,
    _run_blocks,
    _run_jobs,
    _single_threaded,
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

    def test_huge_rows_keep_full_precision(self):
        # squared entries overflow to inf; the suite turns a RuntimeWarning into an error
        out = l2_normalize_rows([[1e200, 0.0], [3.0, 4.0], [1e300, -1e300]])
        np.testing.assert_allclose(out, [[1.0, 0.0], [0.6, 0.8], [0.5**0.5, -0.5**0.5]],
                                   atol=1e-15)

    def test_rescaled_rows_match_unscaled_bits(self, rng):
        # Scaling by a power of two is exact, so a tiny or huge row normalizes
        # to the bits of its unscaled form, and the other rows are untouched.
        r = rng.normal(size=(5, 4))
        m = r.copy()
        m[1] *= 2.0**-500
        m[3] *= 2.0**600
        expected = r / np.sqrt(np.add.reduce(r * r, axis=1))[:, None]
        assert l2_normalize_rows(m).tobytes() == expected.tobytes()

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
        before = param.copy()
        state = AdamState.zeros_like(param)
        assert adam_step(param, np.zeros_like(param), state, lr=0.1) is None
        assert param.tobytes() == before.tobytes()
        assert state.step == 1

    def test_first_step_magnitude(self):
        param = np.array([[1.0]])
        state = AdamState.zeros_like(param)
        adam_step(param, np.ones_like(param), state, lr=0.001)
        # bias-corrected m_hat = v_hat = 1, so the step is ~lr
        assert param[0, 0] == pytest.approx(1.0 - 0.001, abs=1e-6)
        assert param[0, 0] < 1.0

    def test_constant_gradient_monotone(self):
        param = np.array([[5.0]])
        state = AdamState.zeros_like(param)
        values = [param[0, 0]]
        for _ in range(10):
            adam_step(param, np.ones_like(param), state, lr=0.01)
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
        for g in grads:
            adam_step(param, g, state, lr, b1, b2, eps)
        np.testing.assert_allclose(param, ref, atol=1e-15)

    def test_shape_mismatch(self):
        param = np.zeros((2, 2))
        with pytest.raises(ShapeMismatchError, match="grad shape"):
            adam_step(param, np.zeros((2, 3)), AdamState.zeros_like(param), lr=0.1)
        with pytest.raises(ShapeMismatchError, match="state shape"):
            adam_step(param, np.zeros((2, 2)), AdamState.zeros_like(np.zeros((1, 2))), lr=0.1)
        assert not param.any()


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
        out, state = param.copy(), AdamState.zeros_like(param)
        for t in range(1, steps + 1):
            g = rng.normal(size=param.shape) * 10.0 ** rng.integers(-9, 3)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            ref = ref - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            adam_step(out, g, state, lr)
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


class TestRunBlocks:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_every_block_runs_once(self, workers):
        starts = range(0, 412, 4)
        taken = {}

        def work(i, blocks):
            taken[i] = []
            for start in blocks:
                taken[i].append(start)

        interval = sys.getswitchinterval()
        # Frequent thread switches: a claim that is not atomic would show
        # as a block taken twice or not at all.
        sys.setswitchinterval(1e-6)
        try:
            _run_blocks(work, starts, workers)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(taken) == list(range(workers))
        assert sorted(s for got in taken.values() for s in got) == list(starts)
        # Thread i takes block i first.
        assert [taken[i][0] for i in range(workers)] == list(starts[:workers])

    def test_more_workers_than_blocks_run_each_block_once(self):
        starts = range(0, 2)
        taken = []
        lock = threading.Lock()

        def work(i, blocks):
            for start in blocks:
                with lock:
                    taken.append((i, start))

        _run_blocks(work, starts, 3)
        assert sorted(start for _, start in taken) == list(starts)
        assert {i for i, _ in taken} <= {0, 1}


needs_blas = pytest.mark.skipif(
    numerics._blas_threads() is None, reason="no BLAS whose threads can be set"
)


class TestBlasThreads:
    @needs_blas
    def test_block_threads_only_while_blas_runs_one(self, monkeypatch):
        monkeypatch.setattr(numerics, "_WORKERS", 2)
        get, set_ = numerics._blas_api()
        saved = get()
        try:
            set_(1)
            assert _block_workers(range(0, 10)) == 2
            set_(2)
            assert _block_workers(range(0, 10)) == 1
        finally:
            set_(saved)

    def test_unknown_blas_keeps_block_threads(self, monkeypatch):
        monkeypatch.setattr(numerics, "_WORKERS", 2)
        monkeypatch.setattr(numerics, "_blas_api", lambda: ())
        assert numerics._blas_threads() is None
        assert _block_workers(range(0, 10)) == 2

    @needs_blas
    def test_single_threaded_pins_and_restores(self, monkeypatch):
        monkeypatch.setattr(numerics, "_WORKERS", 2)
        get, set_ = numerics._blas_api()
        saved = get()
        try:
            set_(3)
            with _single_threaded():
                assert get() == 1
                assert _block_workers(range(0, 10)) == 1
            assert get() == 3
            with pytest.raises(KeyError), _single_threaded():
                raise KeyError("a failing caller")
            assert get() == 3
            set_(1)
            assert _block_workers(range(0, 10)) == 2
        finally:
            set_(saved)


@needs_blas
class TestRunJobs:
    @pytest.mark.parametrize("processes", [1, 2, 3])
    def test_outcomes_in_job_order(self, processes):
        assert _run_jobs(lambda i: (i, [i] * i), 7, processes) == [(i, [i] * i) for i in range(7)]
        assert multiprocessing.active_children() == []

    def test_first_failing_job_in_job_order_raises(self):
        # Job 1 is a child's first job and fails late, so this process
        # has already failed a later job when the child stops.
        def run(i):
            if i == 1:
                time.sleep(0.2)
            if i >= 1:
                raise KeyError(i)
            return i

        for processes in (1, 2, 3):
            with pytest.raises(KeyError) as raised:
                _run_jobs(run, 6, processes)
            assert raised.value.args == (1,)
            assert multiprocessing.active_children() == []

    def test_jobs_of_a_child_that_dies_run_here(self):
        parent = os.getpid()

        def run(i):
            if os.getpid() != parent:
                os._exit(3)
            return i * i

        assert _run_jobs(run, 6, 3) == [i * i for i in range(6)]
        assert multiprocessing.active_children() == []
