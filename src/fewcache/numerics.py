"""Dense math kernels used by every other module.

All kernels operate on 2-d numpy arrays in the build-wide precision
(REAL, default float64) and are pure functions: nothing here mutates its
arguments or keeps state, so everything is safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateRowError, NonFiniteInputError, ShapeMismatchError

# Build-wide real precision. Gradient checks at tol 1e-4 are unreliable in
# float32, so the default is float64.
REAL = np.float64

# Probabilities are clamped to [PROB_CLAMP, 1] before taking logs; learnable
# label rows can produce near-zero entries early in training.
PROB_CLAMP = 1e-12

# Rows with a norm below _TINY_NORM are rescaled by _TINY_SCALE before
# normalizing; no row of that size overflows when squared after scaling.
_TINY_NORM = 2.0 ** -450
_TINY_SCALE = 2.0 ** 600


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d REAL array, raising on bad input."""
    a = np.asarray(m, dtype=REAL)
    if a.ndim != 2:
        raise ShapeMismatchError(f"{name} must be 2-d, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteInputError(f"{name} contains NaN or infinity")
    return a


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax with max-subtraction for numerical stability.

    Each output row is nonnegative and sums to 1; entries of magnitude
    1000 do not overflow because the row maximum is subtracted first.
    """
    a = as_matrix(m, "softmax input")
    shifted = a - a.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def l2_normalize_rows(m) -> np.ndarray:
    """Scale each row to unit Euclidean norm.

    Raises DegenerateRowError naming the first all-zero row.
    """
    a = as_matrix(m, "normalize input")
    norms = np.linalg.norm(a, axis=1)
    tiny = np.flatnonzero(norms < _TINY_NORM)
    if tiny.size:
        # The squares of these rows underflow to subnormals or zero; scaling
        # by a power of two is exact, so scale them up before the norm.
        a = a.copy()
        a[tiny] *= _TINY_SCALE
        norms[tiny] = np.linalg.norm(a[tiny], axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateRowError(int(zero[0]))
    return a / norms[:, None]


@dataclass
class AdamState:
    """First/second moment accumulators plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros_like(cls, param: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(param, dtype=REAL), np.zeros_like(param, dtype=REAL), 0)


def adam_step(
    param: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns new (param, state).

    Pure: neither `param` nor `state` is mutated. A zero gradient with
    fresh state leaves the parameter bit-identical.
    """
    if param.shape != grad.shape:
        raise ShapeMismatchError(f"param shape {param.shape} != grad shape {grad.shape}")
    if state.m.shape != param.shape:
        raise ShapeMismatchError(f"state shape {state.m.shape} != param shape {param.shape}")
    t = state.step + 1
    m = beta1 * state.m + (1.0 - beta1) * grad
    v = beta2 * state.v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    new_param = param - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new_param, AdamState(m, v, t)


@dataclass
class GradCheckReport:
    """Outcome of comparing an analytic gradient against central differences."""

    max_rel_error: float
    worst_index: int
    passed: bool


def finite_difference_check(
    loss_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    params: Sequence[float] | np.ndarray,
    h: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Verify an analytic gradient against central finite differences.

    `loss_and_grad(x)` must deterministically return (loss, grad) for a
    flat parameter vector x. The relative error per coordinate uses
    denominator max(|analytic|, |numeric|, 1e-8) to avoid blowup at
    true-zero gradients.
    """
    x = np.asarray(params, dtype=REAL).reshape(-1).copy()
    _, analytic = loss_and_grad(x)
    analytic = np.asarray(analytic, dtype=REAL).reshape(-1)
    if analytic.shape != x.shape:
        raise ShapeMismatchError(
            f"analytic grad shape {analytic.shape} != params shape {x.shape}"
        )
    numeric = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        numeric[i] = (loss_and_grad(xp)[0] - loss_and_grad(xm)[0]) / (2.0 * h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    rel = np.abs(analytic - numeric) / denom
    worst = int(np.argmax(rel)) if rel.size else 0
    max_rel = float(rel[worst]) if rel.size else 0.0
    return GradCheckReport(max_rel_error=max_rel, worst_index=worst, passed=bool(max_rel < tol))
