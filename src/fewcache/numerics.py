"""Dense math kernels used by every other module.

All kernels operate on 2-d numpy arrays in the build-wide precision
(REAL, default float64). The public kernels validate their arguments and
are pure: they mutate no argument and keep no state, so they are safe to
call concurrently. Each is a thin wrapper over a `_`-prefixed trusted
core that runs the same IEEE operations and checks nothing; `_adam_step`
and `_softmax_rows` update their argument in place, and
`_l2_normalize_rows` writes where `out` says. The training loop validates
once and then calls the cores, so the public kernels and the loop run
the same arithmetic.

Memory contract: work over many rows goes in row blocks of at most
_BLOCK_ELEMENTS entries (`_row_blocks`), so a kernel's temporaries stay one
block whatever the row count.
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

# Entries per row block (2 MiB of float64): the one block size of every
# kernel that streams over rows (retrieve, normalization, norm checks).
_BLOCK_ELEMENTS = 1 << 18


def _row_blocks(n_rows: int, row_elements: int) -> range:
    """Start rows of the blocks that split n_rows rows of row_elements
    entries each into at most _BLOCK_ELEMENTS entries (one row at least);
    block i covers rows [starts[i], starts[i] + starts.step)."""
    return range(0, n_rows, max(1, _BLOCK_ELEMENTS // max(1, row_elements)))


def _all_finite(a: np.ndarray) -> bool:
    """True iff no entry of the 2-d array is NaN or infinite; checked one
    row block at a time, so it holds one block of flags."""
    starts = _row_blocks(a.shape[0], a.shape[1])
    for start in starts:
        if not np.isfinite(a[start : start + starts.step]).all():
            return False
    return True


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d REAL array, raising on bad input."""
    a = np.asarray(m, dtype=REAL)
    if a.ndim != 2:
        raise ShapeMismatchError(f"{name} must be 2-d, got shape {a.shape}")
    if not _all_finite(a):
        raise NonFiniteInputError(f"{name} contains NaN or infinity")
    return a


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax with max-subtraction for numerical stability.

    Each output row is nonnegative and sums to 1; entries of magnitude
    1000 do not overflow because the row maximum is subtracted first.
    """
    return _softmax_rows(as_matrix(m, "softmax input").copy())


def _softmax_rows(a: np.ndarray) -> np.ndarray:
    """Trusted core of softmax_rows: overwrites `a` with its softmax and
    returns it; allocates only two row vectors."""
    a -= np.maximum.reduce(a, axis=1, keepdims=True)
    np.exp(a, out=a)
    a /= np.add.reduce(a, axis=1, keepdims=True)
    return a


def l2_normalize_rows(m) -> np.ndarray:
    """Scale each row to unit Euclidean norm.

    Raises DegenerateRowError naming the first all-zero row.
    """
    return _l2_normalize_rows(as_matrix(m, "normalize input"))


def _l2_normalize_rows(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Trusted core of l2_normalize_rows; still raises DegenerateRowError.

    Writes into `out` (`out=a` normalizes in place) one row block at a
    time, so it holds one block of squares. Every row is reduced on its
    own, so the blocks do not change a bit.
    """
    starts = _row_blocks(a.shape[0], a.shape[1])
    for start in starts:
        x = a[start : start + starts.step]
        norms = np.sqrt(np.add.reduce(x * x, axis=1))  # np.linalg.norm(x, axis=1)
        tiny = np.flatnonzero(norms < _TINY_NORM) if norms.min() < _TINY_NORM else None
        if tiny is not None:
            # The squares of these rows underflow to subnormals or zero; scaling
            # by a power of two is exact, so scale them up before the norm.
            scaled = x[tiny] * _TINY_SCALE
            norms[tiny] = np.linalg.norm(scaled, axis=1)
            zero = np.flatnonzero(norms == 0.0)
            if zero.size:
                raise DegenerateRowError(start + int(zero[0]))
        if out is None:
            # Allocated once the squares are freed, so a one-block result
            # reuses their memory instead of faulting in fresh pages.
            out = np.empty_like(a)
        o = out[start : start + starts.step]
        np.divide(x, norms[:, None], out=o)
        if tiny is not None:
            o[tiny] = scaled / norms[tiny, None]
    return a.copy() if out is None else out


def _mean_nll(picked: np.ndarray) -> float:
    """Mean negative log of target probabilities clamped to [PROB_CLAMP, 1]:
    the loss of both branches, as -np.log(np.clip(picked, ...)).mean()."""
    clamped = np.maximum(picked, PROB_CLAMP)
    np.minimum(clamped, 1.0, out=clamped)
    return float(-(np.add.reduce(np.log(clamped, out=clamped)) / picked.size))


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
    new_param = np.array(param, dtype=REAL)
    new_state = AdamState(state.m.copy(), state.v.copy(), state.step)
    _adam_step(new_param, grad, new_state, lr, beta1, beta2, eps)
    return new_param, new_state


def _adam_step(
    param: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Trusted core of adam_step: updates `param` and `state` in place,
    by the same IEEE operations in the same order as the textbook form."""
    state.step += 1
    t = state.step
    state.m *= beta1
    state.m += (1.0 - beta1) * grad
    state.v *= beta2
    state.v += (1.0 - beta2) * grad * grad
    m_hat = state.m / (1.0 - beta1**t)
    v_hat = state.v / (1.0 - beta2**t)
    param -= lr * m_hat / (np.sqrt(v_hat) + eps)


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
