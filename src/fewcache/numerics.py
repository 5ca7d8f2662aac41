"""Dense math kernels used by every other module.

All kernels operate on 2-d numpy arrays in the build-wide precision
(REAL, default float64). `softmax_rows` and `l2_normalize_rows` validate
their argument and are pure; each is a thin wrapper over a `_`-prefixed
trusted core that runs the same IEEE operations and checks nothing
(`_softmax_rows` overwrites its argument, `_l2_normalize_rows` writes
where `out` says). `adam_step` checks shapes only and updates its
parameter and state in place; the training loop calls it directly.

Memory contract: work over many rows goes in row blocks of at most
_BLOCK_ELEMENTS entries (`_row_blocks`), so a kernel's temporaries stay one
block whatever the row count. A kernel that splits its blocks between
threads (`_block_workers`, `_run_blocks`: cache retrieval and the k-means
assignment pass) allocates one block buffer per thread in the calling
thread and holds no more; the block boundaries do not depend on the
thread count or on which thread scores a block, so neither do the
results. np.errstate is local to a thread, so such a kernel enters the
error state it wants in every thread.

Independent jobs (the runs of a sweep) share the CPUs as processes
instead: `_run_jobs` runs them on this process and forked children,
each taking the lowest job no process has taken, and returns their
outcomes in job order.

One level of parallelism: threads never stack on threads or processes.
The threaded block kernels (retrieval and the k-means assignment pass)
run on one thread while the loaded BLAS runs more than one, and while
`_run_jobs` runs jobs in parallel, every process runs BLAS and the block
kernels on one thread each (`_single_threaded`).
`_blas_threads` reads the BLAS's thread count through its own entry
points, found by a ctypes probe of the library numpy loaded; the probe
runs on first use, not at import, once per process.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DegenerateRowError, NonFiniteInputError, ShapeMismatchError

# Build-wide real precision. Gradient checks at tol 1e-4 are unreliable in
# float32, so the default is float64.
REAL = np.float64

# Probabilities are clamped to [PROB_CLAMP, 1] before taking logs; learnable
# label rows can produce near-zero entries early in training.
PROB_CLAMP = 1e-12

# Rows with a norm below _TINY_NORM are rescaled by _TINY_SCALE before
# normalizing, and rows whose squares overflow (norm inf) by 1 / _TINY_SCALE;
# no finite row overflows when squared after either scaling.
_TINY_NORM = 2.0 ** -450
_TINY_SCALE = 2.0 ** 600

# Entries per row block (1 MiB of float64): the one block size of every
# kernel that streams over rows (retrieve, the k-means passes,
# normalization, norm checks). Retrieve and the k-means assignment pass
# hold one block per thread, so two threads hold 2 MiB of distances.
_BLOCK_ELEMENTS = 1 << 17

# Threads that share a kernel's row blocks: the CPUs in the process's
# affinity mask, read once at import (limit them with taskset).
if hasattr(os, "sched_getaffinity"):
    _WORKERS = len(os.sched_getaffinity(0))
else:  # no affinity call on this platform
    _WORKERS = os.cpu_count() or 1


def _row_blocks(n_rows: int, row_elements: int) -> range:
    """Start rows of the blocks that split n_rows rows of row_elements
    entries each into at most _BLOCK_ELEMENTS entries (one row at least);
    block i covers rows [starts[i], starts[i] + starts.step)."""
    return range(0, n_rows, max(1, _BLOCK_ELEMENTS // max(1, row_elements)))


# Thread-count entry points of the BLAS builds numpy ships or links:
# scipy-openblas (numpy 2 wheels) and OpenBLAS, with or without the 64-bit
# integer suffix.
_BLAS_SYMBOLS = tuple(
    (f"{lib}_get_num_threads{suffix}", f"{lib}_set_num_threads{suffix}")
    for lib in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
)

# True inside _single_threaded: the block kernels run on the calling thread.
# _run_jobs sets it only while this process runs one Python thread.
_single = False


@functools.cache
def _blas_api() -> tuple:
    """(get, set) thread-count functions of the BLAS numpy loaded, or ()
    when it exports none of _BLAS_SYMBOLS; probed on the first call of this
    process. numpy's core extension module links the BLAS, so its handle
    resolves the BLAS's symbols."""
    core = sys.modules.get("numpy._core._multiarray_umath") or sys.modules.get(
        "numpy.core._multiarray_umath"
    )
    try:
        lib = ctypes.CDLL(core.__file__)
    except (AttributeError, OSError):  # no such module, or not a shared library
        return ()
    for get_name, set_name in _BLAS_SYMBOLS:
        get = getattr(lib, get_name, None)
        set_ = getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return ()


def _blas_threads() -> int | None:
    """Threads the loaded BLAS runs on, or None when the probe found no way
    to read and set them."""
    api = _blas_api()
    return api[0]() if api else None


@contextmanager
def _single_threaded() -> Iterator[None]:
    """Run BLAS and the block kernels on one thread each inside the block,
    and restore the BLAS's thread count on the way out, also on a raise.
    Needs a BLAS the probe found (_blas_threads() is not None)."""
    global _single
    get, set_ = _blas_api()
    saved = get()
    set_(1)
    _single = True
    try:
        yield
    finally:
        _single = False
        set_(saved)


def _block_workers(starts: range) -> int:
    """Threads that share the blocks of `starts`: min(_WORKERS, blocks),
    one at least; one inside _single_threaded or while BLAS runs threads
    of its own."""
    if _single or (_blas_threads() or 1) > 1:
        return 1
    return max(1, min(_WORKERS, len(starts)))


def _run_blocks(work: Callable[[int, Iterable[int]], None], starts: range, workers: int) -> None:
    """Run work(i, blocks) on `workers` threads (at most one per block), i = 0
    in the calling thread and the others on a pool of their own; `blocks`
    yields block starts.

    Thread i takes block i first, then the lowest block that no thread has
    taken, until none is left: a thread slowed by other load on its CPU
    takes fewer blocks instead of holding the rest up. Returns once every
    thread is done, and raises the error of the first thread (by i) that
    failed.
    """
    workers = max(1, min(workers, len(starts)))
    if workers == 1:
        work(0, starts)
        return
    rest = iter(starts[workers:])
    lock = threading.Lock()

    def blocks(i: int) -> Iterator[int]:
        yield starts[i]
        while True:
            with lock:
                start = next(rest, None)
            if start is None:
                return
            yield start

    with ThreadPoolExecutor(workers - 1) as pool:
        others = [pool.submit(work, i, blocks(i)) for i in range(1, workers)]
        work(0, blocks(0))
        for future in others:
            future.result()


def _processes(n_jobs: int) -> int:
    """Processes that share n_jobs independent jobs: min(_WORKERS, n_jobs)
    where forking them is safe, else 1. Safe means the `fork` start
    method exists, this process runs one Python thread (a fork copies no
    other thread, whatever lock it holds), and the BLAS's threads can be
    set, so that each process runs BLAS on one."""
    import multiprocessing  # here, not at import: only a sweep forks

    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or threading.active_count() != 1
        or _blas_threads() is None
    ):
        return 1
    return max(1, min(_WORKERS, n_jobs))


def _run_jobs(run: Callable[[int], object], n_jobs: int, processes: int) -> list:
    """[run(0), ..., run(n_jobs - 1)], computed on `processes` processes:
    this one and processes - 1 forked children (`_processes` says when
    forking is safe). run(i) returns a picklable outcome or raises.

    Process k takes job k first, then the lowest job that no process has
    taken (one shared counter), as _run_blocks does for threads, with BLAS
    and the block kernels on one thread each. A job that raises stops
    every process from taking more, and the first failing job in job order
    raises here with its own type and traceback: a child sends back only
    the outcomes it has, never an exception, and a job with no outcome (it
    raised in a child, or the child died) runs again in this process.
    Every child is joined before this returns or raises.
    """
    if processes == 1:
        take, stop, single = itertools.count(1).__next__, lambda: None, nullcontext()
    else:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        taken = ctx.Value("q", processes)  # jobs 0 .. processes - 1 are dealt

        def take() -> int:
            with taken.get_lock():
                i = taken.value
                taken.value = i + 1
            return i

        def stop() -> None:
            with taken.get_lock():
                taken.value = n_jobs

        single = _single_threaded()

    def work(first: int) -> tuple[dict, int | None, Exception | None]:
        """Outcomes by job, and the job that raised with its exception."""
        outcomes: dict = {}
        i = first
        while i < n_jobs:
            try:
                outcomes[i] = run(i)
            except Exception as exc:  # raised again below, in job order
                stop()
                return outcomes, i, exc
            i = take()
        return outcomes, None, None

    children, pipes = [], []
    with single:
        try:
            for k in range(1, processes):
                receiver, sender = ctx.Pipe(duplex=False)
                child = ctx.Process(target=_child, args=(work, k, sender))
                child.start()
                sender.close()
                children.append(child)
                pipes.append(receiver)
            outcomes, failed, error = work(0)
            for pipe in pipes:
                try:
                    outcomes.update(pipe.recv())
                except EOFError:  # the child died; its jobs run again below
                    pass
        except BaseException:
            stop()
            for child in children:
                child.terminate()
            raise
        finally:
            for child in children:
                child.join()
            for pipe in pipes:
                pipe.close()
    results = []
    for i in range(n_jobs):
        if i == failed:
            raise error
        results.append(outcomes[i] if i in outcomes else run(i))
    return results


def _child(work: Callable, first: int, sender) -> None:
    """A forked child's share of _run_jobs: send its outcomes and exit."""
    outcomes, _, _ = work(first)
    sender.send(outcomes)


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
        with np.errstate(over="ignore"):  # an overflowing row is rescaled below
            norms = np.sqrt(np.add.reduce(x * x, axis=1))  # np.linalg.norm(x, axis=1)
        odd = None
        if norms.min() < _TINY_NORM or norms.max() == np.inf:
            # The squares of these rows underflow to subnormals or zero, or
            # overflow; scaling by a power of two is exact, so scale them into
            # range before the norm.
            odd = np.flatnonzero((norms < _TINY_NORM) | (norms == np.inf))
            scale = np.where(norms[odd] < _TINY_NORM, _TINY_SCALE, 1.0 / _TINY_SCALE)
            scaled = x[odd] * scale[:, None]
            norms[odd] = np.linalg.norm(scaled, axis=1)
            zero = np.flatnonzero(norms == 0.0)
            if zero.size:
                raise DegenerateRowError(start + int(zero[0]))
        if out is None:
            # Allocated once the squares are freed, so a one-block result
            # reuses their memory instead of faulting in fresh pages.
            out = np.empty_like(a)
        o = out[start : start + starts.step]
        np.divide(x, norms[:, None], out=o)
        if odd is not None:
            o[odd] = scaled / norms[odd, None]
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
) -> None:
    """One bias-corrected Adam update of `param` and `state`, in place.

    Runs the same IEEE operations in the same order as the textbook form.
    A zero gradient with fresh state leaves the parameter bit-identical.
    """
    if param.shape != grad.shape:
        raise ShapeMismatchError(f"param shape {param.shape} != grad shape {grad.shape}")
    if state.m.shape != param.shape:
        raise ShapeMismatchError(f"state shape {state.m.shape} != param shape {param.shape}")
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
