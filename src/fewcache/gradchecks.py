"""Finite-difference verification suites for every analytic gradient.

Each suite draws small random configurations (few cache rows, low dim,
2-3 classes) and checks the packed analytic gradient against central
differences. Temperatures and scales are kept moderate so no probability
falls into the flat clamped region, where finite differences see zero
slope by design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cache_branch import CacheModel, cache_loss_and_grads
from .numerics import finite_difference_check, l2_normalize_rows
from .prior_branch import (
    PROTOTYPE,
    TOY_ENCODER,
    PriorModel,
    prior_loss_and_grads,
    prior_toy_encoder,
)


@dataclass
class SuiteResult:
    name: str
    configs: int
    max_rel_error: float
    passed: bool


def _random_cache_config(rng: np.random.Generator):
    n_cache = int(rng.integers(2, 9))
    # keep at least one unfrozen row: a cache whose rows are all identical
    # frozen one-hots has a flat loss, and a flat loss checks nothing
    n_labeled = int(rng.integers(1, n_cache))
    d = int(rng.integers(2, 7))
    num_classes = int(rng.integers(2, 4))
    m = int(rng.integers(1, 6))
    keys = l2_normalize_rows(rng.standard_normal((n_cache, d)))
    value_logits = 0.5 * rng.standard_normal((n_cache, num_classes))
    frozen = np.zeros(n_cache, dtype=bool)
    frozen[:n_labeled] = True
    hot = rng.integers(0, num_classes, size=n_labeled)
    one_hot = np.zeros((n_labeled, num_classes))
    one_hot[np.arange(n_labeled), hot] = 1.0
    value_logits[:n_labeled] = one_hot
    beta = float(rng.uniform(0.5, 3.0))
    model = CacheModel(
        keys=keys,
        value_logits=value_logits,
        frozen_mask=frozen,
        beta=beta,
        classes=[f"c{i}" for i in range(num_classes)],
    )
    queries = l2_normalize_rows(rng.standard_normal((m, d)))
    labels = rng.integers(0, num_classes, size=m)
    return model, queries, labels


def _run_suite(
    name: str, make_config, make_problem, n_configs: int, seed: int, tol: float
) -> SuiteResult:
    """Check n_configs configs drawn in turn by make_config(rng), each
    turned by make_problem into a (loss_and_grad, params) pair; stop at
    the first that fails."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_configs):
        report = finite_difference_check(*make_problem(*make_config(rng)), tol=tol)
        worst = max(worst, report.max_rel_error)
        if not report.passed:
            return SuiteResult(name, n_configs, worst, False)
    return SuiteResult(name, n_configs, worst, True)


def _cache_problem(model: CacheModel, queries, labels):
    """The keys and the unfrozen value-logit rows, packed into one vector."""
    free = ~model.frozen_mask
    nk = model.keys.size

    def loss_and_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
        m2 = CacheModel(
            keys=x[:nk].reshape(model.keys.shape),
            value_logits=model.value_logits.copy(),
            frozen_mask=model.frozen_mask,
            beta=model.beta,
            classes=model.classes,
        )
        m2.value_logits[free] = x[nk:].reshape(-1, model.num_classes)
        loss, g_keys, g_values = cache_loss_and_grads(m2, queries, labels)
        return loss, np.concatenate([g_keys.ravel(), g_values[free].ravel()])

    return loss_and_grad, np.concatenate([model.keys.ravel(), model.value_logits[free].ravel()])


def _prior_problem(model: PriorModel, queries, labels):
    """The prior's learnable parameters, flattened."""
    shape = model.learnable().shape

    def loss_and_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
        loss, grad = prior_loss_and_grads(model.with_learnable(x.reshape(shape)), queries, labels)
        return loss, grad.ravel()

    return loss_and_grad, model.learnable().ravel()


def cache_gradient_suite(
    n_configs: int = 100, seed: int = 0, tol: float = 1e-4
) -> SuiteResult:
    """Check grad_keys and the unfrozen value-logit rows jointly."""
    return _run_suite("cache_loss", _random_cache_config, _cache_problem, n_configs, seed, tol)


def _random_prototype(rng: np.random.Generator):
    num_classes = int(rng.integers(2, 4))
    d = int(rng.integers(2, 7))
    m = int(rng.integers(1, 6))
    model = PriorModel(
        mode=PROTOTYPE,
        classes=[f"c{i}" for i in range(num_classes)],
        tau=float(rng.uniform(0.3, 3.0)),
        class_features=rng.standard_normal((num_classes, d)) + 0.1,
    )
    queries = l2_normalize_rows(rng.standard_normal((m, d)))
    labels = rng.integers(0, num_classes, size=m)
    return model, queries, labels


def _random_toy(rng: np.random.Generator):
    num_classes = int(rng.integers(2, 4))
    d = int(rng.integers(2, 7))
    e = int(rng.integers(2, 5))
    s = int(rng.integers(1, 4))
    n_learn = int(rng.integers(1, 4))
    m = int(rng.integers(1, 6))
    model = prior_toy_encoder(
        rng.standard_normal((num_classes, s, e)),
        [f"c{i}" for i in range(num_classes)],
        dim=d,
        num_learnable=n_learn,
        tau=float(rng.uniform(0.3, 3.0)),
        seed=int(rng.integers(0, 2**31)),
    )
    # Nudge prompt tokens off their tiny init so the pooled vector cannot
    # sit near zero norm.
    model.prompt_tokens += 0.3 * rng.standard_normal(model.prompt_tokens.shape)
    queries = l2_normalize_rows(rng.standard_normal((m, d)))
    labels = rng.integers(0, num_classes, size=m)
    return model, queries, labels


def prior_prototype_suite(n_configs: int = 100, seed: int = 1, tol: float = 1e-4) -> SuiteResult:
    return _run_suite(
        "prior_loss_prototype", _random_prototype, _prior_problem, n_configs, seed, tol
    )


def prior_toy_suite(n_configs: int = 100, seed: int = 2, tol: float = 1e-4) -> SuiteResult:
    return _run_suite("prior_loss_toy_tokens", _random_toy, _prior_problem, n_configs, seed, tol)


def run_all_suites(n_configs: int = 100, seed: int = 0, tol: float = 1e-4) -> list[SuiteResult]:
    return [
        cache_gradient_suite(n_configs, seed, tol),
        prior_prototype_suite(n_configs, seed + 1, tol),
        prior_toy_suite(n_configs, seed + 2, tol),
    ]
