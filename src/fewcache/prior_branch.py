"""Cosine prior classifier over per-class text features.

Scores a query by temperature-scaled cosine similarity to one unit
vector per class, softmaxed over classes. Text features come from one of
two pluggable sources standing in for a frozen language-side encoder:

* prototype mode (default): the per-class feature rows themselves are
  the learnable parameters, initialized from a prompt-feature file.
* toy-encoder mode: each class has a fixed base token sequence plus D
  learnable tokens; the mean token embedding is pushed through a frozen
  random linear map and normalized. This keeps the learnable-token
  parameterization exercised end to end.

Both modes feed the same downstream math, so prediction, loss, and
fusion are mode-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .codec import from_doc, read_json
from .dataset import read_embeddings
from .errors import ManifestFormatError, ShapeMismatchError
from .numerics import PROB_CLAMP, REAL, as_matrix, l2_normalize_rows, softmax_rows

PROTOTYPE = "prototype"
TOY_ENCODER = "toy-encoder"
PRIOR_MODES = (PROTOTYPE, TOY_ENCODER)

DEFAULT_TAU = 0.01
DEFAULT_NUM_LEARNABLE_TOKENS = 10
DEFAULT_TOKEN_WIDTH = 16
_TOKEN_INIT_SCALE = 0.02


@dataclass(frozen=True)
class PromptConfig:
    """Where class text features come from and how the prior is shaped."""

    path: str
    mode: str = PROTOTYPE
    num_learnable: int = DEFAULT_NUM_LEARNABLE_TOKENS
    token_width: int = DEFAULT_TOKEN_WIDTH
    encoder_seed: int = 0
    tau: float = DEFAULT_TAU

    def __post_init__(self):
        if self.mode not in PRIOR_MODES:
            raise ValueError(f"unknown prior mode {self.mode!r}")


@dataclass
class PromptSidecar:
    tokens_per_class: int


@dataclass
class PriorModel:
    mode: str
    classes: list[str]
    tau: float = DEFAULT_TAU
    # prototype mode: raw learnable rows, one per class (normalized at use).
    class_features: Optional[np.ndarray] = None
    # toy-encoder mode: frozen base tokens (N, S, e), learnable prompt
    # tokens (N, D, e), frozen random linear encoder (e, d).
    base_tokens: Optional[np.ndarray] = None
    prompt_tokens: Optional[np.ndarray] = None
    encoder_matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")
        if self.mode not in PRIOR_MODES:
            raise ValueError(f"unknown prior mode {self.mode!r}")

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def dim(self) -> int:
        if self.mode == PROTOTYPE:
            return self.class_features.shape[1]
        return self.encoder_matrix.shape[1]

    def learnable(self) -> np.ndarray:
        """The parameter array the trainer updates for this mode."""
        return self.class_features if self.mode == PROTOTYPE else self.prompt_tokens

    def with_learnable(self, params: np.ndarray) -> "PriorModel":
        if self.mode == PROTOTYPE:
            return PriorModel(
                mode=self.mode, classes=list(self.classes), tau=self.tau,
                class_features=params,
            )
        return PriorModel(
            mode=self.mode, classes=list(self.classes), tau=self.tau,
            base_tokens=self.base_tokens, prompt_tokens=params,
            encoder_matrix=self.encoder_matrix,
        )

    def copy(self) -> "PriorModel":
        return self.with_learnable(self.learnable().copy())


def prior_from_features(features, classes: list[str], tau: float = DEFAULT_TAU) -> PriorModel:
    """Prototype-mode prior: one learnable unit row per class."""
    f = l2_normalize_rows(as_matrix(features, "class features"))
    if f.shape[0] != len(classes):
        raise ShapeMismatchError(f"{f.shape[0]} feature rows for {len(classes)} classes")
    return PriorModel(mode=PROTOTYPE, classes=list(classes), tau=tau, class_features=f)


def prior_toy_encoder(
    base_tokens,
    classes: list[str],
    dim: int,
    num_learnable: int = DEFAULT_NUM_LEARNABLE_TOKENS,
    tau: float = DEFAULT_TAU,
    seed: int = 0,
) -> PriorModel:
    """Toy-encoder prior: frozen base tokens + D learnable tokens per class.

    The encoder is a fixed random linear map drawn once from `seed`; it
    and the base tokens never receive gradients.
    """
    base = np.asarray(base_tokens, dtype=REAL)
    if base.ndim != 3 or base.shape[0] != len(classes):
        raise ShapeMismatchError(
            f"base tokens must be (num_classes, seq, width), got {base.shape}"
        )
    width = base.shape[2]
    rng = np.random.default_rng(seed)
    encoder = rng.standard_normal((width, dim)) / np.sqrt(width)
    prompt = _TOKEN_INIT_SCALE * rng.standard_normal((len(classes), num_learnable, width))
    return PriorModel(
        mode=TOY_ENCODER,
        classes=list(classes),
        tau=tau,
        base_tokens=base,
        prompt_tokens=prompt,
        encoder_matrix=encoder,
    )


def load_prior(config: PromptConfig, classes: list[str], dim: int) -> PriorModel:
    """Build a prior from a prompt-feature file per the config's mode.

    Prototype mode expects an N x d feature matrix. Toy-encoder mode
    expects an (N*S) x e token matrix plus a JSON sidecar
    `<path>.json` holding {"tokens_per_class": S}.
    """
    store = read_embeddings(config.path)
    if config.mode == PROTOTYPE:
        if store.d != dim:
            raise ShapeMismatchError(
                f"prompt features have dim {store.d}, instances have dim {dim}"
            )
        if store.n != len(classes):
            raise ShapeMismatchError(
                f"prompt file holds {store.n} rows for {len(classes)} classes"
            )
        return prior_from_features(store.rows, classes, tau=config.tau)
    sidecar = read_json(f"{config.path}.json", ManifestFormatError)
    per_class = from_doc(PromptSidecar, sidecar, ManifestFormatError).tokens_per_class
    if store.n != per_class * len(classes):
        raise ShapeMismatchError(
            f"token file holds {store.n} rows, expected {per_class * len(classes)}"
        )
    base = store.rows.reshape(len(classes), per_class, store.d)
    return prior_toy_encoder(
        base, classes, dim,
        num_learnable=config.num_learnable,
        tau=config.tau,
        seed=config.encoder_seed,
    )


def _toy_pooled(model: PriorModel) -> tuple[np.ndarray, np.ndarray, int]:
    """Mean token embedding per class and its image under the encoder."""
    seq_len = model.base_tokens.shape[1] + model.prompt_tokens.shape[1]
    pooled = (model.base_tokens.sum(axis=1) + model.prompt_tokens.sum(axis=1)) / seq_len
    return pooled, pooled @ model.encoder_matrix, seq_len


def encode_prompts(model: PriorModel) -> np.ndarray:
    """Unit-norm class text features for the model's current parameters."""
    if model.mode == PROTOTYPE:
        return l2_normalize_rows(model.class_features)
    _, raw, _ = _toy_pooled(model)
    return l2_normalize_rows(raw)


def prior_predict(model: PriorModel, queries) -> np.ndarray:
    """Class probabilities: softmax over cosine/tau, rows on the simplex."""
    q = as_matrix(queries, "queries")
    if q.shape[1] != model.dim:
        raise ShapeMismatchError(f"query dim {q.shape[1]} != text feature dim {model.dim}")
    text = encode_prompts(model)
    return softmax_rows((q @ text.T) / model.tau)


def _normalize_backward(raw: np.ndarray, unit: np.ndarray, g_unit: np.ndarray) -> np.ndarray:
    """Backprop through row normalization t = w / ||w||."""
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    return (g_unit - (g_unit * unit).sum(axis=1, keepdims=True) * unit) / norms


def _grad_from_text_grad(model: PriorModel, g_text: np.ndarray) -> np.ndarray:
    """Chain an upstream gradient on the unit text features back to the
    learnable prompt parameters of the current mode."""
    if model.mode == PROTOTYPE:
        raw = model.class_features
        unit = l2_normalize_rows(raw)
        return _normalize_backward(raw, unit, g_text)
    _, raw, seq_len = _toy_pooled(model)
    unit = l2_normalize_rows(raw)
    g_raw = _normalize_backward(raw, unit, g_text)
    g_pooled = g_raw @ model.encoder_matrix.T
    d = model.prompt_tokens.shape[1]
    # Every learnable token contributes 1/seq_len to the pooled mean.
    return np.repeat(g_pooled[:, None, :], d, axis=1) / seq_len


def prior_loss_and_grads(
    model: PriorModel,
    labeled_queries,
    labels,
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of prior predictions plus the analytic gradient
    w.r.t. the mode's learnable parameters (same shape as `learnable()`).

    Base tokens and the encoder matrix are frozen by construction and
    receive no gradient. Rows whose target probability sits below the
    log clamp are flat and contribute zero gradient.
    """
    q = as_matrix(labeled_queries, "labeled queries")
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if q.shape[0] != y.size:
        raise ShapeMismatchError(f"{q.shape[0]} queries vs {y.size} labels")
    m = q.shape[0]
    text = encode_prompts(model)
    logits = (q @ text.T) / model.tau
    probs = softmax_rows(logits)
    picked = probs[np.arange(m), y]
    loss = float(-np.log(np.clip(picked, PROB_CLAMP, 1.0)).mean())

    # Combined softmax+CE gradient per row, masked where the loss is flat.
    g_logits = probs.copy()
    g_logits[np.arange(m), y] -= 1.0
    g_logits /= m
    g_logits[picked <= PROB_CLAMP] = 0.0

    g_text = (g_logits.T @ q) / model.tau
    return loss, _grad_from_text_grad(model, g_text)
