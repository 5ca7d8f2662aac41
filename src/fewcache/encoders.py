"""Pluggable embedding sources.

The pipeline never runs a neural encoder in-process; it consumes either
precomputed FEMB dumps produced elsewhere or a synthetic generator. A
resolved source bundles the train/test datasets and the per-class
prompt features, all checked to share one embedding dimension, plus
provenance (checksums) so identical configs provably yield identical
data.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .codec import from_doc, read_json, to_doc
from .dataset import (
    Dataset,
    SynthSpec,
    class_prototypes,
    load_manifest,
    read_embeddings,
    synth_generate,
)
from .errors import DimensionConflictError, ManifestFormatError, UnknownSourceKindError
from .numerics import l2_normalize_rows

# Offset added to the data seed when drawing the held-out test split of a
# synthetic source, so train and test never share a noise stream.
TEST_SEED_OFFSET = 104729

DEFAULT_PROMPT_SIGMA = 0.35


@dataclass
class EmbeddingSource:
    kind: str
    dim: int
    train_dataset: Dataset
    test_dataset: Optional[Dataset]
    prompt_features: np.ndarray  # (num_classes, dim), unit rows
    provenance: dict

    @property
    def classes(self) -> list[str]:
        return self.train_dataset.classes


def _sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def synthetic_prompt_features(
    num_classes: int,
    dim: int,
    sigma: float = DEFAULT_PROMPT_SIGMA,
    seed: int = 0,
) -> np.ndarray:
    """Informative but imperfect prompt features: class prototypes plus
    Gaussian noise, unit-normalized."""
    rng = np.random.default_rng(seed)
    protos = class_prototypes(num_classes, dim)
    if sigma > 0.0:
        protos = protos + sigma * rng.standard_normal(protos.shape)
    return l2_normalize_rows(protos)


@dataclass
class SyntheticSource:
    """A `source` block of kind "synthetic": generated train and test sets."""

    kind: str
    spec: SynthSpec
    test_bags_per_class: int = 0
    prompt_sigma: float = DEFAULT_PROMPT_SIGMA
    prompt_seed: Optional[int] = None  # defaults to spec.seed


@dataclass
class FileSource:
    """A `source` block of kind "file": FEMB dumps produced elsewhere."""

    kind: str
    train_manifest: str
    prompt_features: str
    test_manifest: Optional[str] = None
    encoder_name: str = "unknown"


_SOURCE_KINDS = {"synthetic": SyntheticSource, "file": FileSource}


def resolve_source(config: dict) -> EmbeddingSource:
    """Build an EmbeddingSource from the `source` block of a config.

    The block decodes strictly as a SyntheticSource or a FileSource,
    chosen by its "kind", so an unknown or missing key, or a value of the
    wrong type, raises UsageError. Dimension conflicts between instance
    and prompt features are rejected.
    """
    kind = config.get("kind")
    if not isinstance(kind, str) or kind not in _SOURCE_KINDS:
        raise UnknownSourceKindError(f"unknown embedding source kind {kind!r}")
    src = from_doc(_SOURCE_KINDS[kind], config)
    if isinstance(src, SyntheticSource):
        spec = src.spec
        train = synth_generate(spec)
        test = None
        if src.test_bags_per_class > 0:
            test_spec = replace(
                spec, bags_per_class=src.test_bags_per_class, seed=spec.seed + TEST_SEED_OFFSET
            )
            test = synth_generate(test_spec)
        prompts = synthetic_prompt_features(
            spec.num_classes,
            spec.dim,
            sigma=src.prompt_sigma,
            seed=spec.seed if src.prompt_seed is None else src.prompt_seed,
        )
        provenance = {
            "encoder": "synthetic-prototypes",
            "spec": to_doc(spec),
            "checksum": hashlib.sha256(
                json.dumps(config, sort_keys=True).encode()
                + train.store.rows.tobytes()
                + prompts.tobytes()
            ).hexdigest(),
        }
        return EmbeddingSource(
            kind=kind, dim=spec.dim, train_dataset=train, test_dataset=test,
            prompt_features=prompts, provenance=provenance,
        )

    train = load_manifest(src.train_manifest)
    test = load_manifest(src.test_manifest) if src.test_manifest else None
    if test is not None and test.dim != train.dim:
        raise DimensionConflictError(
            f"train dim {train.dim} != test dim {test.dim}"
        )
    prompt_store = read_embeddings(src.prompt_features)
    if prompt_store.d != train.dim:
        raise DimensionConflictError(
            f"instance dim {train.dim} but prompt-feature dim {prompt_store.d}"
        )
    if prompt_store.n != train.num_classes:
        raise DimensionConflictError(
            f"prompt file holds {prompt_store.n} rows for "
            f"{train.num_classes} classes"
        )
    prompts = l2_normalize_rows(prompt_store.rows)
    provenance = {
        "encoder": src.encoder_name,
        "checksum": _sha256_file(src.train_manifest),
        "prompt_checksum": _sha256_file(src.prompt_features),
    }
    # Dumps produced elsewhere may ship a provenance sidecar next to
    # the manifest (encoder name, preprocessing notes, checksum).
    sidecar = Path(src.train_manifest).with_suffix(".provenance.json")
    if sidecar.exists():
        provenance.update(from_doc(dict, read_json(sidecar, ManifestFormatError),
                                   ManifestFormatError))
    return EmbeddingSource(
        kind=kind, dim=train.dim, train_dataset=train, test_dataset=test,
        prompt_features=prompts, provenance=provenance,
    )
