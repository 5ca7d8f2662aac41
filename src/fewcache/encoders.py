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
from .errors import DimensionConflictError, ManifestFormatError, UnknownSourceKindError, UsageError
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


def _required(config: dict, key: str):
    if key not in config:
        raise UsageError(f"{config['kind']} source config must name {key!r}")
    return config[key]


def resolve_source(config: dict) -> EmbeddingSource:
    """Build an EmbeddingSource from a config dict.

    kind "synthetic": {"spec": SynthSpec fields, "test_bags_per_class",
    "prompt_sigma", "prompt_seed"}. kind "file": {"train_manifest",
    "test_manifest"?, "prompt_features"}. Dimension conflicts between
    instance and prompt features are rejected; a missing required key
    or a malformed spec raises UsageError.
    """
    kind = config.get("kind")
    if kind == "synthetic":
        spec = from_doc(SynthSpec, _required(config, "spec"))
        train = synth_generate(spec)
        test = None
        test_bags = int(config.get("test_bags_per_class", 0))
        if test_bags > 0:
            test_spec = replace(
                spec, bags_per_class=test_bags, seed=spec.seed + TEST_SEED_OFFSET
            )
            test = synth_generate(test_spec)
        prompts = synthetic_prompt_features(
            spec.num_classes,
            spec.dim,
            sigma=float(config.get("prompt_sigma", DEFAULT_PROMPT_SIGMA)),
            seed=int(config.get("prompt_seed", spec.seed)),
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

    if kind == "file":
        train = load_manifest(_required(config, "train_manifest"))
        test = load_manifest(config["test_manifest"]) if config.get("test_manifest") else None
        if test is not None and test.dim != train.dim:
            raise DimensionConflictError(
                f"train dim {train.dim} != test dim {test.dim}"
            )
        prompt_store = read_embeddings(_required(config, "prompt_features"))
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
            "encoder": config.get("encoder_name", "unknown"),
            "checksum": _sha256_file(config["train_manifest"]),
            "prompt_checksum": _sha256_file(config["prompt_features"]),
        }
        # Dumps produced elsewhere may ship a provenance sidecar next to
        # the manifest (encoder name, preprocessing notes, checksum).
        sidecar = Path(config["train_manifest"]).with_suffix(".provenance.json")
        if sidecar.exists():
            provenance.update(from_doc(dict, read_json(sidecar, ManifestFormatError),
                                       ManifestFormatError))
        return EmbeddingSource(
            kind=kind, dim=train.dim, train_dataset=train, test_dataset=test,
            prompt_features=prompts, provenance=provenance,
        )

    raise UnknownSourceKindError(f"unknown embedding source kind {kind!r}")
