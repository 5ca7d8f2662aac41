"""Pluggable embedding sources.

The pipeline never runs a neural encoder in-process; it consumes either
precomputed FEMB dumps produced elsewhere or a synthetic generator. A
resolved source bundles the train/test datasets and the per-class
prompt features, all checked to share one embedding dimension, plus
provenance (checksums) so identical configs provably yield identical
data. Prompt features are unit rows, from one reader for sweep and train.

Memory contract: a synthetic source generates each store in place
(dataset.synth_generate), so resolving it holds its train and test
stores and prompts, plus one bag's temporaries, plus one row block. Its
checksum feeds the config JSON, the train rows and the prompts to one
sha256 object, which hashes the arrays in place, without a byte copy.
A file source holds no store: its train and test sets are layouts
(dataset.read_layout) whose rows each run reads as it needs them. Every
row is read once while resolving (dataset.check_rows), one block at a
time, so a bad row fails the sweep before any run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .codec import existing, from_doc, read_json, to_doc
from .dataset import (
    Dataset,
    SynthSpec,
    check_rows,
    class_prototypes,
    read_embeddings,
    read_layout,
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
    train_dataset: Dataset
    test_dataset: Optional[Dataset]
    prompt_features: np.ndarray  # (num_classes, dim), unit rows
    provenance: dict


def _sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def synthetic_prompt_features(
    num_classes: int,
    dim: int,
    sigma: float = DEFAULT_PROMPT_SIGMA,
    seed: int = 0,
) -> np.ndarray:
    """Informative but imperfect prompt features: class prototypes plus
    Gaussian noise, unit-normalized. Raises ValueError for a negative
    sigma, and NonFiniteInputError when the noise overflows."""
    if not sigma >= 0.0:
        raise ValueError(f"prompt sigma must be >= 0, got {sigma}")
    rng = np.random.default_rng(seed)
    protos = class_prototypes(num_classes, dim)
    if sigma > 0.0:
        with np.errstate(over="ignore"):  # l2_normalize_rows rejects the inf
            noise = sigma * rng.standard_normal(protos.shape)
        protos = protos + noise
    return l2_normalize_rows(protos)


@dataclass
class SyntheticSource:
    """A `source` block of kind "synthetic": generated train and test sets."""

    kind: str
    spec: SynthSpec
    test_bags_per_class: int = 0
    prompt_sigma: float = DEFAULT_PROMPT_SIGMA
    prompt_seed: Optional[int] = None  # defaults to spec.seed

    def __post_init__(self):
        if not self.prompt_sigma >= 0.0:
            raise ValueError(f"prompt_sigma must be >= 0, got {self.prompt_sigma}")


@dataclass
class FileSource:
    """A `source` block of kind "file": FEMB dumps produced elsewhere."""

    kind: str
    train_manifest: str
    prompt_features: str
    test_manifest: Optional[str] = None
    encoder_name: str = "unknown"


def read_prompt_features(path, dim: int, num_classes: int) -> np.ndarray:
    """A prompt-feature FEMB file as unit rows, one per class: sweep's and train's reader.

    Raises DimensionConflictError if the file's width is not `dim` or it
    does not hold `num_classes` rows, and l2_normalize_rows's errors.
    """
    store = read_embeddings(path)
    if store.d != dim:
        raise DimensionConflictError(f"instance dim {dim} but prompt-feature dim {store.d}")
    if store.n != num_classes:
        raise DimensionConflictError(
            f"prompt file holds {store.n} rows for {num_classes} classes"
        )
    return l2_normalize_rows(store.rows)


_SOURCE_KINDS = {"synthetic": SyntheticSource, "file": FileSource}


def resolve_source(config: dict) -> EmbeddingSource:
    """Build an EmbeddingSource from the `source` block of a config.

    The block decodes strictly as a SyntheticSource or a FileSource,
    chosen by its "kind", so an unknown or missing key, or a value of the
    wrong type, raises UsageError, and so does a file the block names
    that does not exist, before any file is read. Dimension conflicts
    between instance and prompt features are rejected.
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
        # sha256(config JSON + train rows + prompts), the arrays hashed in place.
        checksum = hashlib.sha256(json.dumps(config, sort_keys=True).encode())
        checksum.update(train.store.rows)
        checksum.update(prompts)
        provenance = {
            "encoder": "synthetic-prototypes",
            "spec": to_doc(spec),
            "checksum": checksum.hexdigest(),
        }
        return EmbeddingSource(train, test, prompts, provenance)

    existing(src.train_manifest, "train manifest")
    existing(src.prompt_features, "prompt features")
    if src.test_manifest:
        existing(src.test_manifest, "test manifest")
    train = read_layout(src.train_manifest)
    check_rows(train.store)
    test = None
    if src.test_manifest:
        test = read_layout(src.test_manifest)
        check_rows(test.store)
    if test is not None and test.dim != train.dim:
        raise DimensionConflictError(
            f"train dim {train.dim} != test dim {test.dim}"
        )
    prompts = read_prompt_features(src.prompt_features, train.dim, train.num_classes)
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
    return EmbeddingSource(train, test, prompts, provenance)
