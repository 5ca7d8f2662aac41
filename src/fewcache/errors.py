"""Exception types shared across the package.

Every failure mode that callers are expected to distinguish gets its own
class; everything inherits from FewcacheError so `except FewcacheError`
catches any domain failure.
"""

from __future__ import annotations


class FewcacheError(Exception):
    """Base class for all domain errors raised by this package."""


class UsageError(FewcacheError):
    """Bad invocation: a missing file, or a config with an unknown or
    missing key or a rejected value. The CLI exits 2 on it."""


# --- numeric kernels ---------------------------------------------------


class NonFiniteInputError(FewcacheError):
    """A matrix argument contained NaN or infinity."""


class DegenerateRowError(FewcacheError):
    """A row that must have positive norm was all zeros."""

    def __init__(self, row: int, message: str | None = None):
        self.row = row
        super().__init__(message or f"row {row} has zero norm")


class ShapeMismatchError(FewcacheError):
    """Operands have incompatible shapes."""


# --- embedding file format (FEMB) --------------------------------------


class FembError(FewcacheError):
    """Base class for embedding-file format errors."""


class BadMagicError(FembError):
    """File does not start with the FEMB magic bytes."""


class UnsupportedVersionError(FembError):
    """FEMB header declares a version this reader does not know."""


class TruncatedPayloadError(FembError):
    """FEMB payload is shorter than the header promises."""


class NonFiniteValueError(FembError):
    """FEMB payload contains NaN or infinity."""


# --- dataset manifests --------------------------------------------------


class ManifestError(FewcacheError):
    """Base class for dataset manifest validation errors."""


class ManifestFormatError(ManifestError):
    """A manifest, instance-label file or prompt sidecar does not decode."""


class MissingFileError(ManifestError):
    """A file referenced by the manifest does not exist."""


class DimensionMismatchError(ManifestError):
    """Declared and actual embedding dimensions or counts disagree."""


class LabelRangeError(ManifestError):
    """A bag or instance label is outside [0, num_classes)."""


class OverlappingRangesError(ManifestError):
    """Two bags claim overlapping row ranges in the embedding store."""


# --- sampling ------------------------------------------------------------


class InsufficientBagsError(FewcacheError):
    """A class has fewer bags than the requested bag shot."""


class MissingInstanceLabelsError(FewcacheError):
    """Ground-truth instance labels are required but absent."""


class SplitError(FewcacheError):
    """A split.json does not decode, or names rows or classes its dataset lacks."""


# --- evaluation ----------------------------------------------------------


class UndefinedMetricError(FewcacheError):
    """AUC is undefined because the labels contain a single class."""


class EmptyBagError(FewcacheError):
    """Bag pooling was asked to pool zero instances."""


# --- checkpoints ----------------------------------------------------------


class CheckpointError(FewcacheError):
    """Base class for model checkpoint errors."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint container version is not supported."""


class CorruptCheckpointError(CheckpointError):
    """Checkpoint container is missing files or fails to parse."""


# --- embedding sources -----------------------------------------------------


class UnknownSourceKindError(FewcacheError):
    """Embedding source config names a kind that is not registered."""


class DimensionConflictError(FewcacheError):
    """Two inputs of one run disagree: instance and text embeddings on dim
    or class count, or a checkpoint and a dataset on their classes."""
